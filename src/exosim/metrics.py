"""Stability metrics for route tables and the persistence truth tables.

Basic stability rewards a route table twice: once for covering the
universe with departures toward positive objectives, once for giving
negative states an exit toward some neutral state's formula. Instability
is the mirror image (departures toward negative objectives, exits from
positive states toward neutral ground). Both are exact rationals; total
stability is their difference.

stability_report counts by goal and standing in one pass over the routes,
so a report costs O(|states| + |routes|) lookups.

With k positive objectives each covered from every state and every
negative state holding an exit, basic stability reaches 1 + |E-|/|E|,
so values above 1 are possible; 1 is the natural "fully steered toward
the positive" mark.
"""

from __future__ import annotations

from collections import Counter
from enum import Enum
from fractions import Fraction
from typing import Mapping, NamedTuple

from .architectures import RouteTable
from .representation import AmbiguousRepresentation, Formula, RepresentationMap
from .universe import StateClass, StateId, Universe


class ObjectiveSets(NamedTuple):
    """Goal formulas a table steers toward, split by the standing of the
    states they represent."""

    objectives: frozenset[Formula]
    positive: frozenset[Formula]
    negative: frozenset[Formula]


def derive_objectives(
    table: RouteTable, rmap: RepresentationMap, universe: Universe
) -> ObjectiveSets:
    """Objectives are the goal formulas with at least one route.

    A formula counts as positive (negative) when every state it
    represents is Positive (Negative). Formulas representing states of
    mixed standing are rejected: the table's intent is undecidable.
    Formulas representing no state stay in the plain objective set.
    """
    objectives = frozenset(goal for (_, goal) in table)
    positive = set()
    negative = set()
    for formula in objectives:
        states = rmap.by_formula.get(formula)
        if not states:
            continue
        classes = {universe.class_of(s) for s in states}
        if len(classes) > 1:
            raise AmbiguousRepresentation(
                f"objective {formula!r} represents states of mixed standing"
            )
        cls = classes.pop()
        if cls is StateClass.POSITIVE:
            positive.add(formula)
        elif cls is StateClass.NEGATIVE:
            negative.add(formula)
    return ObjectiveSets(objectives, frozenset(positive), frozenset(negative))


class StabilityReport(NamedTuple):
    """Exact stability accounting for one table in one universe.

    departures maps each objective formula to |P_i|, the size of its
    departure set. negative_escapes / positive_escapes map each neutral
    state j to |A-_j| / |A+_j|.
    """

    departures: Mapping[Formula, int]
    negative_escapes: Mapping[StateId, int]
    positive_escapes: Mapping[StateId, int]
    basic_stability: Fraction
    instability: Fraction
    total_stability: Fraction

    @staticmethod
    def _term_toward(
        departures: Mapping[Formula, int], chosen: frozenset[Formula], n_states: int
    ) -> Fraction:
        if not chosen or n_states == 0:
            return Fraction(0)
        coverage = sum(Fraction(departures[f], n_states) for f in sorted(chosen))
        return coverage / len(chosen)


def stability_report(
    table: RouteTable, rmap: RepresentationMap, objectives: ObjectiveSets, universe: Universe
) -> StabilityReport:
    """Exact basic stability, instability, and their difference.

    One tally per class maps a goal formula to the universe states of that
    class that hold a route toward it. Each universe state is mapped to its
    class's tally once; a route adds each state its source represents to
    that state's tally under the route's goal, so no class is hashed per
    route. A departure count sums a goal's three tallies; an escape count
    toward neutral state j is the Negative or Positive tally of j's formula."""
    tallies: dict[StateClass, Counter[Formula]] = {cls: Counter() for cls in StateClass}
    tally_of = {s: tallies[universe.class_of(s)] for s in universe.states}
    n = len(tally_of)
    for source, goal in table:
        for state in rmap.by_formula.get(source, ()):
            if state in tally_of:
                tally_of[state][goal] += 1
    positive, neutral, negative = tallies.values()  # StateClass's order
    goals = sorted(f for f in objectives.objectives if f in rmap.by_formula)
    departures = {f: positive[f] + neutral[f] + negative[f] for f in goals}
    # An escape toward neutral state j is a state with a route toward j's
    # formula; an unrepresented neutral state offers no target.
    targets = {j: rmap.entries.get(j) for j in sorted(tally_of) if tally_of[j] is neutral}
    neg_escapes, pos_escapes = (
        {j: 0 if f is None else tally[f] for j, f in targets.items()}
        for tally in (negative, positive)
    )

    basic = StabilityReport._term_toward(departures, objectives.positive, n)
    if n:
        basic += Fraction(sum(neg_escapes.values()), n)
    instability = StabilityReport._term_toward(departures, objectives.negative, n)
    if n:
        instability += Fraction(sum(pos_escapes.values()), n)

    return StabilityReport(
        departures=departures,
        negative_escapes=neg_escapes,
        positive_escapes=pos_escapes,
        basic_stability=basic,
        instability=instability,
        total_stability=basic - instability,
    )


class TriValue(Enum):
    """Strong three-valued truth: unknown anteceded by truth stays unknown."""

    TRUE = "V"
    FALSE = "F"
    UNKNOWN = "?"


def _implies(antecedent: bool, consequent: TriValue) -> TriValue:
    return consequent if antecedent else TriValue.TRUE


def _tri_and(a: TriValue, b: TriValue) -> TriValue:
    if TriValue.FALSE in (a, b):
        return TriValue.FALSE
    if TriValue.UNKNOWN in (a, b):
        return TriValue.UNKNOWN
    return TriValue.TRUE


class PersistenceCase(NamedTuple):
    """One configuration of the persistence claim.

    act_sensitive: the universe reacts to what entities do (s).
    rep_movers / free_movers: entities that act with / without a state
    representation exist (r, n). rep_persist / free_persist: whether
    those entities persist (r', n'), possibly unknown.
    """

    act_sensitive: bool
    rep_movers: bool
    free_movers: bool
    rep_persist: TriValue = TriValue.UNKNOWN
    free_persist: TriValue = TriValue.UNKNOWN


def evaluate_persistence_claim(case: PersistenceCase) -> TriValue:
    """Truth of (s and r -> r') and (s and n -> n') for one case."""
    first = _implies(case.act_sensitive and case.rep_movers, case.rep_persist)
    second = _implies(case.act_sensitive and case.free_movers, case.free_persist)
    return _tri_and(first, second)


class TruthTableRow(NamedTuple):
    group: str
    label: str
    case: PersistenceCase
    s_and_r: bool
    s_and_n: bool
    value: TriValue


def persistence_truth_table() -> tuple[TruthTableRow, ...]:
    """The canonical eight rows of the persistence claim.

    Group I: nothing moves. Group II: movers in a universe that ignores
    acts. Group III: movers in an act-sensitive universe, where the
    claim's consequents are open and the whole claim is unknown.
    """
    configurations = (
        ("I", "a", True, False, False),
        ("I", "b", False, False, False),
        ("II", "a", False, False, True),
        ("II", "b", False, True, False),
        ("II", "c", False, True, True),
        ("III", "a", True, False, True),
        ("III", "b", True, True, False),
        ("III", "c", True, True, True),
    )
    rows = []
    for group, label, s, r, n in configurations:
        case = PersistenceCase(act_sensitive=s, rep_movers=r, free_movers=n)
        value = evaluate_persistence_claim(case)
        rows.append(TruthTableRow(group, label, case, s and r, s and n, value))
    return tuple(rows)
