"""Stability metrics for route tables and the persistence truth tables.

Basic stability rewards a route table twice: once for covering the
universe with departures toward positive objectives, once for giving
negative states an exit toward some neutral state's formula. Instability
is the mirror image (departures toward negative objectives, exits from
positive states toward neutral ground). Both are exact rationals; total
stability is their difference.

stability_report groups the counts by goal in one pass over the routes:
each route adds the universe states its source formula represents to
its goal's tally, split by standing. A departure count is a goal's whole
tally; an escape count toward a neutral state is the Negative or
Positive part of its formula's tally. A report thus costs
O(|states| + |routes|) lookups.

With k positive objectives each covered from every state and every
negative state holding an exit, basic stability reaches 1 + |E-|/|E|,
so values above 1 are possible; 1 is the natural "fully steered toward
the positive" mark.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Mapping

from .architectures import RouteTable
from .representation import (
    AmbiguousRepresentation,
    Formula,
    RepresentationMap,
    UnrepresentedFormula,
)
from .universe import StateClass, StateId, Universe


class MetricsError(Exception):
    pass


class MismatchedContext(MetricsError):
    """Two reports compared across different universes or objectives."""


@dataclass(frozen=True)
class ObjectiveSets:
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
    objectives = frozenset(goal for (_, goal) in table.entries)
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


def departure_set(
    table: RouteTable, rmap: RepresentationMap, target: Formula, universe: Universe
) -> frozenset[StateId]:
    """States from which the table routes toward target.

    A state departs when it is represented and the table holds a route
    from its formula to the target formula.
    """
    if target not in rmap.by_formula:
        raise UnrepresentedFormula(f"target {target!r} is outside the representation image")
    return frozenset(
        state
        for state in universe.states
        if (f := rmap.entries.get(state)) is not None
        and table.entries.get((f, target)) is not None
    )


@dataclass(frozen=True)
class StabilityReport:
    """Exact stability accounting for one table in one universe.

    departures maps each objective formula to |P_i|, the size of its
    departure set. negative_escapes / positive_escapes map each neutral
    state j to |A-_j| / |A+_j|. The context fingerprint pins the
    universe and objectives so reports are only compared like for like.
    """

    departures: Mapping[Formula, int]
    negative_escapes: Mapping[StateId, int]
    positive_escapes: Mapping[StateId, int]
    basic_stability: Fraction
    instability: Fraction
    total_stability: Fraction
    context: tuple

    @staticmethod
    def _term_toward(
        departures: Mapping[Formula, int], chosen: frozenset[Formula], n_states: int
    ) -> Fraction:
        if not chosen or n_states == 0:
            return Fraction(0)
        coverage = sum(Fraction(departures[f], n_states) for f in sorted(chosen))
        return coverage / len(chosen)


def stability_report(
    table: RouteTable,
    rmap: RepresentationMap,
    objectives: ObjectiveSets,
    universe: Universe,
) -> StabilityReport:
    """Exact basic stability, instability, and their difference."""
    classes = {s: universe.class_of(s) for s in universe.states}
    n = len(classes)
    # (goal formula, class) -> universe states of that class that hold a
    # route toward the goal. Each route adds the states of its source.
    tally: Counter[tuple[Formula, StateClass]] = Counter()
    for source, goal in table.entries:
        for state in rmap.by_formula.get(source, ()):
            if state in classes:
                tally[goal, classes[state]] += 1
    departures = {
        f: sum(tally[f, cls] for cls in StateClass)
        for f in sorted(objectives.objectives)
        if f in rmap.by_formula
    }
    # An escape toward neutral state j is a state with a route toward j's
    # formula; an unrepresented neutral state offers no target.
    neutral = {
        j: rmap.entries.get(j) for j in sorted(classes) if classes[j] is StateClass.NEUTRAL
    }
    neg_escapes, pos_escapes = (
        {j: 0 if f is None else tally[f, cls] for j, f in neutral.items()}
        for cls in (StateClass.NEGATIVE, StateClass.POSITIVE)
    )

    basic = StabilityReport._term_toward(departures, objectives.positive, n)
    if n:
        basic += Fraction(sum(neg_escapes.values()), n)
    instability = StabilityReport._term_toward(departures, objectives.negative, n)
    if n:
        instability += Fraction(sum(pos_escapes.values()), n)

    context = (
        universe.name,
        tuple(sorted(universe.states)),
        tuple(sorted((s, cls.value) for s, cls in classes.items())),
        tuple(sorted(objectives.objectives)),
    )
    return StabilityReport(
        departures=departures,
        negative_escapes=neg_escapes,
        positive_escapes=pos_escapes,
        basic_stability=basic,
        instability=instability,
        total_stability=basic - instability,
        context=context,
    )


@dataclass(frozen=True)
class StabilityDelta:
    basic: Fraction
    instability: Fraction
    total: Fraction


def compare_learning(before: StabilityReport, after: StabilityReport) -> StabilityDelta:
    """after minus before, refusing to compare across contexts."""
    if before.context != after.context:
        raise MismatchedContext(
            "stability reports come from different universes or objectives"
        )
    return StabilityDelta(
        basic=after.basic_stability - before.basic_stability,
        instability=after.instability - before.instability,
        total=after.total_stability - before.total_stability,
    )


class TriValue(Enum):
    """Strong three-valued truth: unknown anteceded by truth stays unknown."""

    TRUE = "V"
    FALSE = "F"
    UNKNOWN = "?"


def _implies(antecedent: bool, consequent: TriValue) -> TriValue:
    if not antecedent:
        return TriValue.TRUE
    return consequent


def _tri_and(a: TriValue, b: TriValue) -> TriValue:
    if TriValue.FALSE in (a, b):
        return TriValue.FALSE
    if TriValue.UNKNOWN in (a, b):
        return TriValue.UNKNOWN
    return TriValue.TRUE


@dataclass(frozen=True)
class PersistenceCase:
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


@dataclass(frozen=True)
class TruthTableRow:
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
        rows.append(
            TruthTableRow(
                group=group,
                label=label,
                case=case,
                s_and_r=s and r,
                s_and_n=s and n,
                value=evaluate_persistence_claim(case),
            )
        )
    return tuple(rows)
