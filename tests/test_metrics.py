from __future__ import annotations

import itertools
import random
from collections import Counter
from fractions import Fraction
from unittest import mock

import pytest

from exosim import (
    AmbiguousRepresentation,
    EnergyRules,
    PersistenceCase,
    RepresentationMap,
    StateClass,
    TriValue,
    Universe,
    derive_objectives,
    evaluate_persistence_claim,
    persistence_truth_table,
    stability_report,
)

import oracles
from case_builder import CountingDict, build_case


def pnj_universe() -> Universe:
    """One positive, one negative, one neutral state; acts only idle."""
    states = ("p", "m", "j")
    return Universe(
        name="pnj",
        states=frozenset(states),
        acts=frozenset(("idle",)),
        initial="j",
        neutral_act="idle",
        transitions={(s, "idle"): s for s in states},
        classes={
            "p": StateClass.POSITIVE,
            "m": StateClass.NEGATIVE,
            "j": StateClass.NEUTRAL,
        },
        energy=EnergyRules(5, 1, 0, 0, 10),
    )


PNJ_RMAP = RepresentationMap({"p": "fp", "m": "fm", "j": "fj"})


def ejemplo_table(ejemplo_pair):
    agent, universe = ejemplo_pair
    return agent.tables[0], agent.representation, universe


class TestDeriveObjectives:
    def test_fixture_objectives(self, ejemplo_pair):
        table, rmap, universe = ejemplo_table(ejemplo_pair)
        sets = derive_objectives(table, rmap, universe)
        assert sets.objectives == frozenset({"psi1", "psi2"})
        assert sets.positive == frozenset({"psi1"})
        assert sets.negative == frozenset()

    def test_negative_objective_detected(self):
        u = pnj_universe()
        table = {("fp", "fm"): ("idle",)}
        sets = derive_objectives(table, PNJ_RMAP, u)
        assert sets.negative == frozenset({"fm"})
        assert sets.positive == frozenset()

    def test_mixed_standing_rejected(self):
        u = pnj_universe()
        blurry = RepresentationMap({"p": "f", "m": "f", "j": "fj"})
        table = {("fj", "f"): ("idle",)}
        with pytest.raises(AmbiguousRepresentation):
            derive_objectives(table, blurry, u)

    def test_goal_without_preimage_stays_plain(self):
        u = pnj_universe()
        table = {("fp", "dream"): ("idle",)}
        sets = derive_objectives(table, PNJ_RMAP, u)
        assert "dream" in sets.objectives
        assert sets.positive == sets.negative == frozenset()


class TestStabilityReport:
    def test_fixture_golden_values(self, ejemplo_pair):
        table, rmap, universe = ejemplo_table(ejemplo_pair)
        sets = derive_objectives(table, rmap, universe)
        report = stability_report(table, rmap, sets, universe)
        assert report.basic_stability == Fraction(4, 5)
        assert report.instability == Fraction(0)
        assert report.total_stability == Fraction(4, 5)
        assert report.departures == {"psi1": 3, "psi2": 1}
        assert report.negative_escapes == {"e2": 1, "e3": 0}
        assert report.positive_escapes == {"e2": 0, "e3": 0}
        assert isinstance(report.basic_stability, Fraction)

    def test_negative_objective_feeds_instability(self):
        u = pnj_universe()
        table = {("fp", "fm"): ("idle",), ("fj", "fm"): ("idle",)}
        sets = derive_objectives(table, PNJ_RMAP, u)
        report = stability_report(table, PNJ_RMAP, sets, u)
        # Two of three states route toward the negative objective and
        # nothing escapes anywhere: pure instability.
        assert report.basic_stability == Fraction(0)
        assert report.instability == Fraction(2, 3)
        assert report.total_stability == Fraction(-2, 3)

    def test_escape_route_raises_basic(self):
        u = pnj_universe()
        table = {("fp", "fm"): ("idle",), ("fm", "fj"): ("idle",)}
        sets = derive_objectives(table, PNJ_RMAP, u)
        report = stability_report(table, PNJ_RMAP, sets, u)
        assert report.negative_escapes == {"j": 1}
        assert report.basic_stability == Fraction(1, 3)

    def test_empty_table_is_all_zero(self):
        u = pnj_universe()
        table = {}
        sets = derive_objectives(table, PNJ_RMAP, u)
        report = stability_report(table, PNJ_RMAP, sets, u)
        assert report.basic_stability == Fraction(0)
        assert report.instability == Fraction(0)
        assert report.total_stability == Fraction(0)


class TestOracleEquivalence:
    def test_random_cases_match_first_principles(self):
        rng = random.Random(714)
        for _ in range(120):
            case = oracles.random_universe_case(rng)
            universe, rmap, table = build_case(case)
            want = oracles.stability_oracle(
                case["states"], case["classes"], case["rmap"], case["table"]
            )
            sets = derive_objectives(table, rmap, universe)
            assert sets.objectives == frozenset(want["objectives"])
            assert sets.positive == frozenset(want["positive"])
            assert sets.negative == frozenset(want["negative"])
            report = stability_report(table, rmap, sets, universe)
            assert dict(report.departures) == want["departures"]
            assert dict(report.negative_escapes) == want["negative_escapes"]
            assert dict(report.positive_escapes) == want["positive_escapes"]
            assert report.basic_stability == want["basic"]
            assert report.instability == want["instability"]
            assert report.total_stability == want["total"]

    def test_shared_and_foreign_formulas_match_first_principles(self):
        # Formulas shared by several states, sources outside the image and
        # represented ids outside the universe: each shape must show up.
        rng = random.Random(2718)
        shapes = Counter()
        for _ in range(400):
            case = oracles.shared_formula_case(rng)
            universe, rmap, table = build_case(case)
            shapes["shared"] += any(len(s) > 1 for s in rmap.by_formula.values())
            shapes["foreign"] += any(s not in universe.states for s in rmap.entries)
            shapes["outside"] += any(src not in rmap.by_formula for src, _ in table)
            want = oracles.stability_oracle(
                case["states"], case["classes"], case["rmap"], case["table"]
            )
            sets = derive_objectives(table, rmap, universe)
            assert sets.objectives == frozenset(want["objectives"])
            assert sets.positive == frozenset(want["positive"])
            assert sets.negative == frozenset(want["negative"])
            report = stability_report(table, rmap, sets, universe)
            assert dict(report.departures) == want["departures"]
            assert dict(report.negative_escapes) == want["negative_escapes"]
            assert dict(report.positive_escapes) == want["positive_escapes"]
            assert report.basic_stability == want["basic"]
            assert report.instability == want["instability"]
            assert report.total_stability == want["total"]
        assert min(shapes[k] for k in ("shared", "foreign", "outside")) >= 100, shapes

    def test_new_positive_route_never_lowers_basic(self):
        # Adding a route from an uncovered represented state toward an
        # already positive objective can only widen a departure set.
        rng = random.Random(99)
        exercised = 0
        for _ in range(300):
            case = oracles.random_universe_case(rng)
            universe, rmap, table = build_case(case)
            sets = derive_objectives(table, rmap, universe)
            if not sets.positive:
                continue
            target = sorted(sets.positive)[0]
            uncovered = [
                s
                for s in sorted(case["rmap"])
                if (case["rmap"][s], target) not in table
            ]
            if not uncovered:
                continue
            before = stability_report(table, rmap, sets, universe)
            grown = {**table, (case["rmap"][uncovered[0]], target): (case["acts"][0],)}
            after = stability_report(
                grown, rmap, derive_objectives(grown, rmap, universe), universe
            )
            assert after.basic_stability >= before.basic_stability
            exercised += 1
        assert exercised >= 20


class TestCostBound:
    def test_lookups_grow_with_states_plus_routes(self):
        # About 3000 states and 3000 routes toward 30 goals. Scanning every
        # state per objective, or every source per neutral state, costs
        # millions of lookups; grouping routes by goal costs a few per
        # state and route.
        rng = random.Random(3000)
        states = [f"q{i:04d}" for i in range(3000)]
        universe = Universe(
            name="large",
            states=frozenset(states),
            acts=frozenset(("go",)),
            initial=states[0],
            neutral_act="go",
            transitions={(s, "go"): rng.choice(states) for s in states},
            classes={s: rng.choice(list(StateClass)) for s in states},
            energy=EnergyRules(5, 1, 0, 0, 10),
        )
        calls = Counter()
        rmap = RepresentationMap(
            CountingDict({s: f"r{s}" for s in states}, calls, "representation")
        )
        routes = {
            (f"r{src}", f"r{goal}"): ("go",)
            for goal in rng.sample(states, 30)
            for src in rng.sample(states, 100)
        }
        table = CountingDict(routes, calls, "routes")
        sets = derive_objectives(table, rmap, universe)
        object.__setattr__(
            rmap, "by_formula", CountingDict(rmap.by_formula, calls, "by_formula")
        )
        calls.clear()
        # A class is hashed at most once per state and once per class, never
        # per route or per escape lookup.
        hashes = 0
        enum_hash = StateClass.__hash__

        def counting_hash(cls):
            nonlocal hashes
            hashes += 1
            return enum_hash(cls)

        with mock.patch.object(StateClass, "__hash__", counting_hash):
            stability_report(table, rmap, sets, universe)
        bound = 4 * (len(states) + len(table))
        assert sum(calls.values()) <= bound, (dict(calls), bound)
        assert 0 < hashes <= len(states) + len(StateClass), hashes


def kleene_oracle(s: bool, r: bool, n: bool, rp: TriValue, np: TriValue) -> TriValue:
    """Inline recomputation of the claim with three-valued tables."""

    def implies(a: bool, c: TriValue) -> str:
        if not a:
            return "V"
        return c.value

    left, right = implies(s and r, rp), implies(s and n, np)
    if "F" in (left, right):
        return TriValue.FALSE
    if "?" in (left, right):
        return TriValue.UNKNOWN
    return TriValue.TRUE


class TestPersistenceClaim:
    def test_exhaustive_against_inline_oracle(self):
        bools = (False, True)
        for s, r, n, rp, np in itertools.product(
            bools, bools, bools, TriValue, TriValue
        ):
            case = PersistenceCase(s, r, n, rp, np)
            assert evaluate_persistence_claim(case) == kleene_oracle(s, r, n, rp, np)

    def test_settled_consequents_settle_the_claim(self):
        sure = PersistenceCase(True, True, False, rep_persist=TriValue.TRUE)
        assert evaluate_persistence_claim(sure) == TriValue.TRUE
        broken = PersistenceCase(True, True, False, rep_persist=TriValue.FALSE)
        assert evaluate_persistence_claim(broken) == TriValue.FALSE

    def test_open_consequent_leaves_claim_open(self):
        open_case = PersistenceCase(True, False, True)
        assert evaluate_persistence_claim(open_case) == TriValue.UNKNOWN


class TestTruthTable:
    # (group, label, s, r, n, s^r, s^n, value)
    CANON = [
        ("I", "a", True, False, False, False, False, "V"),
        ("I", "b", False, False, False, False, False, "V"),
        ("II", "a", False, False, True, False, False, "V"),
        ("II", "b", False, True, False, False, False, "V"),
        ("II", "c", False, True, True, False, False, "V"),
        ("III", "a", True, False, True, False, True, "?"),
        ("III", "b", True, True, False, True, False, "?"),
        ("III", "c", True, True, True, True, True, "?"),
    ]

    def test_eight_canonical_rows(self):
        rows = persistence_truth_table()
        got = [
            (
                row.group,
                row.label,
                row.case.act_sensitive,
                row.case.rep_movers,
                row.case.free_movers,
                row.s_and_r,
                row.s_and_n,
                row.value.value,
            )
            for row in rows
        ]
        assert got == self.CANON

    def test_rows_self_consistent(self):
        for row in persistence_truth_table():
            assert row.value == evaluate_persistence_claim(row.case)
            assert row.s_and_r == (row.case.act_sensitive and row.case.rep_movers)
            assert row.s_and_n == (row.case.act_sensitive and row.case.free_movers)

    def test_only_act_sensitive_mover_rows_are_open(self):
        for row in persistence_truth_table():
            open_row = row.value is TriValue.UNKNOWN
            has_movers = row.case.rep_movers or row.case.free_movers
            assert open_row == (row.case.act_sensitive and has_movers)
