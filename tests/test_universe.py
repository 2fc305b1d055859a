from __future__ import annotations

import random

import pytest
from hypothesis import given, strategies as st

from exosim import (
    AgentArchitecture,
    ArchitectureKind,
    EnergyRules,
    ExplicitDigits,
    StateClass,
    Universe,
    UniverseError,
    UnknownAct,
    UnknownState,
    run_trajectory,
)


def tiny_universe(
    classes=None,
    energy=EnergyRules(5, 1, 0, 0, 10),
    states=("x", "y"),
    acts=("stay", "hop"),
) -> Universe:
    """Two-state world: stay self-loops, hop swaps."""
    classes = classes or {s: StateClass.NEUTRAL for s in states}
    transitions = {}
    for s in states:
        transitions[(s, "stay")] = s
    if "hop" in acts:
        # hop cycles through the states in declaration order
        for i, s in enumerate(states):
            transitions[(s, "hop")] = states[(i + 1) % len(states)]
    return Universe(
        name="tiny",
        states=frozenset(states),
        acts=frozenset(acts),
        initial="x",
        neutral_act="stay",
        transitions=transitions,
        classes=classes,
        energy=energy,
    )


class TestAdvance:
    def test_neutral_self_loop_pays_step_cost(self):
        u = tiny_universe()
        assert u.advance("x", "stay", 5) == ("x", 4, True)

    def test_negative_landing_drains_penalty(self, ejemplo5_doc):
        u = ejemplo5_doc.build_universe("ejemplo5")
        # go2 sends e2 into the negative e4: cost 1 plus penalty 3.
        assert u.advance("e2", "go2", 4) == ("e4", 0, False)

    def test_positive_landing_rewards(self, ejemplo5_doc):
        u = ejemplo5_doc.build_universe("ejemplo5")
        assert u.advance("e2", "go1", 5) == ("e1", 6, True)

    def test_reward_clamped_at_cap(self, ejemplo5_doc):
        u = ejemplo5_doc.build_universe("ejemplo5")
        assert u.advance("e2", "go1", 20) == ("e1", 20, True)

    def test_matches_transition_table_on_reference(self, reference_doc):
        u = reference_doc.build_universe("reference")
        rng = random.Random(2024)
        states = sorted(u.states)
        acts = sorted(u.acts)
        for _ in range(200):
            s, a = rng.choice(states), rng.choice(acts)
            nxt, _, _ = u.advance(s, a, 50)
            assert nxt == u.transitions[(s, a)]

    def test_unknown_identifiers(self):
        u = tiny_universe()
        with pytest.raises(UnknownState):
            u.advance("zz", "stay", 5)
        with pytest.raises(UnknownAct):
            u.advance("x", "fly", 5)
        with pytest.raises(UnknownState):
            u.successor("zz", "stay")
        with pytest.raises(UnknownState):
            u.class_of("zz")

    @pytest.mark.parametrize("landed", list(StateClass))
    def test_bill_applied_is_settle_at_every_energy(self, landed):
        # The run loop adds a landing's change and clamps at its ceiling;
        # that is what advance settles for any integer budget, above the cap
        # too. hop takes x to y, a state of class landed.
        rules = EnergyRules(5, 2, 3, 4, 10)
        u = tiny_universe(classes={"x": StateClass.NEUTRAL, "y": landed}, energy=rules)
        change, ceiling = rules.bill(landed)
        for energy in range(-20, 40):
            plain = energy - 2
            if landed is StateClass.NEGATIVE:
                plain -= 3
            elif landed is StateClass.POSITIVE:
                plain = min(plain + 4, 10)
            after = energy + change
            if after > ceiling:
                after = ceiling
            stepped = u.advance("x", "hop", energy)
            assert stepped == ("y", after, after > 0)
            assert after == plain
            assert type(after) is type(stepped[1]) is int

    def test_advance_is_pure(self):
        u = tiny_universe()
        assert u.advance("x", "hop", 3) == u.advance("x", "hop", 3)

    @given(energy=st.integers(-5, 10))
    def test_exoactive_iff_positive_budget(self, energy):
        # Budgets at or below the cap stay there; exoactivity is simply a
        # positive balance after the step.
        u = tiny_universe()
        _, new_energy, exoactive = u.advance("x", "hop", energy)
        assert exoactive == (new_energy > 0)
        assert new_energy <= u.energy.energy_cap


_TINY_TRANSITIONS = tiny_universe().transitions


class TestLibraryBuiltErrors:
    """A universe built in Python is not checked up front: a bad entry
    raises a UniverseError at the first step that meets it."""

    @pytest.mark.parametrize(
        "change,needle",
        [
            (
                {"transitions": {k: v for k, v in _TINY_TRANSITIONS.items() if k != ("x", "hop")}},
                r"no transition declared for \('x', 'hop'\)",
            ),
            ({"classes": {"x": StateClass.NEUTRAL}}, "state 'y' has no standing"),
            (
                {"transitions": {**_TINY_TRANSITIONS, ("x", "hop"): "ghost"}},
                "unknown state 'ghost'",
            ),
        ],
        ids=["missing-transition", "no-standing", "undeclared-target"],
    )
    def test_run_raises_universe_error(self, change, needle):
        broken = tiny_universe()._replace(**change)
        # One hop from x: every broken entry sits on that step. Digit 0
        # is "hop", the first of the acts in sorted order.
        hopper = AgentArchitecture(
            "hopper", ArchitectureKind.POSITIONAL, digits=ExplicitDigits((0,), 2)
        )
        with pytest.raises(UniverseError, match=needle):
            run_trajectory(broken, hopper, 1)
        with pytest.raises(UniverseError, match=needle):
            broken.advance("x", "hop", 5)


class TestEnergyLaws:
    def test_all_neutral_world_is_linear(self):
        # With every state Neutral and no rewards, k steps cost exactly
        # k * per_step_cost.
        u = tiny_universe(energy=EnergyRules(10, 2, 0, 0, 10))
        energy = 10
        state = "x"
        for k in range(1, 5):
            state, energy, _ = u.advance(state, "hop", energy)
            assert energy == 10 - 2 * k

    @given(steps=st.integers(1, 30))
    def test_persistence_bound_without_rewards(self, steps):
        u = tiny_universe(energy=EnergyRules(5, 1, 0, 0, 10))
        energy = u.energy.initial_energy
        state = u.initial
        taken = 0
        for _ in range(steps):
            state, energy, exoactive = u.advance(state, "hop", energy)
            taken += 1
            if not exoactive:
                break
        assert taken <= u.energy.initial_energy
