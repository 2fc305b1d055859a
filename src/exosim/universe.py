"""Finite universes with act-sensitive transitions and an energy budget.

A universe is a finite transition system: a set of states with a
distinguished initial state, a finite act alphabet containing one neutral
act, and a total deterministic transition function on (state, act) pairs.
Every state carries a standing (Positive, Neutral, Negative) and stepping
through the universe is paid for out of an integer energy budget. An
entity whose budget is exhausted can no longer act: it is exoinactive.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Mapping, NamedTuple

StateId = str
ActId = str


class StateClass(Enum):
    POSITIVE = "positive"
    NEUTRAL = "neutral"
    NEGATIVE = "negative"


class UniverseError(Exception):
    """Raised when an operation is applied to ids the universe lacks."""


class UnknownState(UniverseError):
    pass


class UnknownAct(UniverseError):
    pass


@dataclass(frozen=True)
class EnergyRules:
    """Energy bookkeeping for one universe.

    initial_energy must be positive, costs non-negative, and the cap at
    least the initial budget. Gains are clamped at the cap; losses are
    not floored, so the budget can go negative on a fatal step.
    """

    initial_energy: int
    per_step_cost: int
    negative_penalty: int
    positive_reward: int
    energy_cap: int


@dataclass(frozen=True)
class Violation:
    """One structural defect found by Universe.validate.

    code is a stable machine-readable name (e.g. "MissingTransition");
    subject identifies the offending ids; message is human-readable.
    """

    code: str
    subject: tuple[str, ...]
    message: str


@dataclass(frozen=True)
class Universe:
    name: str
    states: frozenset[StateId]
    acts: frozenset[ActId]
    initial: StateId
    neutral_act: ActId
    transitions: Mapping[tuple[StateId, ActId], StateId]
    classes: Mapping[StateId, StateClass]
    energy: EnergyRules

    def class_of(self, state: StateId) -> StateClass:
        if state not in self.states:
            raise UnknownState(f"unknown state {state!r} in universe {self.name!r}")
        return self.classes[state]

    def successor(self, state: StateId, act: ActId) -> StateId:
        """Next state under a total deterministic transition table."""
        if state not in self.states:
            raise UnknownState(f"unknown state {state!r} in universe {self.name!r}")
        if act not in self.acts:
            raise UnknownAct(f"unknown act {act!r} in universe {self.name!r}")
        return self.transitions[(state, act)]

    def settle(self, energy: int, landed: StateClass) -> int:
        """The budget after one step that lands on a state of class landed.

        The step costs per_step_cost; landing on a Negative state costs
        negative_penalty more, landing on a Positive state refunds
        positive_reward (clamped at energy_cap).
        """
        e = self.energy
        energy -= e.per_step_cost
        if landed is StateClass.NEGATIVE:
            return energy - e.negative_penalty
        if landed is StateClass.POSITIVE:
            return min(energy + e.positive_reward, e.energy_cap)
        return energy

    def advance(self, state: StateId, act: ActId, energy: int) -> tuple[StateId, int, bool]:
        """Take one step and settle its energy bill.

        Returns the successor state, the new budget, and whether the
        entity is still exoactive (budget strictly positive).
        """
        nxt = self.successor(state, act)
        new_energy = self.settle(energy, self.classes[nxt])
        return nxt, new_energy, new_energy > 0

    def validate(self) -> list[Violation]:
        """Check structural invariants; an empty list means well-formed."""
        out: list[Violation] = []
        if not self.states:
            out.append(Violation("EmptyStates", (self.name,), "universe has no states"))
        if not self.acts:
            out.append(Violation("EmptyActs", (self.name,), "universe has no acts"))
        if self.initial not in self.states:
            out.append(
                Violation(
                    "UnknownInitial",
                    (self.initial,),
                    f"initial state {self.initial!r} is not a declared state",
                )
            )
        if self.neutral_act not in self.acts:
            out.append(
                Violation(
                    "UnknownNeutralAct",
                    (self.neutral_act,),
                    f"neutral act {self.neutral_act!r} is not a declared act",
                )
            )
        for state in sorted(self.states):
            if state not in self.classes:
                out.append(
                    Violation(
                        "UnclassifiedState",
                        (state,),
                        f"state {state!r} has no standing",
                    )
                )
        for state in sorted(self.classes):
            if state not in self.states:
                out.append(
                    Violation(
                        "ForeignClassKey",
                        (state,),
                        f"classified id {state!r} is not a declared state",
                    )
                )
        for state in sorted(self.states):
            for act in sorted(self.acts):
                if (state, act) not in self.transitions:
                    out.append(
                        Violation(
                            "MissingTransition",
                            (state, act),
                            f"no transition declared for ({state!r}, {act!r})",
                        )
                    )
        for (state, act), target in sorted(self.transitions.items()):
            if state not in self.states or act not in self.acts or target not in self.states:
                out.append(
                    Violation(
                        "ForeignTransition",
                        (state, act, target),
                        f"transition ({state!r}, {act!r}) -> {target!r} uses undeclared ids",
                    )
                )
        e = self.energy
        if e.initial_energy <= 0:
            out.append(
                Violation(
                    "NonPositiveInitialEnergy",
                    (str(e.initial_energy),),
                    "initial energy must be positive",
                )
            )
        for label, value in (
            ("per_step", e.per_step_cost),
            ("negative_penalty", e.negative_penalty),
            ("positive_reward", e.positive_reward),
        ):
            if value < 0:
                out.append(
                    Violation(
                        "NegativeEnergyField",
                        (label, str(value)),
                        f"energy field {label} must be non-negative",
                    )
                )
        if e.energy_cap < e.initial_energy:
            out.append(
                Violation(
                    "CapBelowInitial",
                    (str(e.energy_cap), str(e.initial_energy)),
                    "energy cap must be at least the initial energy",
                )
            )
        return out


class TerminalReason(Enum):
    """Why a trajectory stopped."""

    EXOINACTIVE = "ExoinactiveEnergy"
    STEP_LIMIT = "StepLimit"


class TrajectoryStep(NamedTuple):
    """One step as the agent saw it: perception, generation, choice,
    and where the step left it.

    formula is the perceived formula and sequence the generated acts;
    both are None for elementary kinds, and formula is None on a blind
    spot.
    """

    t: int
    state_before: StateId
    formula: str | None
    sequence: tuple[ActId, ...] | None
    act: ActId
    state_after: StateId
    energy_after: int


@dataclass(frozen=True)
class Trajectory:
    initial_state: StateId
    initial_energy: int
    steps: tuple[TrajectoryStep, ...]
    terminal_reason: TerminalReason

    @property
    def persistence(self) -> int:
        """Number of steps taken before the entity stopped."""
        return len(self.steps)

    @property
    def final_state(self) -> StateId:
        return self.steps[-1].state_after if self.steps else self.initial_state

    @property
    def final_energy(self) -> int:
        return self.steps[-1].energy_after if self.steps else self.initial_energy
