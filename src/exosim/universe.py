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
    """Raised when an operation meets an id or entry the universe lacks."""


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
        try:
            return self.classes[state]
        except KeyError:
            raise UniverseError(
                f"state {state!r} has no standing in universe {self.name!r}"
            ) from None

    def successor(self, state: StateId, act: ActId) -> StateId:
        """Next state under a total deterministic transition table."""
        if state not in self.states:
            raise UnknownState(f"unknown state {state!r} in universe {self.name!r}")
        if act not in self.acts:
            raise UnknownAct(f"unknown act {act!r} in universe {self.name!r}")
        try:
            return self.transitions[(state, act)]
        except KeyError:
            raise UniverseError(
                f"no transition declared for ({state!r}, {act!r}) in universe {self.name!r}"
            ) from None

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
        new_energy = self.settle(energy, self.class_of(nxt))
        return nxt, new_energy, new_energy > 0


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
