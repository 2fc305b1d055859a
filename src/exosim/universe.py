"""Finite universes with act-sensitive transitions and an energy budget.

A universe is a finite transition system: a set of states with a
distinguished initial state, a finite act alphabet containing one neutral
act, and a total deterministic transition function on (state, act) pairs.
Every state carries a standing (Positive, Neutral, Negative) and stepping
through the universe is paid for out of an integer energy budget. An
entity whose budget is exhausted can no longer act: it is exoinactive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import chain, cycle, islice
from typing import Iterator, Mapping, NamedTuple, Sequence

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

    def bill(self, landed: StateClass) -> tuple[int, int | float]:
        """One step that lands on a state of class landed, as (change,
        ceiling): the budget after it is min(budget + change, ceiling).

        The step costs per_step_cost; landing on a Negative state costs
        negative_penalty more, landing on a Positive state refunds
        positive_reward (clamped at energy_cap). Only a Positive landing
        has a finite ceiling.
        """
        if landed is StateClass.NEGATIVE:
            return -self.per_step_cost - self.negative_penalty, math.inf
        if landed is StateClass.POSITIVE:
            return self.positive_reward - self.per_step_cost, self.energy_cap
        return -self.per_step_cost, math.inf


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

    def advance(self, state: StateId, act: ActId, energy: int) -> tuple[StateId, int, bool]:
        """Take one step and settle its energy bill (``EnergyRules.bill``).

        Returns the successor state, the new budget, and whether the
        entity is still exoactive (budget strictly positive).
        """
        nxt = self.successor(state, act)
        change, ceiling = self.energy.bill(self.class_of(nxt))
        new_energy = min(energy + change, ceiling)
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
    """A run as its loop recorded it: one choice and one budget per step
    taken.

    choices[i] is the memo entry step i used, shared by every step of
    the run with the same memo key; its first four slots are the step's
    formula, sequence, act and state_after. energies[i] is the budget
    after step i. A step's state_before is the previous step's
    state_after, or initial_state.

    A deterministic run that meets a (memo key, budget) pair again stops
    stepping there, at step len(choices), and survives to the step
    bound: cycle_start is the step where that pair was first met, and
    steps len(choices) to persistence - 1 replay steps cycle_start to
    len(choices) - 1 in turn. Otherwise cycle_start is None and
    persistence is len(choices). ``steps`` builds the ``TrajectoryStep``
    tuple on first read; ``iter_steps`` yields the same records without
    keeping them.
    """

    initial_state: StateId
    initial_energy: int
    choices: Sequence[tuple]
    energies: Sequence[int]
    terminal_reason: TerminalReason
    persistence: int
    cycle_start: int | None

    def _order(self) -> Iterator[int]:
        """The index into choices of each step, in step order."""
        stepped = range(len(self.choices))
        if self.cycle_start is None:
            return iter(stepped)
        replayed = cycle(range(self.cycle_start, len(self.choices)))
        return chain(stepped, islice(replayed, self.persistence - len(self.choices)))

    def iter_steps(self) -> Iterator[TrajectoryStep]:
        state, choices, energies = self.initial_state, self.choices, self.energies
        for t, i in enumerate(self._order()):
            formula, sequence, act, after = choices[i][:4]
            yield TrajectoryStep(t, state, formula, sequence, act, after, energies[i])
            state = after

    @cached_property
    def steps(self) -> tuple[TrajectoryStep, ...]:
        return tuple(self.iter_steps())

    def _last(self) -> int:
        """The index into choices of the last step."""
        stepped, last = len(self.choices), self.persistence - 1
        if last < stepped:
            return last
        return self.cycle_start + (last - stepped) % (stepped - self.cycle_start)

    @property
    def final_state(self) -> StateId:
        return self.choices[self._last()][3] if self.persistence else self.initial_state

    @property
    def final_energy(self) -> int:
        return self.energies[self._last()] if self.persistence else self.initial_energy
