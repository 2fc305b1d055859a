"""Finite universes with act-sensitive transitions and an energy budget.

A universe is a finite transition system: a set of states with a
distinguished initial state, a finite act alphabet containing one neutral
act, and a total deterministic transition function on (state, act) pairs.
Every state carries a standing (Positive, Neutral, Negative) and stepping
through the universe is paid for out of an integer energy budget. An
entity whose budget is exhausted can no longer act: it is exoinactive.
``harness`` steps agents through a universe and returns each run's outcome.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Mapping, NamedTuple

StateId = str
ActId = str


class StateClass(Enum):
    POSITIVE = "positive"
    NEUTRAL = "neutral"
    NEGATIVE = "negative"


class ExosimError(Exception):
    """Base of the errors exosim raises on a request its inputs cannot
    satisfy. An invalid document raises dsl.SpecInvalid instead, which
    carries its diagnostics."""


class UniverseError(ExosimError):
    """Raised when an operation meets an id or entry the universe lacks."""


class UnknownState(UniverseError):
    pass


class UnknownAct(UniverseError):
    pass


class EnergyRules(NamedTuple):
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


class Universe(NamedTuple):
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
