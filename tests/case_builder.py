"""Bridge from oracle case dictionaries to library objects.

oracles.random_universe_case speaks plain dicts and strings so the
oracle side stays import-free; tests use this module to materialize the
same case as library values. CountingDict lets a test bound the lookups
a computation makes in a library object's mappings, and stepped collects
a run's steps through its on_step callback.
"""

from __future__ import annotations

from collections import Counter

from exosim import (
    EnergyRules,
    RepresentationMap,
    StateClass,
    TrajectoryStep,
    Universe,
    run_trajectory,
)

_CLASSES = {
    "positive": StateClass.POSITIVE,
    "neutral": StateClass.NEUTRAL,
    "negative": StateClass.NEGATIVE,
}


class CountingDict(dict):
    """A dict that tallies each get call under its name in calls."""

    def __init__(self, entries, calls: Counter, name: str):
        super().__init__(entries)
        self.calls, self.name = calls, name

    def get(self, key, default=None):
        self.calls[self.name] += 1
        return super().get(key, default)


def stepped(universe, agent, max_steps: int, seed: int | None = None):
    """run_trajectory's outcome and the TrajectoryStep of every step it
    took, in step order, as its on_step callback received them."""
    steps: list[TrajectoryStep] = []
    return run_trajectory(universe, agent, max_steps, seed, on_step=steps.append), steps


def build_case(case: dict) -> tuple[Universe, RepresentationMap, dict]:
    universe = Universe(
        name="case",
        states=frozenset(case["states"]),
        acts=frozenset(case["acts"]),
        initial=case["initial"],
        neutral_act=case["neutral_act"],
        transitions=dict(case["transitions"]),
        classes={s: _CLASSES[c] for s, c in case["classes"].items()},
        energy=EnergyRules(5, 1, 0, 0, 10),
    )
    rmap = RepresentationMap(dict(case["rmap"]))
    return universe, rmap, dict(case["table"])
