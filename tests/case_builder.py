"""Bridge from oracle case dictionaries to library objects.

oracles.random_universe_case speaks plain dicts and strings so the
oracle side stays import-free; tests use this module to materialize the
same case as library values. CountingDict lets a test bound the lookups
a computation makes in a library object's mappings.
"""

from __future__ import annotations

from collections import Counter

from exosim import (
    EnergyRules,
    RepresentationMap,
    RouteTable,
    StateClass,
    Universe,
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


def build_case(case: dict) -> tuple[Universe, RepresentationMap, RouteTable]:
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
    table = RouteTable(dict(case["table"]), depth_max=case["depth"])
    return universe, rmap, table
