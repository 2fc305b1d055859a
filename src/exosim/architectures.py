"""Behavior generators and sensitive functional architectures.

Three elementary ways of generating acts:

* random: a seeded pseudo-random draw over the act alphabet,
* positional: replaying the digits of a fixed constant in base |acts|,
* sensitive: reading the current state through a representation map and
  looking the perceived formula up in a prediction table.

Sensitive generation comes in four architectures. ``afs1`` reacts to the
formula directly with one act. ``afs2a`` keeps routes (act sequences)
from a source formula toward a fixed goal formula. ``afs2b`` routes
toward a remembered formula instead, recalling the previous step's
perception. ``afs3a`` carries a pool of candidate route tables and
learns which one to trust by scoring its predictions against outcomes:
``update_learning`` re-picks the table from per-table tallies of
attempts and successes, in O(|pool|) however long the run.

Every generated sequence is collapsed to a single act by a fixed
projection index (1-based); an empty generation falls back to the
universe's neutral act, which is what makes unrepresented states safe
to encounter but expensive to linger in.
"""

from __future__ import annotations

from enum import Enum
from typing import Mapping, NamedTuple

from .representation import Formula, RepresentationMap
from .universe import ActId, ExosimError, StateId, Universe

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_BELOW_ONE = 1.0 - 2.0**-53  # the largest float below 1


def splitmix64(x: int) -> int:
    """One scrambling round of the splitmix64 generator."""
    z = (x + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def unit_draw(seed: int, t: int) -> float:
    """Deterministic draw in [0, 1) for step t of a seeded stream.

    Addressable by position: the stream never needs to be replayed from
    the start to know its value at step t.
    """
    u = splitmix64((seed + t * _GOLDEN) & _MASK64) / 2**64
    # The top 2**10 outputs round up to 1.0; keep them inside the range.
    return u if u < 1.0 else _BELOW_ONE


class ArchitectureError(ExosimError):
    pass


class ProjectionOutOfRange(ArchitectureError):
    """The projection index is below 1 or past the end of a generated sequence."""


class RandomFasa(NamedTuple):
    """Seeded uniform random act generation over a fixed act order: step
    t takes act_order[int(unit_draw(seed, t) * len(act_order))]."""

    seed: int
    act_order: tuple[ActId, ...]


class PositionalFasa(NamedTuple):
    """Acts read off a digit stream in base len(act_order): step t takes
    act_order[d] for the stream's digit d at position t."""

    source: object  # anything with read(limit) -> iterator of int
    act_order: tuple[ActId, ...]


class RouteTable(NamedTuple):
    """(source formula, goal formula) -> act token sequence.

    Sequences are non-empty and no longer than depth_max. A missing
    entry means the table generates nothing for that pair.
    """

    entries: Mapping[tuple[Formula, Formula], tuple[ActId, ...]]
    depth_max: int


class ArchitectureKind(Enum):
    RANDOM = "random"
    POSITIONAL = "positional"
    AFS1 = "afs1"
    AFS2A = "afs2a"
    AFS2B = "afs2b"
    AFS3A = "afs3a"

    @property
    def is_sensitive(self) -> bool:
        return self in (
            ArchitectureKind.AFS1,
            ArchitectureKind.AFS2A,
            ArchitectureKind.AFS2B,
            ArchitectureKind.AFS3A,
        )


class AgentArchitecture(NamedTuple):
    """One agent: an architecture kind plus the act source that kind reads.

    An elementary agent (random, positional) reads its ``stream``. afs1
    reacts through ``reaction``, a plain formula -> act mapping. afs2a and
    afs2b route through exactly one table in ``tables``, which may be
    empty; afs3a's candidate pool is ``tables`` in pool-index order.
    ``dsl.AgentDecl.build`` is the one place that fills these slots by kind.

    A fixed description that no run changes. A run's own state (afs2b's
    remembered formula, afs3a's active table, pending episode and
    tallies) lives in ``harness.run_trajectory``, which only reads the
    agent.
    """

    name: str
    kind: ArchitectureKind
    representation: RepresentationMap | None = None
    projection_index: int = 1
    stream: RandomFasa | PositionalFasa | None = None
    reaction: Mapping[Formula, ActId] | None = None
    tables: tuple[RouteTable, ...] = ()
    goal: Formula | None = None


def update_learning(
    attempts: list[int], successes: list[int], index: int, success: bool
) -> int:
    """Score one prediction of candidate table index; return the index
    of the table to trust next.

    attempts and successes are per-table tallies, bumped in place. The
    pick is the highest success rate so far, ties going to the lowest
    index; it reads only the tallies, so it costs O(|pool|) however long
    the run.
    """
    if not 0 <= index < len(attempts):
        raise ArchitectureError(f"candidate index {index} out of range")
    attempts[index] += 1
    if success:
        successes[index] += 1
    # Compare rates s/a exactly by cross-multiplying; an unattempted
    # table counts as 0/1.
    best = 0
    for i in range(1, len(attempts)):
        if successes[i] * (attempts[best] or 1) > successes[best] * (attempts[i] or 1):
            best = i
    return best


class OrientedViolation(NamedTuple):
    """A route that, replayed from its source state, misses its goal."""

    source_formula: Formula
    goal_formula: Formula
    sequence: tuple[ActId, ...]
    reached: StateId
    expected: StateId


def check_oriented_table(
    table: RouteTable, rmap: RepresentationMap, universe: Universe
) -> list[OrientedViolation]:
    """Replay every route from its source state; report routes that do
    not land on the state its goal formula represents.

    Source and goal formulas must each represent exactly one state.
    """
    out: list[OrientedViolation] = []
    for (source_f, goal_f), seq in sorted(table.entries.items()):
        state = rmap.inverse(source_f)
        expected = rmap.inverse(goal_f)
        for token in seq:
            state = universe.successor(state, token)
        if state != expected:
            out.append(OrientedViolation(source_f, goal_f, seq, state, expected))
    return out
