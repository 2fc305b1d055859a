"""Behavior generators and sensitive functional architectures.

Three ways of generating acts:

* random: a seeded pseudo-random draw over the act alphabet,
* positional: replaying the digits of a fixed constant in base |acts|,
* sensitive: reading the current state through a representation map and
  looking the perceived formula up in a prediction table.

The two elementary kinds, random and positional, keep only their seed or
their digits; the act alphabet they index, in sorted order, is the
universe's, which the run is given.

Sensitive generation comes in four architectures, and each looks the
pair (perceived formula, target) up in a route table, a plain mapping
to act sequences; they differ only in the target and in which table is
active. ``afs1`` reacts: its one table maps (formula, None) to one act.
``afs2a`` routes toward a fixed goal formula. ``afs2b`` routes toward a
remembered formula instead, recalling the previous step's perception.
``afs3a`` carries a pool of candidate tables and learns which one to
trust by scoring its predictions against outcomes: ``update_learning``
re-picks the table from per-table tallies of attempts and successes, in
O(|pool|) however long the run.

Every generated sequence is collapsed to a single act by a fixed
projection index (1-based); an empty generation falls back to the
universe's neutral act, which is what makes unrepresented states safe
to encounter but expensive to linger in.
"""

from __future__ import annotations

import sys
from enum import Enum
from typing import Iterator, Mapping, NamedTuple

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

    The reference definition of a random agent's stream: ``draw_chunks``
    computes the same draws many at a time, and the tests check it
    against this one. Addressable by position: the stream never needs to
    be replayed from the start to know its value at step t.
    """
    u = splitmix64((seed + t * _GOLDEN) & _MASK64) / 2**64
    # The top 2**10 outputs round up to 1.0; keep them inside the range.
    return u if u < 1.0 else _BELOW_ONE


# A random run computes its draws in chunks of at most this many steps.
_DRAW_CHUNK_CAP = 1024
# Chunk size -> (ones, lane mask, i * _GOLDEN) with slot i of each in bits
# 128 * i and up, for the power-of-two sizes; each is built once, from
# the one half its size.
_LANE_PACKS: dict[int, tuple[int, int, int]] = {1: (1, _MASK64, 0)}
# Where each slot's high 64-bit word sits, in step order, among a packed
# chunk's bytes read as native words, by the machine's byte order.
_HIGH_WORDS = {"little": slice(1, None, 2), "big": slice(-2, None, -2)}


def _lane_pack(size: int) -> tuple[int, int, int]:
    pack = _LANE_PACKS.get(size)
    if pack is None:
        half = size // 2
        ones, lanes, steps = _lane_pack(half)
        # The upper half's slot i holds (half + i) * _GOLDEN.
        upper = steps + half * _GOLDEN * ones
        shift = 128 * half
        pack = (ones | ones << shift, lanes | lanes << shift, steps | upper << shift)
        _LANE_PACKS[size] = pack
    return pack


def draw_chunks(seed: int, n: int, limit: int) -> Iterator[list[int]]:
    """The act indices int(unit_draw(seed, t) * n) for t in 0..limit-1, in
    chunks: 4 steps, then each chunk as long as all before it, up to
    _DRAW_CHUNK_CAP, and never past limit. A caller that stops after k
    steps has had at most max(4, 2k) computed.

    A chunk runs splitmix64 for all its steps at once over one int that
    holds step t + i in its 128-bit slot i. Each xor-shift is masked back
    to 64 bits a slot, which drops the bits shifted in from the next slot,
    and each multiply is by a 64-bit constant or by n, so a slot's product
    stays below 2**128 and never carries into the next.

    Slot i then holds splitmix64's output v times n, whose high word is
    floor(v * n / 2**64). unit_draw's int(v / 2**64 * n) rounds twice to
    53 bits, which moves v * n / 2**64 by less than n * 2**-51; so when
    every slot's low word lies at least n * 2**16 from a multiple of
    2**64, the high words are the draws. A chunk with a slot that close,
    such as one whose draw unit_draw clamps below 1.0, takes its draws
    from unit_draw itself; a slot lands there once in about 2**47 / n
    steps. n is an act count, so well below 2**47.
    """
    high = _HIGH_WORDS[sys.byteorder]
    margin = n << 16
    t, size = 0, 4
    while t < limit:
        k = min(size, limit - t)
        ones, lanes, steps = _lane_pack(size)
        if k < size:
            low = (1 << 128 * k) - 1
            ones, lanes, steps = ones & low, lanes & low, steps & low
        # Slot i holds step t + i's splitmix64 input plus _GOLDEN.
        z = (((seed + (t + 1) * _GOLDEN) & _MASK64) * ones + steps) & lanes
        z = ((z ^ (z >> 30)) & lanes) * 0xBF58476D1CE4E5B9 & lanes
        z = ((z ^ (z >> 27)) & lanes) * 0x94D049BB133111EB & lanes
        z = ((z ^ (z >> 31)) & lanes) * n
        # Bit 64 of a slot ends up set exactly when its low word lies in
        # [margin, 2**64 - margin).
        shifted = ((z & lanes) + margin * ones) & lanes
        carries = ones << 64
        if (shifted + ((1 << 64) - 2 * margin) * ones) & carries == carries:
            draws = memoryview(z.to_bytes(16 * k, sys.byteorder)).cast("Q")[high].tolist()
        else:
            draws = [int(unit_draw(seed, step) * n) for step in range(t, t + k)]
        yield draws
        t += k
        size = min(t, _DRAW_CHUNK_CAP)


class ArchitectureError(ExosimError):
    pass


class ProjectionOutOfRange(ArchitectureError):
    """The projection index is below 1 or past the end of a generated sequence."""


# (source formula, target formula) -> act sequence. A missing entry means
# the table generates nothing for that pair. afs1's one table keys each
# formula it reacts to with target None.
RouteTable = Mapping[tuple[Formula, Formula | None], tuple[ActId, ...]]


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

    A random agent draws from ``seed`` and a positional one reads
    ``digits``; both pick from the universe's acts in sorted order, so
    step t takes sorted(acts)[i] for the draw int(unit_draw(seed, t) *
    len(acts)) or the digit at position t. A sensitive agent looks its
    routes up in ``tables``: afs1, afs2a and afs2b hold exactly one table,
    which may be empty, and afs3a's candidate pool is ``tables`` in
    pool-index order. afs1's table keys each formula with target None,
    its goal. ``depth`` is the declared bound on route length, and an
    afs3a episode lasts at most ``depth`` steps.
    ``dsl.AgentDecl.build`` is the one place that fills these slots by kind.

    A fixed description that no run changes, positional digits
    included: a digit stream is a value, and each read keeps its own
    place. A run's own state (afs2b's remembered formula, afs3a's
    active table, pending episode and tallies) lives in
    ``harness.run_trajectory``, which only reads the agent.
    """

    name: str
    kind: ArchitectureKind
    representation: RepresentationMap | None = None
    projection_index: int = 1
    seed: int = 0
    # A ConstantDigits or ExplicitDigits: anything with read(limit) ->
    # iterator of int. Only a positional agent loads exosim.digits.
    digits: object = None
    tables: tuple[RouteTable, ...] = ()
    goal: Formula | None = None
    depth: int | None = None


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
    for (source_f, goal_f), seq in sorted(table.items()):
        state = rmap.inverse(source_f)
        expected = rmap.inverse(goal_f)
        for token in seq:
            state = universe.successor(state, token)
        if state != expected:
            out.append(OrientedViolation(source_f, goal_f, seq, state, expected))
    return out
