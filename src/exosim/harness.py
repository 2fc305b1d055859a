"""Trajectory runner and the persistence experiment.

A trajectory steps one agent through its universe until it goes
exoinactive or hits the step bound. ``run_trajectory`` is the only
stepping loop: it owns every piece of a run's state and memoizes each
choice for the run, recording a step as a reference to its memo entry
and its energy in a ``Trajectory``, whose ``iter_steps`` is the one
reader of those entries and yields the ``TrajectoryStep`` records. An
afs1, afs2a or afs2b run stops stepping at its first repeat, from where
it survives to the bound. The experiment repeats that for every agent
in a document, derives one fresh seed per run from the master seed, and
returns the persistence times as CSV rows plus per-agent summaries with
rank-sum comparisons of the sensitive group against the random and
positional groups; ``write_csv`` writes the rows, and the CLI calls it.

Identical inputs reproduce identical output bytes: rows are emitted in
run_id order and every random run is positioned by its derived seed
alone. The seed reaches nothing but a random agent's draws, so an
agent of any other kind is simulated once per experiment; its row
repeats for every run, each with that run's id and derived seed. The
experiment takes an already checked document; the CLI loads it.
"""

from __future__ import annotations

import csv
import math
from enum import Enum
from itertools import chain, cycle, islice
from pathlib import Path
from typing import Iterator, NamedTuple, Sequence

from . import architectures
from .architectures import AgentArchitecture, ArchitectureError, ArchitectureKind
from .architectures import ProjectionOutOfRange, splitmix64
from .dsl import SpecDocument
from .stats import rank_sum_test
from .universe import ActId, ExosimError, StateId, Universe


class HarnessError(ExosimError):
    pass


class MissingAgentKind(HarnessError):
    """The experiment needs random, positional, and sensitive agents."""


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


class Trajectory(NamedTuple):
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
    persistence is len(choices). ``iter_steps`` yields the
    ``TrajectoryStep`` records without keeping them.
    """

    initial_state: StateId
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


def derive_seed(master_seed: int, k: int) -> int:
    """Seed for run k: two scrambling rounds keep runs k and k+1 apart."""
    return splitmix64(splitmix64(master_seed) + k)


def run_trajectory(
    universe: Universe,
    agent: AgentArchitecture,
    max_steps: int,
    seed: int | None = None,
) -> Trajectory:
    """Run one agent from the initial state until it goes exoinactive or
    takes max_steps steps; each step records the memo entry of what the
    agent perceived, generated and chose, and its energy after.

    The agent is only read: a random kind draws from ``agent.seed``, a
    positional kind reads ``agent.digits``, and a routed kind looks routes
    up in ``agent.tables[active]``. Seed, when given, replaces a random
    agent's seed, so the same inputs replay the same run. Both elementary
    kinds step through one iterator of indices into the universe's acts
    in sorted order. A random run's comes from
    ``architectures.draw_chunks``, which computes ``unit_draw``'s draws in
    chunks that grow from 4 steps to about a thousand and never pass
    max_steps: a run that dies at step k has had at most max(4, 2k) draws
    computed whatever its bound. A positional run's is one
    ``read(max_steps)`` of its digits, which extends a constant's
    digits as the run reaches them, by a quarter at a time from 64 on and
    never past max_steps: a run that dies within 64 steps computes at most
    64 digits whatever its bound. An explicit list raises
    ``DigitSourceExhausted`` at the step past its end, and
    ``DigitOutOfRange`` at the first step if any digit does not fit its
    base. A run's state is local: afs2b's target (the goal,
    then the formula perceived at the previous step), and afs3a's
    active table index (always 0 for the other kinds), pending episode
    (table index, age) and per-table tallies. An episode opens when the
    active table generates and none is pending, and succeeds if the goal
    is perceived within depth_max steps.

    A sensitive choice depends only on the state, afs2b's target and
    afs3a's active table (read after its pending episode is scored), so
    the run memoizes it and its landing under that key. A key's first
    step perceives the state, reacts (afs1) or looks up the route toward
    the target, projects the generation to one act, and lands through
    ``Universe.successor`` and ``Universe.class_of``, so every error is
    raised at the first step that meets it. Each memo entry is
    (formula, sequence, act, next state, change, ceiling), the last two
    the landing's ``EnergyRules.bill``; elementary kinds memoize the
    landing of each (state, act).

    An afs1, afs2a or afs2b step depends only on its memo key and its
    energy, which stays in 1..energy_cap while a checked document's run
    lives. So the run meets such a pair again within (number of keys) *
    energy_cap steps unless it dies first, and from there repeats the steps since
    the pair's first meeting forever. The loop stops at that repeat and
    returns ``StepLimit`` at persistence max_steps; see ``Trajectory``.
    """
    kind = agent.kind
    elementary = not kind.is_sensitive
    recall = kind is ArchitectureKind.AFS2B
    learner = kind is ArchitectureKind.AFS3A
    if elementary and max_steps > 0:
        # Either kind steps through one stream of act indices: a random
        # run's draws, computed a chunk at a time, or a positional run's
        # digits. draw_chunks is read off the module, so a wrapper of it
        # sees every chunk.
        order = tuple(sorted(universe.acts))
        if kind is ArchitectureKind.RANDOM:
            chunks = architectures.draw_chunks(
                agent.seed if seed is None else seed, len(order), max_steps
            )
            indices = chain.from_iterable(chunks)
        elif agent.digits is None:
            raise ArchitectureError(f"positional agent {agent.name!r} has no digits")
        else:
            indices = agent.digits.read(max_steps)
    rmap, goal, tables, c = agent.representation, agent.goal, agent.tables, agent.projection_index
    if kind.is_sensitive and kind is not ArchitectureKind.AFS1 and not tables and max_steps > 0:
        raise ArchitectureError(f"{kind.value} agent {agent.name!r} has no route table")
    target = goal
    active = 0
    pending: tuple[int, int] | None = None
    attempts = [0] * len(tables)
    successes = [0] * len(tables)
    memo: dict = {}
    # afs1, afs2a and afs2b steps are a function of (memo key, energy).
    seen: dict | None = {} if kind.is_sensitive and not learner else None
    cycle_start = None
    state = universe.initial
    energy = universe.energy.initial_energy
    choices: list[tuple] = []
    energies: list[int] = []
    reason = TerminalReason.STEP_LIMIT
    for t in range(max_steps):
        if elementary:
            act = order[next(indices)]
            key = (state, act)
        elif learner:
            if pending is not None:
                index, age = pending
                formula = rmap.entries.get(state) if rmap is not None else None
                hit = formula is not None and formula == goal
                if hit or age + 1 >= tables[index].depth_max:
                    # Read off the module, so a wrapper of update_learning sees every score.
                    active = architectures.update_learning(attempts, successes, index, hit)
                    pending = None
                else:
                    pending = (index, age + 1)
            key = (state, active)
        elif recall:
            key = (state, target)
        else:
            key = state
        if seen is not None:
            first = seen.setdefault((key, energy), t)
            if first != t:
                # Back where step `first` stood: steps first..t-1 repeat forever.
                cycle_start = first
                break
        choice = memo.get(key)
        if choice is None:
            formula = sequence = None
            if not elementary:
                # Perceive, generate, project. A blind spot (no formula) or
                # a missing entry (no sequence) issues the neutral act.
                formula = rmap.entries.get(state) if rmap is not None else None
                if formula is not None and kind is ArchitectureKind.AFS1:
                    reaction = agent.reaction.get(formula) if agent.reaction else None
                    sequence = None if reaction is None else (reaction,)
                elif formula is not None and target is not None:
                    sequence = tables[active].entries.get((formula, target))
                act = universe.neutral_act
                if sequence:
                    if not 1 <= c <= len(sequence):
                        raise ProjectionOutOfRange(
                            f"projection index {c} is outside generated sequence "
                            f"of length {len(sequence)}"
                        )
                    act = sequence[c - 1]
            nxt = universe.successor(state, act)
            bill = universe.energy.bill(universe.class_of(nxt))
            choice = memo[key] = (formula, sequence, act, nxt, *bill)
        formula, sequence, act, state, change, ceiling = choice
        if recall:
            # One-step recall: next step routes toward what was just seen.
            target = formula
        elif learner and sequence and pending is None:
            pending = (active, 0)
        energy += change
        if energy > ceiling:
            energy = ceiling
        choices.append(choice)
        energies.append(energy)
        if energy <= 0:
            reason = TerminalReason.EXOINACTIVE
            break
    persistence = len(choices) if cycle_start is None else max_steps
    return Trajectory(universe.initial, choices, energies, reason, persistence, cycle_start)


class RunRecord(NamedTuple):
    """One CSV row; the field names are the CSV header."""

    run_id: int
    agent: str
    kind: str
    seed: int
    persistence_steps: int
    terminal_reason: str


CSV_HEADER = RunRecord._fields


class AgentSummary(NamedTuple):
    agent: str
    kind: str
    mean: float
    median: float
    min: int
    max: int


class GroupComparison(NamedTuple):
    """Sensitive group versus one elementary group."""

    against: str
    u_statistic: float
    p_value: float
    sensitive_mean: float
    other_mean: float


class ExperimentResult(NamedTuple):
    rows: tuple[RunRecord, ...]
    summaries: tuple[AgentSummary, ...]
    comparisons: tuple[GroupComparison, ...]


def run_experiment(
    doc: SpecDocument, runs_per_agent: int, max_steps: int, master_seed: int
) -> ExperimentResult:
    """Run every agent of a checked document runs_per_agent times and
    return the rows, summaries and comparisons; write_csv writes the rows."""
    agents: list[tuple[AgentArchitecture, Universe, str]] = []
    for decl in doc.agents:
        universe = doc.build_universe(decl.universe_name)
        agents.append((decl.build(universe), universe, decl.kind.value))
    groups = ["sensitive" if a.kind.is_sensitive else a.kind.value for a, _, _ in agents]
    for required in ("random", "positional", "sensitive"):
        if required not in groups:
            raise MissingAgentKind(
                f"experiment needs at least one {required} agent"
            )
    rows: list[RunRecord] = []
    by_group: dict[str, list[int]] = {"random": [], "positional": [], "sensitive": []}
    summaries: list[AgentSummary] = []
    for agent_index, (agent, universe, kind) in enumerate(agents):
        persistences: list[int] = []
        trajectory: Trajectory | None = None
        for run_index in range(runs_per_agent):
            run_id = agent_index * runs_per_agent + run_index
            seed = derive_seed(master_seed, run_id)
            # The seed reaches only the random draws: any other agent
            # replays its first run under every seed.
            if trajectory is None or agent.kind is ArchitectureKind.RANDOM:
                trajectory = run_trajectory(universe, agent, max_steps, seed)
            rows.append(
                RunRecord(
                    run_id=run_id,
                    agent=agent.name,
                    kind=kind,
                    seed=seed,
                    persistence_steps=trajectory.persistence,
                    terminal_reason=trajectory.terminal_reason.value,
                )
            )
            persistences.append(trajectory.persistence)
        by_group[groups[agent_index]].extend(persistences)
        # What statistics.fmean and statistics.median return, without
        # importing statistics.
        mean = median = 0.0
        if persistences:
            ordered, mid = sorted(persistences), len(persistences) // 2
            mean = math.fsum(ordered) / len(ordered)
            median = ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2
        summaries.append(
            AgentSummary(
                agent=agent.name,
                kind=kind,
                mean=mean,
                median=median,
                min=min(persistences, default=0),
                max=max(persistences, default=0),
            )
        )
    comparisons = []
    for against in ("random", "positional"):
        if by_group["sensitive"] and by_group[against]:
            u, p = rank_sum_test(by_group["sensitive"], by_group[against])
            comparisons.append(
                GroupComparison(
                    against=against,
                    u_statistic=u,
                    p_value=p,
                    sensitive_mean=math.fsum(by_group["sensitive"]) / len(by_group["sensitive"]),
                    other_mean=math.fsum(by_group[against]) / len(by_group[against]),
                )
            )
    return ExperimentResult(tuple(rows), tuple(summaries), tuple(comparisons))


def write_csv(result: ExperimentResult, path: Path | str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        writer.writerows(result.rows)
