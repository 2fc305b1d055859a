"""Trajectory runner and the persistence experiment.

A trajectory steps one agent through its universe until it goes
exoinactive or hits the step bound. ``run_trajectory`` is the only
stepping loop: it owns every piece of a run's state, memoizes each
choice in one row per state keyed by the kind's slot, and records a
step as a reference to its memo entry and its energy in a
``Trajectory``, whose ``iter_steps`` is the one reader of those entries
and yields the ``TrajectoryStep`` records. An
afs1, afs2a or afs2b run stops stepping at its first repeat, from where
it survives to the bound. The experiment repeats that, recording no
step, for every agent in a document, derives one fresh seed per run
from the master seed, and returns the persistence times as CSV rows
plus per-agent summaries with rank-sum comparisons of the sensitive
group against the random and positional groups; ``write_csv`` writes
the rows, and the CLI calls it.

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
from itertools import chain, cycle, islice, repeat
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
    the run with the same state and slot; its first four fields are the
    step's formula, sequence, act and state_after. energies[i] is the
    budget after step i. A step's state_before is the previous step's
    state_after, or initial_state.

    A deterministic run that meets a (state, slot, budget) triple again
    stops stepping there, at step len(choices), and survives to the
    step bound: cycle_start is the step where that triple was first
    met, and steps len(choices) to persistence - 1 replay steps
    cycle_start to len(choices) - 1 in turn. Otherwise cycle_start is None and
    persistence is len(choices). ``iter_steps`` yields the
    ``TrajectoryStep`` records without keeping them.

    A run made with record=False keeps no step: choices and energies are
    None, and iter_steps raises HarnessError.
    """

    initial_state: StateId
    choices: Sequence[tuple] | None
    energies: Sequence[int] | None
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
        if choices is None:
            raise HarnessError("the run was made with record=False and kept no steps")
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
    *,
    record: bool = True,
) -> Trajectory:
    """Run one agent from the initial state until it goes exoinactive or
    takes max_steps steps; each step records the memo entry of what the
    agent perceived, generated and chose, and its energy after. With
    record=False no step is recorded, so a run that only needs its
    persistence and terminal reason holds memory that does not grow with its
    length beyond what its kind keeps (afs1, afs2a and afs2b runs still note
    each (state, slot, energy) triple they meet).

    The agent is only read: a random kind draws from ``agent.seed``, a
    positional kind reads ``agent.digits``, and a routed kind looks routes
    up in ``agent.tables[active]``. Seed, when given, replaces a random
    agent's seed, so the same inputs replay the same run. Both elementary
    kinds step through one iterator of indices into the universe's acts in
    sorted order, computed as the run reaches them: a random run's from
    ``architectures.draw_chunks`` (a run that dies at step k has had at most
    max(4, 2k) draws computed whatever its bound), a positional run's from
    one ``read(max_steps)`` of its digits (a run that dies within 64 steps
    computes at most 64 digits). An explicit list raises
    ``DigitSourceExhausted`` at the step past its end, and
    ``DigitOutOfRange`` at the first step if any digit does not fit its
    base. A run's state is local: afs2b's target (the goal, then the formula
    perceived at the previous step), and afs3a's active table index (always
    0 for the other kinds), pending episode and per-table tallies. An
    episode opens when the active table generates and none is pending; it is
    scored as a success at the first step that perceives the goal, or as a
    failure depth_max steps after it opened.

    A step's choice depends only on its state and its slot: the act index
    for the elementary kinds, afs3a's active table (read after its pending
    episode is scored), afs2b's target, and None for afs1 and afs2a. The run
    memoizes each choice and its landing in one row per state, a dict keyed
    by slot, and a step takes the row of the state it lands on, so it builds
    no key. Each memo entry is (formula, sequence, act, next state, change,
    ceiling), the last two the landing's ``EnergyRules.bill``, and refers to
    no row. An entry's first step perceives, generates and projects to one
    act, and lands through ``Universe.successor`` and ``Universe.class_of``,
    so every error is raised at the first step that meets it.

    An afs1, afs2a or afs2b step depends only on its state, slot and energy
    (in 1..energy_cap while a checked document's run lives), so a run that
    lives meets a triple again within energy_cap times its memo entries
    steps and repeats from there forever: the loop stops at that repeat and
    returns ``StepLimit`` at persistence max_steps.
    """
    kind = agent.kind
    elementary = not kind.is_sensitive
    recall = kind is ArchitectureKind.AFS2B
    learner = kind is ArchitectureKind.AFS3A
    slots: Iterator = repeat(None)
    if elementary and max_steps > 0:
        order = tuple(sorted(universe.acts))
        if kind is ArchitectureKind.RANDOM:
            # Read off the module, so a wrapper of draw_chunks sees every chunk.
            seed = agent.seed if seed is None else seed
            slots = chain.from_iterable(architectures.draw_chunks(seed, len(order), max_steps))
        elif agent.digits is None:
            raise ArchitectureError(f"positional agent {agent.name!r} has no digits")
        else:
            slots = agent.digits.read(max_steps)
    rmap, goal, tables, c = agent.representation, agent.goal, agent.tables, agent.projection_index
    if kind.is_sensitive and kind is not ArchitectureKind.AFS1 and not tables and max_steps > 0:
        raise ArchitectureError(f"{kind.value} agent {agent.name!r} has no route table")
    target = goal
    active = 0
    opened = -1  # the step the pending episode opened at, or -1 when none is
    # afs3a perceives its goal on exactly the states the goal formula represents.
    at_goal = rmap.by_formula.get(goal, ()) if rmap is not None and goal is not None else ()
    attempts = [0] * len(tables)
    successes = [0] * len(tables)
    # afs1, afs2a and afs2b steps are a function of (state, slot, energy).
    seen: dict | None = {} if kind.is_sensitive and not learner else None
    cycle_start = None
    state = universe.initial
    row: dict = {}
    rows = {state: row}
    energy = universe.energy.initial_energy
    choices: list[tuple] = []
    energies: list[int] = []
    reason = TerminalReason.STEP_LIMIT
    persistence = max(max_steps, 0)  # unless the agent goes exoinactive first
    for t, slot in zip(range(max_steps), slots):
        if learner:
            if opened >= 0:
                hit = state in at_goal
                if hit or t - opened >= depth:
                    # Read off the module, so a wrapper of update_learning sees every score.
                    active = architectures.update_learning(attempts, successes, index, hit)
                    opened = -1
            slot = active
        elif recall:
            slot = target
        if seen is not None:
            first = seen.setdefault((state, slot, energy), t)
            if first != t:
                # Back where step `first` stood: steps first..t-1 repeat forever.
                cycle_start = first
                break
        try:
            choice = row[slot]
        except KeyError:
            choice = None  # a miss is met below, so its errors do not chain to this one
        if choice is None:
            formula = sequence = None
            if elementary:
                act = order[slot]
            else:
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
            choice = row[slot] = (formula, sequence, act, nxt, *bill)
            rows.setdefault(nxt, {})
        formula, sequence, act, state, change, ceiling = choice
        row = rows[state]
        if recall:
            # One-step recall: next step routes toward what was just seen.
            target = formula
        elif learner and sequence and opened < 0:
            opened, index, depth = t, active, tables[active].depth_max
        energy += change
        if energy > ceiling:
            energy = ceiling
        if record:
            choices.append(choice)
            energies.append(energy)
        if energy <= 0:
            reason = TerminalReason.EXOINACTIVE
            persistence = t + 1
            break
    if not record:
        choices = energies = None
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
                trajectory = run_trajectory(universe, agent, max_steps, seed, record=False)
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
