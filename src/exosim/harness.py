"""Trajectory runner and the persistence experiment.

A trajectory steps one agent through its universe until it goes
exoinactive or hits the step bound. ``run_trajectory`` is the only
stepping loop: it owns every piece of a run's state, records one
``TrajectoryStep`` per step and memoizes each sensitive choice for the
run. The experiment repeats that for every agent in a document, derives
one fresh seed per run from the master seed, and collects persistence
times into a CSV plus per-agent summaries with rank-sum comparisons of
the sensitive group against the random and positional groups.

Identical inputs reproduce identical output bytes: rows are emitted in
run_id order and every random stream is positioned by its derived seed
alone. The seed reaches nothing but the random stream, so an agent
without one is simulated once per experiment; its row repeats for
every run, each with that run's id and derived seed.
"""

from __future__ import annotations

import csv
import statistics
from dataclasses import dataclass, replace
from pathlib import Path

from . import architectures
from .architectures import AgentArchitecture, ArchitectureError, ArchitectureKind
from .architectures import _choose, splitmix64
from .dsl import SpecDocument, load_document
from .stats import rank_sum_test
from .universe import TerminalReason, Trajectory, TrajectoryStep, Universe

CSV_HEADER = ("run_id", "agent", "kind", "seed", "persistence_steps", "terminal_reason")


class HarnessError(Exception):
    pass


class MissingAgentKind(HarnessError):
    """The experiment needs random, positional, and sensitive agents."""


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
    takes max_steps steps; each step records what the agent perceived,
    generated and chose.

    The agent is only read, and seed, when given, replaces its random
    stream's seed, so the same inputs replay the same run. A run's state
    is local: afs2b's target (the goal, then the formula perceived at the
    previous step), and afs3a's active table, pending episode (table
    index, age) and per-table tallies. An episode opens when the active
    table generates and none is pending, and succeeds if the goal is
    perceived within depth_max steps.

    A sensitive choice depends only on the state, afs2b's target and
    afs3a's active table (read after its pending episode is scored), so
    the run memoizes it and its landing under that key. A key's first
    step goes through ``_choose``, ``Universe.successor`` and
    ``Universe.class_of``, so every error is raised at the first step
    that meets it.
    """
    kind = agent.kind
    elementary = not kind.is_sensitive
    recall = kind is ArchitectureKind.AFS2B
    learner = kind is ArchitectureKind.AFS3A
    stream = agent.random_fasa if kind is ArchitectureKind.RANDOM else agent.positional_fasa
    if seed is not None and kind is ArchitectureKind.RANDOM and stream is not None:
        stream = replace(stream, seed=seed)
    rmap, goal, pool = agent.representation, agent.goal, agent.candidate_pool
    if learner and not pool and max_steps > 0:
        raise ArchitectureError(f"agent {agent.name!r} has an empty candidate pool")
    target = goal
    active = 0
    pending: tuple[int, int] | None = None
    attempts = [0] * len(pool)
    successes = [0] * len(pool)
    settle = universe.settle
    memo: dict = {}
    state = universe.initial
    energy = universe.energy.initial_energy
    steps: list[TrajectoryStep] = []
    reason = TerminalReason.STEP_LIMIT
    for t in range(max_steps):
        if elementary:
            act = stream.act_at(t)
            key = (state, act)
        elif learner:
            if pending is not None:
                index, age = pending
                formula = rmap.formula_for(state) if rmap is not None else None
                hit = formula is not None and formula == goal
                if hit or age + 1 >= pool[index].depth_max:
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
        choice = memo.get(key)
        if choice is None:
            formula = sequence = None
            if not elementary:
                table = pool[active] if learner else agent.routes
                formula, sequence, act = _choose(agent, universe, state, table, target)
            nxt = universe.successor(state, act)
            choice = memo[key] = (formula, sequence, act, nxt, universe.class_of(nxt))
        formula, sequence, act, nxt, landed = choice
        if recall:
            # One-step recall: next step routes toward what was just seen.
            target = formula
        elif learner and sequence and pending is None:
            pending = (active, 0)
        energy = settle(energy, landed)
        steps.append(TrajectoryStep(t, state, formula, sequence, act, nxt, energy))
        state = nxt
        if energy <= 0:
            reason = TerminalReason.EXOINACTIVE
            break
    return Trajectory(universe.initial, universe.energy.initial_energy, tuple(steps), reason)


@dataclass(frozen=True)
class ExperimentConfig:
    spec_path: Path
    runs_per_agent: int
    max_steps: int
    master_seed: int
    output_path: Path


@dataclass(frozen=True)
class RunRecord:
    run_id: int
    agent: str
    kind: str
    seed: int
    persistence_steps: int
    terminal_reason: str


@dataclass(frozen=True)
class AgentSummary:
    agent: str
    kind: str
    mean: float
    median: float
    min: int
    max: int


@dataclass(frozen=True)
class GroupComparison:
    """Sensitive group versus one elementary group."""

    against: str
    u_statistic: float
    p_value: float
    sensitive_mean: float
    other_mean: float


@dataclass(frozen=True)
class ExperimentResult:
    rows: tuple[RunRecord, ...]
    summaries: tuple[AgentSummary, ...]
    comparisons: tuple[GroupComparison, ...]


def _group_of(kind: ArchitectureKind) -> str:
    if kind.is_sensitive:
        return "sensitive"
    return kind.value


def run_experiment_from_document(
    doc: SpecDocument, cfg: ExperimentConfig
) -> ExperimentResult:
    agents: list[tuple[AgentArchitecture, Universe, str]] = []
    for decl in doc.agents:
        universe = doc.build_universe(decl.universe_name)
        agents.append((decl.build(universe), universe, decl.kind.value))
    groups_present = {_group_of(a.kind) for a, _, _ in agents}
    for required in ("random", "positional", "sensitive"):
        if required not in groups_present:
            raise MissingAgentKind(
                f"experiment needs at least one {required} agent"
            )
    rows: list[RunRecord] = []
    by_group: dict[str, list[int]] = {"random": [], "positional": [], "sensitive": []}
    summaries: list[AgentSummary] = []
    for agent_index, (agent, universe, kind) in enumerate(agents):
        persistences: list[int] = []
        trajectory: Trajectory | None = None
        for run_index in range(cfg.runs_per_agent):
            run_id = agent_index * cfg.runs_per_agent + run_index
            seed = derive_seed(cfg.master_seed, run_id)
            # The seed reaches only the random stream: any other agent
            # replays its first run under every seed.
            if trajectory is None or agent.random_fasa is not None:
                trajectory = run_trajectory(universe, agent, cfg.max_steps, seed)
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
        by_group[_group_of(agent.kind)].extend(persistences)
        summaries.append(
            AgentSummary(
                agent=agent.name,
                kind=kind,
                mean=statistics.fmean(persistences) if persistences else 0.0,
                median=statistics.median(persistences) if persistences else 0.0,
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
                    sensitive_mean=statistics.fmean(by_group["sensitive"]),
                    other_mean=statistics.fmean(by_group[against]),
                )
            )
    return ExperimentResult(tuple(rows), tuple(summaries), tuple(comparisons))


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Load the document, run every agent, and write the CSV."""
    doc = load_document(cfg.spec_path)
    result = run_experiment_from_document(doc, cfg)
    write_csv(result, cfg.output_path)
    return result


def write_csv(result: ExperimentResult, path: Path | str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for row in result.rows:
            writer.writerow(
                (
                    row.run_id,
                    row.agent,
                    row.kind,
                    row.seed,
                    row.persistence_steps,
                    row.terminal_reason,
                )
            )
