"""Trajectory runner and the persistence experiment.

A trajectory steps one agent through its universe until it goes
exoinactive or hits the step bound. ``run_trajectory`` is the only
stepping loop: it records one ``TrajectoryStep`` per step and memoizes
each sensitive choice for the run. The experiment repeats that for
every agent in a document, derives one fresh seed per run from the
master seed, and collects persistence times into a CSV plus per-agent
summaries with rank-sum comparisons of the sensitive group against the
random and positional groups.

Identical inputs reproduce identical output bytes: rows are emitted in
run_id order and every random stream is positioned by its derived seed
alone. The seed reaches nothing but the random stream, so an agent
without one is simulated once per experiment; its row repeats for
every run, each with that run's id and derived seed.
"""

from __future__ import annotations

import csv
import statistics
from dataclasses import dataclass
from pathlib import Path

from .architectures import AgentArchitecture, ArchitectureKind, splitmix64
from .architectures import _choose, _open_episode, _resolve_episode
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

    The agent is cloned first, so repeated calls with the same inputs
    replay the same run regardless of what earlier runs did. Random and
    positional agents read act t off their stream. A sensitive choice
    depends only on the state, afs2b's memory and afs3a's active table
    (read after its pending episode is scored), so each run memoizes the
    choice and its landing under that key. A key's first step goes
    through ``_choose``, ``Universe.successor`` and ``Universe.class_of``,
    so every error is raised at the first step that meets it.
    """
    runner = agent.clone_for_run(seed)
    kind = runner.kind
    elementary = not kind.is_sensitive
    stream = runner.random_fasa if kind is ArchitectureKind.RANDOM else runner.positional_fasa
    recall = kind is ArchitectureKind.AFS2B
    learner = kind is ArchitectureKind.AFS3A
    rmap = runner.representation
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
            _resolve_episode(runner, rmap.formula_for(state) if rmap is not None else None)
            key = (state, runner.active_index)
        elif recall:
            key = (state, runner.memory)
        else:
            key = state
        choice = memo.get(key)
        if choice is None:
            formula = sequence = None
            if not elementary:
                formula, sequence, act = _choose(runner, universe, state)
            nxt = universe.successor(state, act)
            choice = memo[key] = (formula, sequence, act, nxt, universe.class_of(nxt))
        formula, sequence, act, nxt, landed = choice
        if recall:
            # One-step recall: next step routes toward what was just seen.
            runner.memory = formula
        elif learner and sequence:
            _open_episode(runner, formula)
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
