"""Trajectory runner and the persistence experiment.

A trajectory steps one agent through its universe until it goes
exoinactive or hits the step bound. ``run_trajectory`` is the only
stepping loop: it owns every piece of a run's state, memoizes each
choice in one row per state keyed by the kind's slot, and returns only
the run's outcome, a ``Trajectory``. A caller that reads each step
passes an on_step callback, which the loop calls with a
``TrajectoryStep`` as it takes the step; ``exosim trace`` prints it.
Without one, an afs1, afs2a or afs2b run stops at its first lap that
loses no energy; it survives to the bound. The experiment runs that
way for every agent in a document, derives one fresh seed per run
from the master seed, and returns the persistence times as CSV rows
plus per-agent summaries with rank-sum comparisons of the sensitive
group against the random and positional groups; ``write_csv`` writes
the rows, and the CLI calls it. Where no act sequence can starve within
the bound, it writes a run as ``StepLimit`` unstepped, as stepping would
give it, unless the run reads an explicit digit list; ``trace`` steps.

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
import os
from enum import Enum
from itertools import chain, repeat
from typing import Callable, Iterator, NamedTuple

from . import architectures
from .architectures import AgentArchitecture, ArchitectureError, ArchitectureKind
from .architectures import ProjectionOutOfRange, splitmix64
from .dsl import SpecDocument
from .stats import rank_sum_test
from .universe import ActId, ExosimError, StateId, Universe, UniverseError


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
    """A run's outcome. steps counts the steps its loop took: it is
    persistence unless an afs1, afs2a or afs2b run made with no on_step
    stopped at step steps, in the (state, slot) of step cycle_start with
    no less energy; steps cycle_start to steps - 1 then repeat up to the
    bound, never with less energy. Otherwise cycle_start is None."""

    terminal_reason: TerminalReason
    persistence: int
    steps: int
    cycle_start: int | None


def derive_seed(master_seed: int, k: int) -> int:
    """Seed for run k: two scrambling rounds keep runs k and k+1 apart."""
    return splitmix64(splitmix64(master_seed) + k)


def run_trajectory(
    universe: Universe,
    agent: AgentArchitecture,
    max_steps: int,
    seed: int | None = None,
    *,
    on_step: Callable[[TrajectoryStep], object] | None = None,
) -> Trajectory:
    """Run one agent from the initial state until it goes exoinactive or
    takes max_steps steps, and return the outcome. on_step, when given, is
    called with each step's ``TrajectoryStep`` as the step is taken; the
    run keeps no step, so its memory does not grow with its length beyond
    what its kind keeps.

    The agent is only read: a random kind draws from ``agent.seed``, a
    positional kind reads ``agent.digits``, and a sensitive kind looks
    (perceived formula, target) up in ``agent.tables[active]``. Seed, when given, replaces a random
    agent's seed, so the same inputs replay the same run. Both elementary
    kinds step through one iterator of indices into the universe's acts in
    sorted order, computed as the run reaches them: a random run's from
    ``architectures.draw_chunks`` (a run that dies at step k has had at most
    max(4, 2k) draws computed whatever its bound), a positional run's from
    one ``read(max_steps)`` of its digits (a run that dies within 64 steps
    computes at most 64 digits). An explicit list raises
    ``DigitSourceExhausted`` at the step past its end, and
    ``DigitOutOfRange`` at the first step if any digit does not fit its
    base. A run's state is local: the target (the goal, which is None for
    afs1, then for afs2b the formula perceived at the previous step), and
    afs3a's active table index (always 0 for the other kinds), pending
    episode and per-table tallies. An episode opens when the active table
    generates and none is pending; it is scored as a success at the first
    step that perceives the goal, or as a failure ``agent.depth`` steps
    after it opened. A sensitive agent with no table, or an afs3a agent
    with no depth, raises ``ArchitectureError`` before its first step.

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

    An afs1, afs2a or afs2b choice depends only on its state and slot, and
    a step's energy, min(e + change, ceiling), is monotone in the energy e
    before it, so a lap back to the (state, slot) it started from with no
    less energy never dies. With no on_step the run keeps the last step and
    energy of each (state, slot) it meets, stops at the first such lap and
    returns ``StepLimit`` at persistence max_steps; a lap that loses energy
    steps on. With on_step it takes every step.
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
    depth = agent.depth
    if kind.is_sensitive and not tables and max_steps > 0:
        raise ArchitectureError(f"{kind.value} agent {agent.name!r} has no route table")
    if learner and depth is None and max_steps > 0:
        raise ArchitectureError(f"afs3a agent {agent.name!r} has no depth")
    target = goal
    active = 0
    opened = -1  # the step the pending episode opened at, or -1 when none is
    # afs3a perceives its goal on exactly the states the goal formula represents.
    at_goal = rmap.by_formula.get(goal, ()) if rmap is not None and goal is not None else ()
    attempts = [0] * len(tables)
    successes = [0] * len(tables)
    # afs1, afs2a and afs2b choices are a function of (state, slot).
    seen: dict | None = {} if kind.is_sensitive and not learner and on_step is None else None
    cycle_start = None
    state = universe.initial
    row: dict = {}
    rows = {state: row}
    energy = universe.energy.initial_energy
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
            last = seen.get(key := (state, slot))
            if last is not None and energy >= last[1]:
                # Steps last[0]..t-1 repeat forever, each with no less energy.
                cycle_start = last[0]
                break
            seen[key] = t, energy
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
                if formula is not None:
                    sequence = tables[active].get((formula, target))
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
        if on_step is not None:
            on_step(TrajectoryStep(t, state, *choice[:4], min(energy + choice[4], choice[5])))
        formula, sequence, act, state, change, ceiling = choice
        row = rows[state]
        if recall:
            # One-step recall: next step routes toward what was just seen.
            target = formula
        elif learner and sequence and opened < 0:
            opened, index = t, active
        energy += change
        if energy > ceiling:
            energy = ceiling
        if energy <= 0:
            reason = TerminalReason.EXOINACTIVE
            persistence = t + 1
            break
    return Trajectory(reason, persistence, persistence if cycle_start is None else t, cycle_start)


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


def starves_within(universe: Universe, max_steps: int) -> bool:
    """Whether some act sequence from the initial state may take the energy
    to 0 within max_steps steps. A step's energy is monotone in the energy
    before it, so the search keeps each state's least energy, and each
    round steps every act from the states whose least energy fell in the
    last. A landing at or below 0 gives True; a fixed point, or max_steps
    rounds, gives False. Unless some reachable lap loses energy, every least
    energy is met within 2·|states| steps, so energy still falling after
    that many rounds gives True: a death lies ahead, and the runs step to
    it. So does a universe that is not total, and the runs meet its error."""
    least = {universe.initial: universe.energy.initial_energy}
    lowered = dict(least)
    rounds = min(max_steps, 2 * len(universe.states))
    try:
        for _ in range(rounds):
            frontier, lowered = lowered, {}
            for state, energy in frontier.items():
                for act in universe.acts:
                    nxt, landed, alive = universe.advance(state, act, energy)
                    if not alive:
                        return True
                    if landed < least.get(nxt, math.inf):
                        least[nxt] = lowered[nxt] = landed
            if not lowered:
                return False
    except UniverseError:
        return True
    return rounds < max_steps


def run_experiment(
    doc: SpecDocument, runs_per_agent: int, max_steps: int, master_seed: int
) -> ExperimentResult:
    """Run every agent of a checked document runs_per_agent times and
    return the rows, summaries and comparisons; write_csv writes the rows.
    The document's kinds are checked before anything is built; then each
    agent is built where its runs are made. Each universe is built and
    searched once: where no act sequence can starve within max_steps
    (``starves_within``), its runs are written as ``StepLimit`` unstepped,
    except an explicit digit list's, which still raises past its end. The
    rows and their bytes are what stepping gives; ``trace`` steps every
    step."""
    groups = ["sensitive" if d.kind.is_sensitive else d.kind.value for d in doc.agents]
    for required in ("random", "positional", "sensitive"):
        if required not in groups:
            raise MissingAgentKind(f"experiment needs at least one {required} agent")
    rows: list[RunRecord] = []
    by_group: dict[str, list[int]] = {"random": [], "positional": [], "sensitive": []}
    summaries: list[AgentSummary] = []
    universes: dict[str, tuple[Universe, bool]] = {}
    outlived = Trajectory(TerminalReason.STEP_LIMIT, max(max_steps, 0), 0, None)
    for agent_index, decl in enumerate(doc.agents):
        if decl.universe_name not in universes:
            universe = doc.build_universe(decl.universe_name)
            universes[decl.universe_name] = universe, not starves_within(universe, max_steps)
        universe, safe = universes[decl.universe_name]
        safe = safe and not (decl.constant is not None and decl.constant[0] == "digits")
        agent, kind = decl.build(universe), decl.kind.value
        persistences: list[int] = []
        trajectory = outlived if safe else None
        for run_index in range(runs_per_agent):
            run_id = agent_index * runs_per_agent + run_index
            seed = derive_seed(master_seed, run_id)
            # The seed reaches only the random draws: any other agent
            # replays its first run under every seed.
            if trajectory is None or (agent.kind is ArchitectureKind.RANDOM and not safe):
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


def write_csv(result: ExperimentResult, path: str | os.PathLike[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        writer.writerows(result.rows)
