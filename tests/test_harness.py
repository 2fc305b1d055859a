from __future__ import annotations

import copy
import hashlib
import itertools
import os
import runpy
import tracemalloc
from collections import Counter

import pytest

import exosim.digits
import exosim.harness
from exosim import (
    AgentArchitecture,
    ArchitectureKind,
    CSV_HEADER,
    ConstantDigits,
    DigitSourceExhausted,
    EnergyRules,
    ExperimentResult,
    ExplicitDigits,
    MissingAgentKind,
    ProjectionOutOfRange,
    RepresentationMap,
    RunRecord,
    SpecDocument,
    StateClass,
    TerminalReason,
    TrajectoryStep,
    UnknownAct,
    UnknownState,
    Universe,
    UniverseError,
    derive_seed,
    load_document,
    parse,
    run_experiment,
    run_trajectory,
    unit_draw,
    write_csv,
)
from exosim.harness import starves_within

import docgen
import oracles
from case_builder import CountingDict, stepped
from test_universe import tiny_universe
from test_architectures import DRAW_ALPHABETS, DRAW_LIMITS, DRAW_SEEDS
from test_architectures import GOOD_ROUTES, RMAP3, SIT_ROUTES, learner, micro3, wheel
from test_cli import SIX_KINDS
from test_dsl import PATH_TYPES


def drifter(seed=1) -> AgentArchitecture:
    return AgentArchitecture(name="drifter", kind=ArchitectureKind.RANDOM, seed=seed)


class TestRunTrajectory:
    def test_neutral_world_runs_out_of_energy_linearly(self):
        u = tiny_universe(energy=EnergyRules(5, 1, 0, 0, 10))
        trajectory, steps = stepped(u, drifter(), max_steps=100)
        assert trajectory.persistence == 5
        assert trajectory.terminal_reason is TerminalReason.EXOINACTIVE
        assert [s.energy_after for s in steps] == [4, 3, 2, 1, 0]

    def test_step_limit_reached(self, pathfinder_pair):
        agent, universe = pathfinder_pair
        trajectory, steps = stepped(universe, agent, max_steps=40)
        assert trajectory.persistence == 40
        assert trajectory.terminal_reason is TerminalReason.STEP_LIMIT
        assert steps[0] == TrajectoryStep(
            0, "c0", "at_c0", ("move",) * 5, "move", "c1", 11
        )

    def test_zero_steps(self, pathfinder_pair):
        agent, universe = pathfinder_pair
        trajectory, steps = stepped(universe, agent, max_steps=0)
        assert trajectory.persistence == 0
        assert trajectory.terminal_reason is TerminalReason.STEP_LIMIT
        assert steps == []

    def test_trajectory_bookkeeping_consistent(self, pathfinder_pair):
        agent, universe = pathfinder_pair
        trajectory, steps = stepped(universe, agent, max_steps=17)
        assert trajectory.persistence == len(steps)
        for before, after in zip(steps, steps[1:]):
            assert after.state_before == before.state_after
            assert after.t == before.t + 1

    def test_trace_records_align_with_steps(self, pathfinder_pair):
        agent, universe = pathfinder_pair
        _, steps = stepped(universe, agent, max_steps=10)
        assert len(steps) == 10
        for record in steps:
            # pathfinder always generates, so every act is the projection.
            assert record.act == record.sequence[agent.projection_index - 1]
            assert record.formula == agent.representation.entries.get(record.state_before)
        assert steps[0].formula == "at_c0"
        assert steps[0].sequence == ("move",) * 5

    def test_runs_are_deterministic(self, pathfinder_pair):
        agent, universe = pathfinder_pair
        a = run_trajectory(universe, agent, max_steps=25)
        b = run_trajectory(universe, agent, max_steps=25)
        assert a == b

    def test_seed_override_steers_random_agent(self):
        u = tiny_universe(energy=EnergyRules(30, 1, 0, 0, 30))
        same1 = stepped(u, drifter(), 20, seed=8)[1]
        same2 = stepped(u, drifter(), 20, seed=8)[1]
        other = stepped(u, drifter(), 20, seed=9)[1]
        assert same1 == same2
        acts = lambda traces: [r.act for r in traces]
        assert acts(same1) != acts(other)

    def test_agent_state_survives_runs_untouched(self, reference_doc, ejemplo5_doc):
        # A run keeps its state to itself: every agent reads the same
        # after a run as before it, and none can be changed.
        for doc in (reference_doc, ejemplo5_doc, parse(SIX_KINDS).document):
            for decl in doc.agents:
                agent, universe = doc.build_agent(decl.name)
                before = copy.deepcopy(agent)
                run_trajectory(universe, agent, 300, seed=5)
                assert agent == before, agent.name
                with pytest.raises(AttributeError):
                    agent.goal = "elsewhere"

    def test_each_kind_fills_only_its_slots(self, reference_doc, ejemplo5_doc):
        # A built agent holds exactly the act source its kind reads: a
        # seed, digits, one table (afs1's reactions keyed (formula, None),
        # or afs2a's or afs2b's routes, possibly none), or one table per
        # pool index in index order (afs3a); a sensitive one also holds
        # its declared depth.
        docs = [reference_doc, ejemplo5_doc, parse(SIX_KINDS).document]
        docs += [parse(docgen.random_document_text(s)).document for s in range(50)]
        seen = set()
        for doc in docs:
            for decl in doc.agents:
                agent, _ = doc.build_agent(decl.name)
                kind = agent.kind
                seen.add(kind)
                assert agent.seed == (decl.seed if kind is ArchitectureKind.RANDOM else 0)
                assert (agent.digits is not None) is (kind is ArchitectureKind.POSITIONAL)
                assert agent.depth == decl.depth
                if not kind.is_sensitive:
                    assert agent.tables == () and agent.depth is None
                    continue
                if kind is ArchitectureKind.AFS1:
                    assert agent.tables == ({(f, None): (a,) for f, a in decl.react_rows},)
                    assert decl.route_rows == () and agent.depth is None
                    continue
                assert agent.depth >= 1
                count = len({row[0] for row in decl.route_rows})
                expected = [{} for _ in range(max(count, 1))]
                for index, source, goal, seq in decl.route_rows:
                    expected[index][source, goal] = seq
                assert list(agent.tables) == expected
                if kind is not ArchitectureKind.AFS3A:
                    assert len(agent.tables) == 1
        assert seen == set(ArchitectureKind)

    def test_learning_happens_inside_the_run(self):
        # Same scenario driven through the harness: the routes fire, so
        # the trace shows goal-directed movement from the first step.
        _, traces = stepped(micro3(), learner([GOOD_ROUTES], 3), 4)
        assert [r.act for r in traces] == ["go", "go", "go", "go"]
        assert traces[2].formula == "rg"


class TestGeneratedDocuments:
    def test_every_accepted_agent_steps(self):
        # Every agent of a checked document runs; only an explicit digit
        # list, finite by design, may run out.
        for seed in range(300):
            doc = parse(docgen.random_document_text(seed)).document
            for decl in doc.agents:
                agent, universe = doc.build_agent(decl.name)
                try:
                    run_trajectory(universe, agent, 200)
                except DigitSourceExhausted:
                    pass


def assert_matches_reference(universe, agent, max_steps, seed=None, credit=()):
    """run_trajectory agrees with the plain reference stepper step by
    step through its on_step callback, and on why the run ended with and
    without one; returns the reference steps."""
    expected, reason = oracles.reference_trajectory(universe, agent, max_steps, seed, credit)
    if reason == "DigitsExhausted":
        with pytest.raises(DigitSourceExhausted):
            run_trajectory(universe, agent, max_steps, seed)
        max_steps, reason = len(expected), "StepLimit"
    got, steps = stepped(universe, agent, max_steps, seed)
    assert steps == expected, agent.name
    assert got.terminal_reason.value == reason, agent.name
    assert got.persistence == len(expected), agent.name
    assert run_trajectory(universe, agent, max_steps, seed)[:2] == got[:2], agent.name
    return expected


class TestReferenceStepper:
    """run_trajectory memoizes choices within a run; the reference
    stepper in tests/oracles.py perceives and generates afresh at every
    step."""

    def every_agent(self, doc):
        for decl in doc.agents:
            yield doc.build_agent(decl.name)

    @pytest.mark.parametrize("seed", [1, 99])
    def test_fixtures_and_six_kinds(self, reference_doc, ejemplo5_doc, seed):
        for doc in (reference_doc, ejemplo5_doc, parse(SIX_KINDS).document):
            for agent, universe in self.every_agent(doc):
                assert_matches_reference(universe, agent, 400, seed)

    @pytest.mark.parametrize("seed", [1, 99])
    def test_generated_documents(self, seed):
        runs = 0
        for doc_seed in range(300):
            doc = parse(docgen.random_document_text(doc_seed)).document
            for agent, universe in self.every_agent(doc):
                assert_matches_reference(universe, agent, 400, seed)
                runs += 1
        assert runs > 500

    def test_recall_revisits_a_state_with_another_memory(self):
        agent = AgentArchitecture(
            name="recaller",
            kind=ArchitectureKind.AFS2B,
            representation=RepresentationMap({"x0": "r0", "x1": "r1"}),
            tables=({("r0", "rg"): ("go",), ("r1", "r0"): ("sit",), ("r1", "r1"): ("go",)},),
            goal="rg",
        )
        steps = assert_matches_reference(micro3(), agent, 4)
        # x1 is met twice, remembering r0 and then r1, and answers differently.
        at_x1 = [(r[2], r[3]) for r in steps if r[1] == "x1"]
        assert at_x1 == [("r1", ("sit",)), ("r1", ("go",))]

    def test_learner_switches_tables_and_revisits_a_state(self, monkeypatch):
        # An outside scorer credits table 1 at every scored episode, so
        # the first score, at step 3, makes table 1 active mid-run.
        real = exosim.architectures.update_learning

        def credit_table_one(attempts, successes, index, success):
            real(attempts, successes, index, success)
            return real(attempts, successes, 1, True)

        monkeypatch.setattr(exosim.architectures, "update_learning", credit_table_one)
        agent = learner([SIT_ROUTES, GOOD_ROUTES], 2)
        steps = assert_matches_reference(micro3(), agent, 5, credit=[(1, True)])
        # x0 is met under table 0, which sits, and again under table 1.
        at_x0 = [r[3] for r in steps if r[1] == "x0"]
        assert at_x0 == [("sit",), ("sit",), ("go", "go")]

    def test_learner_scores_the_references_episodes(self, reference_doc, ejemplo5_doc, monkeypatch):
        # Each update_learning call is one scored episode, in step order.
        calls: list[tuple[int, bool]] = []
        real = exosim.architectures.update_learning

        def spy(attempts, successes, index, success):
            calls.append((index, success))
            return real(attempts, successes, index, success)

        monkeypatch.setattr(exosim.architectures, "update_learning", spy)
        # GOOD_ROUTES opens an episode at x0 and sees the goal two steps
        # later: at depth 2 that is the episode's last allowed step.
        edge = learner([GOOD_ROUTES, SIT_ROUTES], 2, name="edge")
        runs = [(micro3(), edge)]
        docs = [reference_doc, ejemplo5_doc, parse(SIX_KINDS).document]
        docs += [parse(docgen.random_document_text(seed)).document for seed in range(300)]
        for doc in docs:
            for decl in doc.agents:
                if decl.kind is ArchitectureKind.AFS3A:
                    runs.append(doc.build_agent(decl.name)[::-1])
        depths = set()
        for universe, agent in runs:
            expected: list[tuple[int, bool]] = []
            oracles.reference_trajectory(universe, agent, 3000, scores=expected)
            calls.clear()
            run_trajectory(universe, agent, 3000)
            assert calls == expected, agent.name
            depths.add(agent.depth)
        assert {1, 2, 3, 4} <= depths
        edge_scores: list[tuple[int, bool]] = []
        oracles.reference_trajectory(micro3(), edge, 3, scores=edge_scores)
        assert edge_scores == [(0, True)]


def dial(base: int) -> Universe:
    """Seven states on a dial; act a{j} turns it j + 1 notches. d0 rewards
    two units of energy and d1 and d4 cost one each, so a run's energy
    moves."""
    states = tuple(f"d{i}" for i in range(7))
    acts = tuple(f"a{j}" for j in range(base))
    return Universe(
        name=f"dial{base}",
        states=frozenset(states),
        acts=frozenset(acts),
        initial="d0",
        neutral_act="a0",
        transitions={
            (s, a): states[(i + j + 1) % 7]
            for i, s in enumerate(states)
            for j, a in enumerate(acts)
        },
        classes={
            s: StateClass.POSITIVE if s == "d0"
            else StateClass.NEGATIVE if s in ("d1", "d4") else StateClass.NEUTRAL
            for s in states
        },
        energy=EnergyRules(60, 0, 1, 2, 60),
    )


def dial_agent(digits) -> AgentArchitecture:
    return AgentArchitecture(name="dialer", kind=ArchitectureKind.POSITIONAL, digits=digits)


class TestPositionalRead:
    """A positional run takes its acts from one read of its digit stream,
    bounded by the run's max_steps and extended in chunks; the reference
    stepper indexes a certified digit list."""

    @pytest.mark.parametrize("max_steps", [1, 63, 64, 65, 129, 1000])
    @pytest.mark.parametrize("base", [2, 3, 4, 10])
    @pytest.mark.parametrize("name", ["pi", "e"])
    def test_constant_streams(self, name, base, max_steps):
        agent = dial_agent(ConstantDigits(name, base))
        steps = assert_matches_reference(dial(base), agent, max_steps)
        assert len(steps) == max_steps
        assert len({r[6] for r in steps}) > 1 or max_steps == 1

    @pytest.mark.parametrize("length", [0, 1, 63, 64, 65, 129])
    def test_explicit_list_runs_out_at_its_length(self, length):
        want = oracles.certified_constant_digits("pi", 3, length)
        agent = dial_agent(ExplicitDigits(tuple(want), 3))
        universe = dial(3)
        _, steps = stepped(universe, agent, length)
        assert [r.act for r in steps] == [f"a{d}" for d in want]
        with pytest.raises(DigitSourceExhausted):
            run_trajectory(universe, agent, length + 1)
        assert_matches_reference(universe, agent, length + 65)

    @pytest.mark.parametrize("energy", [30, 300])
    def test_a_run_that_dies_computes_what_digit_would(self, monkeypatch, energy):
        # A billion-step bound computes nothing up front: a run that dies
        # extends its stream to 64 digits, then a quarter past each end, up
        # to its last step, so one that dies within its first 64 steps
        # reads one chunk.
        counts = []
        real = exosim.digits.constant_digits

        def counted(*args):
            counts.append(args[2])
            return real(*args)

        monkeypatch.setattr(exosim.digits, "constant_digits", counted)
        universe = dial(4)._replace(energy=EnergyRules(energy, 1, 0, 0, energy))
        got = run_trajectory(universe, dial_agent(ConstantDigits("pi", 4)), 10**9)
        assert (got.persistence, got.terminal_reason) == (energy, TerminalReason.EXOINACTIVE)
        want, end = [64], 64
        while end < energy:
            want.append((end + 1) * 5 // 4 - end)
            end += want[-1]
        assert counts == want
        assert energy > 64 or counts == [64]

    def test_a_run_leaves_its_agent_as_built(self):
        # The stream keeps no digits: once the run is dropped, its 20000
        # digits are freed, and the agent still equals a fresh build.
        doc = parse(LOOP_PIPER).document
        agent, universe = doc.build_agent("piper")
        run_trajectory(universe, doc.build_agent("piper")[0], 100)  # loads what a run loads
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            persistence = run_trajectory(universe, agent, 20000).persistence
            retained = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert persistence == 20000
        assert retained < 64 * 1024
        assert agent == doc.build_agent("piper")[0]


# One state that every act keeps, at no energy cost: a positional agent
# lives to any bound.
LOOP_PIPER = """
universe "loop" {
  states: s;
  acts: a b c d;
  initial: s;
  neutral_act: a;
  transition s a s;
  transition s b s;
  transition s c s;
  transition s d s;
  energy { initial: 5; per_step: 0; negative_penalty: 0; positive_reward: 0; cap: 5; }
}
agent "piper" in "loop" {
  architecture: positional;
  constant: pi;
}
""".lstrip()


def wheel_drifter(n: int, seed: int) -> tuple[Universe, AgentArchitecture]:
    # Two-digit names keep the sorted act order the index order.
    order = tuple(f"a{j:02}" for j in range(n))
    agent = AgentArchitecture(name="drifter", kind=ArchitectureKind.RANDOM, seed=seed)
    return wheel(order), agent


class TestRandomDraws:
    """A random run takes its acts from draws computed a chunk at a time;
    the reference stepper calls its own splitmix64 draw at every step."""

    @pytest.mark.parametrize("n", DRAW_ALPHABETS)
    @pytest.mark.parametrize("seed", DRAW_SEEDS)
    def test_matches_the_reference_stepper(self, seed, n):
        universe, agent = wheel_drifter(n, seed)
        for max_steps in DRAW_LIMITS:
            assert len(assert_matches_reference(universe, agent, max_steps)) == max_steps

    @staticmethod
    def count_draws(monkeypatch) -> list[int]:
        """The length of each chunk a run draws from now on."""
        drawn: list[int] = []
        real = exosim.architectures.draw_chunks

        def counted(*args):
            for chunk in real(*args):
                drawn.append(len(chunk))
                yield chunk

        monkeypatch.setattr(exosim.architectures, "draw_chunks", counted)
        return drawn

    @pytest.mark.parametrize("k", [1, 3, 5, 300])
    def test_a_run_that_starves_at_step_k_draws_at_most_twice_k(self, monkeypatch, k):
        # A billion-step bound computes nothing up front.
        drawn = self.count_draws(monkeypatch)
        universe, agent = wheel_drifter(3, 7)
        universe = universe._replace(energy=EnergyRules(k, 1, 0, 0, k))
        got = run_trajectory(universe, agent, 10**9)
        assert (got.persistence, got.terminal_reason) == (k, TerminalReason.EXOINACTIVE)
        assert k <= sum(drawn) <= max(4, 2 * k)

    def test_a_run_of_no_steps_draws_nothing(self, monkeypatch):
        drawn = self.count_draws(monkeypatch)
        assert run_trajectory(*wheel_drifter(3, 7), 0).persistence == 0
        assert drawn == []


DETERMINISTIC = (ArchitectureKind.AFS1, ArchitectureKind.AFS2A, ArchitectureKind.AFS2B)


def deterministic_agents(doc):
    for decl in doc.agents:
        if decl.kind in DETERMINISTIC:
            yield doc.build_agent(decl.name)


def ring(energy, classes=None):
    """Three states x -hop-> y -hop-> z -hop-> x; stay idles."""
    return tiny_universe(classes=classes, energy=energy, states=("x", "y", "z"))


def hopper() -> AgentArchitecture:
    """An afs1 agent that sees one formula everywhere and always hops."""
    return AgentArchitecture(
        name="hopper",
        kind=ArchitectureKind.AFS1,
        representation=RepresentationMap({"x": "f", "y": "f", "z": "f"}),
        tables=({("f", None): ("hop",)},),
    )


def standing(steps, t, agent, universe):
    """The (state, slot) step t starts from and its energy: afs2b's slot
    is the formula perceived at the step before, or its goal."""
    if t == 0:
        state, energy, formula = universe.initial, universe.energy.initial_energy, agent.goal
    else:
        _, _, formula, _, _, state, energy = steps[t - 1]
    return (state, formula if agent.kind is ArchitectureKind.AFS2B else None), energy


def reference_variant(reward, cap, initial=12):
    """pathfinder and its universe from reference.exo with the oasis paying
    reward and the given cap and initial energy: a lap costs 6."""
    with open(exosim.fixture_path("reference.exo"), encoding="utf-8") as handle:
        text = handle.read()
    text = text.replace("initial: 12;", f"initial: {initial};").replace("cap: 24;", f"cap: {cap};")
    text = text.replace("positive_reward: 6;", f"positive_reward: {reward};")
    return parse(text).document.build_agent("pathfinder")


class TestFirstRepeat:
    """An afs1, afs2a or afs2b run stops stepping at its first lap that
    starts in the (state, slot) of the lap before it with no less energy.
    A step's energy is monotone in the energy before it, so such a lap
    never dies, and the run replays it up to the step bound. The
    reference stepper takes every step, so each replayed step is checked
    against a stepped one."""

    @pytest.mark.parametrize("max_steps", [1, 7, 1000, 10**5])
    def test_fixtures(self, reference_doc, ejemplo5_doc, max_steps):
        runs = 0
        for doc in (reference_doc, ejemplo5_doc):
            for agent, universe in deterministic_agents(doc):
                assert_matches_reference(universe, agent, max_steps)
                got = run_trajectory(universe, agent, max_steps)
                if max_steps >= 1000:
                    assert got.cycle_start is not None, agent.name
                    assert got.steps <= len(universe.states) * universe.energy.energy_cap
                runs += 1
        assert runs == 2

    @pytest.mark.parametrize("seed", [1, 99])
    def test_six_kinds_and_generated_documents(self, seed):
        docs = [parse(SIX_KINDS).document]
        docs += [parse(docgen.random_document_text(s)).document for s in range(300)]
        runs = stopped = 0
        for doc in docs:
            for agent, universe in deterministic_agents(doc):
                assert_matches_reference(universe, agent, 3000, seed)
                runs += 1
                stopped += run_trajectory(universe, agent, 3000, seed).cycle_start is not None
        assert runs > 200 and stopped > 50

    def test_energy_repeating_at_another_state_is_no_repeat(self):
        # No step cost: the budget is 5 at every step, and only the
        # return to x at step 3 repeats step 0's (x, 5).
        universe = ring(EnergyRules(5, 0, 0, 0, 10))
        got = run_trajectory(universe, hopper(), 1000)
        assert (got.steps, got.cycle_start, got.persistence) == (3, 0, 1000)
        assert_matches_reference(universe, hopper(), 1000)

    def test_state_repeating_with_another_energy_is_no_repeat(self):
        # x refunds 2 of a lap's 3: each return to x has one less, until
        # the budget runs out at step 11.
        classes = {"x": StateClass.POSITIVE, "y": StateClass.NEUTRAL, "z": StateClass.NEUTRAL}
        universe = ring(EnergyRules(5, 1, 0, 2, 10), classes)
        got = run_trajectory(universe, hopper(), 1000)
        assert (got.steps, got.cycle_start, got.persistence) == (11, None, 11)
        assert got.terminal_reason is TerminalReason.EXOINACTIVE
        assert_matches_reference(universe, hopper(), 1000)

    @pytest.mark.parametrize("reward", [3, 4, 7])
    def test_a_lap_that_falls_then_holds_at_the_cap_stops_at_its_second_lap(self, reward):
        # Entered at neutral x with the cap of 10: the first lap falls to 9
        # at x, but z refunds at least 2 and holds at the cap from then on,
        # so step 5 stands on z with the 10 that step 2 had.
        classes = {"x": StateClass.NEUTRAL, "y": StateClass.NEUTRAL, "z": StateClass.POSITIVE}
        universe = ring(EnergyRules(10, 1, 0, reward, 10), classes)
        got = run_trajectory(universe, hopper(), 1000)
        assert (got.steps, got.cycle_start, got.persistence) == (5, 2, 1000)
        assert_matches_reference(universe, hopper(), 1000)

    @pytest.mark.parametrize(
        "max_steps, tally",
        [(0, (303, 0)), (1, (303, 0)), (7, (303, 88)), (300, (303, 90)), (5000, (303, 90)),
         (20000, (303, 90))],
    )
    def test_every_run_matches_stepping(self, reference_doc, ejemplo5_doc, max_steps, tally):
        # A run that stops stands in the (state, slot) its lap started in
        # with no less energy. It first repeats a (state, slot) after its
        # K keys and stops within a lap of that, so within 2K steps: a lap
        # that loses energy and still lives has met the cap, and the next
        # lap meets it too.
        docs = [reference_doc, ejemplo5_doc, parse(SIX_KINDS).document]
        docs.append(parse(mixed_long_document()).document)
        docs += [parse(docgen.random_document_text(s)).document for s in range(300)]
        runs = stopped = 0
        for doc in docs:
            for agent, universe in deterministic_agents(doc):
                bare = run_trajectory(universe, agent, max_steps)
                plain, steps = stepped(universe, agent, max_steps)
                assert bare[:2] == plain[:2], agent.name
                runs += 1
                if bare.cycle_start is None:
                    assert bare.steps == bare.persistence, agent.name
                    continue
                stopped += 1
                key, energy = standing(steps, bare.steps, agent, universe)
                start_key, start_energy = standing(steps, bare.cycle_start, agent, universe)
                assert key == start_key and energy >= start_energy, agent.name
                keys = {standing(steps, t, agent, universe)[0] for t in range(bare.steps)}
                assert bare.steps <= 2 * len(keys), agent.name
        assert (runs, stopped) == tally

    def test_random_positional_and_learner_runs_take_every_step(self):
        # Their steps hang on the step index or on growing tallies, so a
        # repeated (state, energy) says nothing about what comes next.
        universe = ring(EnergyRules(5, 0, 0, 0, 10))
        counter = AgentArchitecture(
            name="counter", kind=ArchitectureKind.POSITIONAL, digits=ConstantDigits("pi", 2)
        )
        learner_agent, six = parse(SIX_KINDS).document.build_agent("learner")
        for universe, agent in ((universe, drifter()), (universe, counter), (six, learner_agent)):
            got = run_trajectory(universe, agent, 3000, seed=5)
            assert (got.steps, got.cycle_start, got.persistence) == (3000, None, 3000)
            _, steps = stepped(universe, agent, 3000, seed=5)
            assert len({(r.state_after, r.energy_after) for r in steps}) < 3000
            assert_matches_reference(universe, agent, 3000, seed=5)


class TestLongRunBounds:
    def test_pathfinder_survives_a_billion_steps(self, pathfinder_pair):
        agent, universe = pathfinder_pair
        got = run_trajectory(universe, agent, 10**9)
        assert got.persistence == 10**9
        assert got.terminal_reason is TerminalReason.STEP_LIMIT
        assert got.steps <= len(universe.states) * universe.energy.energy_cap
        # The last step is the cycle's step at the same phase, among the
        # steps the run took.
        start = got.cycle_start
        last = start + (10**9 - 1 - start) % (got.steps - start)
        _, steps = stepped(universe, agent, got.steps)
        expected, _ = oracles.reference_trajectory(universe, agent, last + 1)
        assert steps[last][5:] == expected[-1][5:]

    def test_a_lap_that_gains_energy_stops_after_one_lap(self):
        # The oasis pays 7 for a 6-step lap, so each lap gains 1 and no
        # (state, energy) repeats before the cap of 10^12, about 6*10^12
        # steps on. Step 6 stands where step 0 stood with more energy.
        agent, universe = reference_variant(7, 10**12)
        got = run_trajectory(universe, agent, 10**9)
        assert got == (TerminalReason.STEP_LIMIT, 10**9, 6, 0)
        assert_matches_reference(universe, agent, 5000)

    def test_a_run_with_a_callback_retains_no_step(self):
        # The run hands each step to on_step and keeps none: what it leaves
        # allocated does not grow with its 20000 steps.
        universe = ring(EnergyRules(5, 0, 0, 0, 10))
        agent = drifter()
        run_trajectory(universe, agent, 20000)  # fills the module's draw-chunk cache
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            got = run_trajectory(universe, agent, 20000, on_step=lambda step: None)
            retained = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert got.persistence == 20000
        assert retained <= 4096, retained


def mixed_long_document() -> str:
    """The benchmark's seed-1 mixed-long document: a 24-state ring where
    an agent of each kind but afs2a lives long."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "workloads.py")
    return runpy.run_path(path)["mixed_long_document"](1)


def payback() -> Universe:
    """One positive state that pays back each step's cost: a random agent
    lives to any bound."""
    acts = frozenset(("a", "b", "c"))
    return Universe(
        name="payback", states=frozenset({"p"}), acts=acts, initial="p",
        neutral_act="a", transitions={("p", act): "p" for act in acts},
        classes={"p": StateClass.POSITIVE}, energy=EnergyRules(5, 1, 0, 1, 5),
    )


class TestRecordsOff:
    """A run with no on_step callback keeps no step and holds flat memory.
    It stops an afs1, afs2a or afs2b run at its first lap that starts
    with no less energy than the lap before it, a lap that never dies,
    where a run with a callback takes every step, and both end alike."""

    @pytest.mark.parametrize("max_steps", [0, 1, 7, 300, 5000])
    def test_same_outcome_as_the_recording_run(self, reference_doc, ejemplo5_doc, max_steps):
        # Every kind, runs that starve, that hit the bound and that stop
        # at their first lap that loses no energy.
        docs = [reference_doc, ejemplo5_doc, parse(SIX_KINDS).document]
        docs.append(parse(mixed_long_document()).document)
        docs += [parse(docgen.random_document_text(s)).document for s in range(300)]
        ends = set()
        stopped = 0
        for doc in docs:
            for decl in doc.agents:
                agent, universe = doc.build_agent(decl.name)
                for seed in (None, 3):
                    try:
                        bare = run_trajectory(universe, agent, max_steps, seed)
                    except DigitSourceExhausted:
                        with pytest.raises(DigitSourceExhausted):
                            stepped(universe, agent, max_steps, seed)
                        continue
                    plain, steps = stepped(universe, agent, max_steps, seed)
                    assert bare[:2] == plain[:2], decl.name
                    assert (plain.steps, plain.cycle_start) == (len(steps), None), decl.name
                    assert len(steps) == plain.persistence, decl.name
                    ends.add((bare.terminal_reason, bare.cycle_start is None))
                    if agent.kind in DETERMINISTIC:
                        assert bare.steps <= len(universe.states) * universe.energy.energy_cap
                    if bare.cycle_start is None:
                        assert bare.steps == bare.persistence, decl.name
                        continue
                    stopped += 1
                    assert bare.cycle_start < bare.steps < bare.persistence, decl.name
                    key, energy = standing(steps, bare.steps, agent, universe)
                    start_key, start_energy = standing(steps, bare.cycle_start, agent, universe)
                    assert key == start_key and energy >= start_energy, decl.name
        assert len(ends) == 3 or max_steps < 7
        assert stopped > 100 or max_steps < 7

    def test_peak_does_not_grow_with_the_run(self):
        # A random agent that lives to its bound: the peak at 2e6 steps is
        # that at 2e4 give or take the draw chunks, not 17 B a step.
        universe, agent = payback(), drifter(2**64 - 3)
        peaks, outcomes = [], []
        tracemalloc.start()
        try:
            for max_steps in (20000, 2000000):
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                got = run_trajectory(universe, agent, max_steps)
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
                outcomes.append(got.persistence)
                del got
        finally:
            tracemalloc.stop()
        assert outcomes == [20000, 2000000]
        assert peaks[1] - peaks[0] <= 64 * 1024, peaks

    def test_a_falling_lap_steps_to_its_death_in_flat_memory(self):
        # From the cap of 10^5 each 6-step lap loses 1, so the run steps
        # to its death at step 599980, and the run keeps one entry per
        # (state, slot): its peak at a 10^6 bound is its peak at 10^4.
        agent, universe = reference_variant(5, 10**5, 10**5)
        peaks, outcomes = [], []
        tracemalloc.start()
        try:
            for max_steps in (10**4, 10**6):
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                outcomes.append(run_trajectory(universe, agent, max_steps))
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
        assert outcomes == [
            (TerminalReason.STEP_LIMIT, 10**4, 10**4, None),
            (TerminalReason.EXOINACTIVE, 599980, 599980, None),
        ]
        assert abs(peaks[1] - peaks[0]) <= 4096, peaks


def one_route_agent(route, projection=1):
    """An afs2a agent on micro3 that walks x0 -> x1 by (r0, rg) and then
    issues route (r1, rg)."""
    return AgentArchitecture(
        name="router",
        kind=ArchitectureKind.AFS2A,
        representation=RMAP3,
        projection_index=projection,
        tables=({("r0", "rg"): ("go", "go"), ("r1", "rg"): route},),
        goal="rg",
    )


class TestExceptionParity:
    """Library-built models the .exo checker would reject raise at the
    first step that meets the bad entry, and not before."""

    def test_route_token_that_is_no_act(self):
        agent = one_route_agent(("warp",))
        with pytest.raises(UnknownAct, match="unknown act 'warp' in universe"):
            run_trajectory(micro3(), agent, 2)
        assert stepped(micro3(), agent, 1)[1][0].act == "go"

    def test_projection_past_the_route_end(self):
        agent = one_route_agent(("go",), projection=2)
        with pytest.raises(ProjectionOutOfRange):
            run_trajectory(micro3(), agent, 2)
        assert stepped(micro3(), agent, 1)[1][0].act == "go"

    @pytest.mark.parametrize("projection", [0, -1])
    def test_projection_below_one(self, projection):
        # Not an index from the route's end: the first generating step raises.
        agent = one_route_agent(("sit", "go"), projection=projection)
        with pytest.raises(ProjectionOutOfRange, match=f"projection index {projection} "):
            run_trajectory(micro3(), agent, 1)
        assert run_trajectory(micro3(), agent, 0).persistence == 0

    def test_initial_state_outside_the_universe(self):
        outside = micro3()._replace(initial="zz")
        for agent in (drifter(), one_route_agent(("go",))):
            with pytest.raises(UnknownState):
                run_trajectory(outside, agent, 1)
            assert run_trajectory(outside, agent, 0).persistence == 0

    @staticmethod
    def first_b_at(kind, k) -> AgentArchitecture:
        """An elementary agent whose act index is 0 ("a") at steps 0 to
        k - 1 and 1 ("b") at step k."""
        if kind is ArchitectureKind.POSITIONAL:
            digits = ExplicitDigits((0,) * k + (1, 0, 1), 2)
            return AgentArchitecture(name="ticker", kind=kind, digits=digits)
        want = [0] * k + [1]
        seed = next(
            s for s in itertools.count()
            if [int(unit_draw(s, t) * 2) for t in range(k + 1)] == want
        )
        return AgentArchitecture(name="drifter", kind=kind, seed=seed)

    @pytest.mark.parametrize("k", [0, 1, 4, 9])
    @pytest.mark.parametrize("kind", [ArchitectureKind.POSITIONAL, ArchitectureKind.RANDOM])
    def test_elementary_landing_is_checked_when_first_taken(self, kind, k):
        # "w" has no "b" transition. Steps 0 to k - 1 stand on "w" and take
        # "a"; step k is the first to take "b", and it raises whatever the
        # bound past it.
        universe = wheel(("a", "b"))._replace(transitions={("w", "a"): "w"})
        agent = self.first_b_at(kind, k)
        for max_steps in (k + 1, k + 3):
            with pytest.raises(UniverseError, match=r"no transition declared for \('w', 'b'\)"):
                run_trajectory(universe, agent, max_steps)
        got, steps = stepped(universe, agent, k)
        assert (got.persistence, got.terminal_reason) == (k, TerminalReason.STEP_LIMIT)
        assert [step.act for step in steps] == ["a"] * k


class TestCostBound:
    """A sensitive agent generates once per state and slot of a run, not once
    per step (counted, not timed)."""

    @staticmethod
    def counted(agent):
        """agent with its tables (afs1's reactions included) counting their
        lookups, and the Counter they tally in."""
        calls = Counter()
        tables = tuple(CountingDict(table, calls, "routes") for table in agent.tables)
        return agent._replace(tables=tables), calls

    def test_pathfinder_generates_at_most_once_per_state(self, pathfinder_pair):
        agent, universe = pathfinder_pair
        agent, calls = self.counted(agent)
        assert run_trajectory(universe, agent, 5000).persistence == 5000
        assert 0 < calls.total() <= len(universe.states)

    def test_afs2a_repeats_after_many_laps_with_one_lookup_per_state(self):
        # Each lap of the ring x -> y -> z -> x costs 3. Where x refunds 4
        # a lap gains 1, so the run stops after its first lap. Where x
        # refunds 2 a lap loses 1, and the run steps every lap to its
        # death at step 296: a run that looked its route up at every step
        # would make 296 lookups.
        lapper = AgentArchitecture(
            name="lapper",
            kind=ArchitectureKind.AFS2A,
            representation=RepresentationMap({"x": "fx", "y": "fy", "z": "fz"}),
            tables=({(f, "fx"): ("hop",) for f in ("fx", "fy", "fz")},),
            goal="fx",
        )
        classes = {"x": StateClass.POSITIVE, "y": StateClass.NEUTRAL, "z": StateClass.NEUTRAL}
        gains = ring(EnergyRules(3, 1, 0, 4, 50), classes)
        assert run_trajectory(gains, lapper, 5000) == (TerminalReason.STEP_LIMIT, 5000, 3, 0)
        falls = ring(EnergyRules(100, 1, 0, 2, 100), classes)
        agent, calls = self.counted(lapper)
        trajectory = run_trajectory(falls, agent, 5000)
        assert trajectory == (TerminalReason.EXOINACTIVE, 296, 296, None)
        assert 0 < calls.total() <= len(falls.states)

    @pytest.mark.parametrize("name", ["reflex", "homing", "echo", "learner"])
    def test_every_sensitive_kind_is_bounded_by_its_keys(self, name):
        agent, universe = parse(SIX_KINDS).document.build_agent(name)
        agent, calls = self.counted(agent)
        run_trajectory(universe, agent, 5000)
        # afs2b keys on the remembered formula (any formula, the goal or
        # none); afs3a on the active table.
        keys = {
            ArchitectureKind.AFS2B: len(agent.representation.by_formula) + 2,
            ArchitectureKind.AFS3A: len(agent.tables),
        }.get(agent.kind, 1)
        assert 0 < calls.total() <= len(universe.states) * keys


class TestDeriveSeed:
    def test_no_collisions_in_a_long_run(self):
        seeds = {derive_seed(5, k) for k in range(2000)}
        assert len(seeds) == 2000

    def test_range_and_master_sensitivity(self):
        for k in range(50):
            assert 0 <= derive_seed(7, k) < 2**64
        assert derive_seed(7, 0) != derive_seed(8, 0)


ONLY_RANDOM = """\
universe "solo" {
  states: a;
  acts: stay;
  initial: a;
  neutral_act: stay;
  transition a stay a;
  energy { initial: 3; per_step: 1; negative_penalty: 0; positive_reward: 0; cap: 3; }
}
agent "lone" in "solo" { architecture: random; }
"""


class TestExperiment:
    def test_row_layout(self, reference_doc):
        result = run_experiment(reference_doc, 5, 30, 3)
        assert len(result.rows) == 15
        assert [r.run_id for r in result.rows] == list(range(15))
        assert {r.agent for r in result.rows[:5]} == {"wanderer"}
        assert {r.kind for r in result.rows[:5]} == {"random"}
        assert {r.kind for r in result.rows[5:10]} == {"positional"}
        assert {r.kind for r in result.rows[10:]} == {"afs2a"}
        for row in result.rows:
            assert row.seed == derive_seed(3, row.run_id)

    def test_sensitive_agent_outlasts_the_bound(self, reference_doc):
        result = run_experiment(reference_doc, 5, 30, 3)
        pathfinder_rows = [r for r in result.rows if r.agent == "pathfinder"]
        assert all(r.persistence_steps == 30 for r in pathfinder_rows)
        assert all(r.terminal_reason == "StepLimit" for r in pathfinder_rows)

    def test_summaries_and_comparisons(self, reference_doc):
        result = run_experiment(reference_doc, 5, 30, 3)
        assert [s.agent for s in result.summaries] == [
            "wanderer",
            "metronome",
            "pathfinder",
        ]
        by_name = {s.agent: s for s in result.summaries}
        assert by_name["pathfinder"].mean == 30.0
        assert by_name["pathfinder"].min == by_name["pathfinder"].max == 30
        assert by_name["metronome"].mean == 3.0
        assert [c.against for c in result.comparisons] == ["random", "positional"]
        for comparison in result.comparisons:
            assert comparison.sensitive_mean == 30.0
            assert comparison.other_mean < comparison.sensitive_mean

    def test_sensitive_group_required(self):
        doc = parse(ONLY_RANDOM).document
        assert doc is not None
        with pytest.raises(MissingAgentKind) as exc:
            run_experiment(doc, 5, 30, 3)
        assert "positional" in str(exc.value) or "sensitive" in str(exc.value)

    def test_master_seed_only_moves_random_agents(self, reference_doc):
        runs = {}
        for master in (3, 4):
            runs[master] = run_experiment(reference_doc, 5, 30, master)

        def persists(result, name):
            return [r.persistence_steps for r in result.rows if r.agent == name]

        for pinned in ("metronome", "pathfinder"):
            assert persists(runs[3], pinned) == persists(runs[4], pinned)
        seeds3 = [r.seed for r in runs[3].rows]
        seeds4 = [r.seed for r in runs[4].rows]
        assert seeds3 != seeds4

    def test_file_runs_are_byte_identical(self, reference_doc, tmp_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            write_csv(run_experiment(reference_doc, 4, 20, 3), tmp_path / name)
            outs.append((tmp_path / name).read_bytes())
        assert outs[0] == outs[1]
        text = outs[0].decode("utf-8")
        assert text.startswith(",".join(CSV_HEADER) + "\n")
        assert "\r" not in text
        assert text.endswith("\n")
        assert len(text.splitlines()) == 1 + 12


class TestSimulateOnce:
    """An agent without a random stream is simulated once per experiment;
    its rows must equal one plain run_trajectory call per row."""

    def documents(self, reference_doc):
        return {"reference": reference_doc, "six": parse(SIX_KINDS).document}

    @staticmethod
    def plain_rows(doc, runs_per_agent, max_steps, master_seed) -> tuple[RunRecord, ...]:
        rows = []
        for agent_index, decl in enumerate(doc.agents):
            agent, universe = doc.build_agent(decl.name)
            for run_index in range(runs_per_agent):
                run_id = agent_index * runs_per_agent + run_index
                seed = derive_seed(master_seed, run_id)
                trajectory = run_trajectory(universe, agent, max_steps, seed)
                rows.append(
                    RunRecord(
                        run_id,
                        agent.name,
                        decl.kind.value,
                        seed,
                        trajectory.persistence,
                        trajectory.terminal_reason.value,
                    )
                )
        return tuple(rows)

    @pytest.mark.parametrize("master", [1, 3, 5])
    def test_rows_match_a_run_per_row(self, reference_doc, master):
        for name, doc in self.documents(reference_doc).items():
            got = run_experiment(doc, 4, 300, master).rows
            assert got == self.plain_rows(doc, 4, 300, master), name

    def test_only_random_agents_run_per_seed(self, reference_doc, monkeypatch):
        calls: dict[str, int] = {}
        plain = exosim.harness.run_trajectory

        def counting(universe, agent, max_steps, seed=None, *, on_step=None):
            calls[agent.name] = calls.get(agent.name, 0) + 1
            return plain(universe, agent, max_steps, seed, on_step=on_step)

        monkeypatch.setattr(exosim.harness, "run_trajectory", counting)
        runs = 6
        for doc in self.documents(reference_doc).values():
            calls.clear()
            run_experiment(doc, runs, 50, 1)
            expected = {
                decl.name: runs if decl.kind is ArchitectureKind.RANDOM else 1
                for decl in doc.agents
            }
            assert calls == expected

    def test_experiment_records_no_steps(self, reference_doc, monkeypatch):
        made = []
        plain = exosim.harness.run_trajectory

        def spy(*args, **kwargs):
            made.append(kwargs.get("on_step"))
            return plain(*args, **kwargs)

        monkeypatch.setattr(exosim.harness, "run_trajectory", spy)
        run_experiment(reference_doc, 3, 50, 1)
        assert made and all(on_step is None for on_step in made)


def fall_document(k: int, rungs: int) -> str:
    """A positive home whose "stay" pays back its step, and a "drop" onto a
    ladder of neutral rungs, each act going one rung down and the last rung
    to itself: energy k at the cap, so the earliest death is at step k, by
    dropping at once, as jumper does. keeper stays home and lives to any
    bound."""
    ladder = [f"r{i}" for i in range(1, rungs + 1)]
    lines = [
        'universe "fall" {', "  states: home " + " ".join(ladder) + ";", "  acts: drop stay;",
        "  initial: home;", "  neutral_act: stay;", "  classify positive: home;",
        "  classify neutral: " + " ".join(ladder) + ";",
        "  transition home stay home;", "  transition home drop r1;",
    ]
    for here, below in zip(ladder, ladder[1:] + ladder[-1:]):
        lines += [f"  transition {here} stay {below};", f"  transition {here} drop {below};"]
    lines += [
        f"  energy {{ initial: {k}; per_step: 1; negative_penalty: 0; positive_reward: 1;"
        f" cap: {k}; }}",
        "}",
        'agent "faller" in "fall" { architecture: random; seed: 5; }',
        'agent "piper" in "fall" { architecture: positional; constant: pi; }',
    ]
    for name, act in (("keeper", "stay"), ("jumper", "drop")):
        lines += [f'agent "{name}" in "fall" {{ architecture: afs1; represents home -> "home";',
                  f'  represents r1 -> "low"; react "home" : {act}; }}']
    return "\n".join(lines) + "\n"


# One reachable state that costs 1 a step from 10^12 energy at the cap:
# no run starves for 10^12 steps, and each round of the search lowers the
# state's least energy by 1. "den" is unreachable; it gives the sensitive
# agent the second formula a representation needs.
DRAIN = """\
universe "drain" {
  states: s den;
  acts: a b;
  initial: s;
  neutral_act: a;
  classify neutral: s den;
  transition s a s;
  transition s b s;
  transition den a s;
  transition den b s;
  energy {
    initial: 1000000000000; per_step: 1; negative_penalty: 0;
    positive_reward: 0; cap: 1000000000000;
  }
}
agent "drifter" in "drain" { architecture: random; }
agent "piper" in "drain" { architecture: positional; constant: pi; }
agent "euler" in "drain" { architecture: positional; constant: e; }
agent "idler" in "drain" {
  architecture: afs1;
  represents s -> "here";
  represents den -> "there";
  react "here" : b;
}
"""


def padded_document(seed: int) -> SpecDocument:
    """docgen's document for seed, plus a random, a positional and an afs1
    agent in world0, so the experiment has every group it needs."""
    text = docgen.random_document_text(seed)
    first, second = parse(text).document.universe("world0").states[:2]
    text += (
        'agent "pad random" in "world0" { architecture: random; }\n'
        'agent "pad positional" in "world0" { architecture: positional; constant: e; }\n'
        f'agent "pad afs1" in "world0" {{ architecture: afs1; represents {first} -> "p0";'
        f' represents {second} -> "p1"; }}\n'
    )
    return parse(text).document


class TestProvenSurvival:
    """Where no act sequence can starve within max_steps, the experiment
    writes every run but an explicit digit list's as StepLimit without
    stepping it. Its rows must equal one plain run_trajectory call per
    row, and an explicit list must still run out where it did."""

    @staticmethod
    def stepping(monkeypatch) -> list[str]:
        calls: list[str] = []
        plain = exosim.harness.run_trajectory

        def spy(universe, agent, *args, **kwargs):
            calls.append(agent.name)
            return plain(universe, agent, *args, **kwargs)

        monkeypatch.setattr(exosim.harness, "run_trajectory", spy)
        return calls

    @staticmethod
    def plain(doc, runs_per_agent, max_steps, master_seed) -> list:
        """Per agent, its rows from one run_trajectory call per row, or the
        message of the DigitSourceExhausted its run raised."""
        outcomes: list = []
        for agent_index, decl in enumerate(doc.agents):
            agent, universe = doc.build_agent(decl.name)
            rows: list | str = []
            for run_index in range(runs_per_agent):
                run_id = agent_index * runs_per_agent + run_index
                seed = derive_seed(master_seed, run_id)
                try:
                    got = run_trajectory(universe, agent, max_steps, seed)
                except DigitSourceExhausted as exc:
                    rows = str(exc)
                    break
                rows.append(RunRecord(run_id, decl.name, decl.kind.value, seed,
                                      got.persistence, got.terminal_reason.value))
            outcomes.append(rows)
        return outcomes

    @pytest.mark.parametrize(
        "max_steps, tally", [(0, (447, 633, 0)), (1, (391, 567, 0)), (64, (69, 98, 7)),
                             (3000, (69, 98, 7))],
    )
    def test_rows_equal_stepping_on_generated_documents(self, max_steps, tally, monkeypatch):
        # tally: docgen's universes that no act sequence can starve within
        # max_steps, the agents they hold, and the explicit digit lists of
        # those agents that run out.
        calls = self.stepping(monkeypatch)
        safe = safe_agents = exhausted = 0
        for seed in range(300):
            doc = padded_document(seed)
            proven = {u.name for u in doc.universes if not starves_within(u.build(), max_steps)}
            safe += len(proven)
            outcomes = self.plain(doc, 2, max_steps, 1)
            for decl, outcome in zip(doc.agents, outcomes):
                if decl.universe_name in proven and not decl.name.startswith("pad "):
                    safe_agents += 1
                    exhausted += isinstance(outcome, str)
            failed = [o for o in outcomes if isinstance(o, str)]
            if failed:
                # The first list to run out stops the experiment, as it did;
                # without those agents, the rest must match.
                with pytest.raises(DigitSourceExhausted) as exc:
                    run_experiment(doc, 2, max_steps, 1)
                assert str(exc.value) == failed[0], seed
                kept = tuple(d for d, o in zip(doc.agents, outcomes) if not isinstance(o, str))
                doc = SpecDocument(doc.universes, kept)
                outcomes = self.plain(doc, 2, max_steps, 1)
            calls.clear()
            got = run_experiment(doc, 2, max_steps, 1).rows
            assert got == tuple(itertools.chain.from_iterable(outcomes)), seed
            for decl in doc.agents:
                explicit = decl.constant is not None and decl.constant[0] == "digits"
                stepped_here = decl.universe_name not in proven or explicit
                assert (decl.name in calls) is stepped_here, (seed, decl.name)
        assert (safe, safe_agents, exhausted) == tally

    @pytest.mark.parametrize("k, rungs", [(1, 1), (2, 1), (9, 9), (40, 40), (9, 1)])
    def test_rows_at_the_earliest_death_equal_stepping(self, k, rungs, monkeypatch):
        doc = parse(fall_document(k, rungs)).document
        calls = self.stepping(monkeypatch)
        for max_steps in (k - 1, k, k + 1):
            calls.clear()
            got = run_experiment(doc, 3, max_steps, 1).rows
            assert got == TestSimulateOnce.plain_rows(doc, 3, max_steps, 1), max_steps
            # Proven below the earliest death, unless energy still falls
            # after 2·|states| rounds; stepped from the death on.
            proven = max_steps < k and max_steps <= 2 * (rungs + 1)
            assert bool(calls) is not proven, max_steps
            jumper = {(r.persistence_steps, r.terminal_reason) for r in got if r.agent == "jumper"}
            assert jumper == {(k, "ExoinactiveEnergy") if max_steps >= k else (k - 1, "StepLimit")}

    def test_a_drain_of_a_trillion_steps_is_searched_in_bounded_rounds(self, monkeypatch):
        # A search that followed the falling energy would take 10^12
        # rounds, or 10^4 up to the bound, where stepping each run costs
        # 10^4 steps. It stops after 2·|states| rounds, and the runs step.
        edges = []
        successor = Universe.successor

        def counted(universe, state, act):
            edges.append(act)
            return successor(universe, state, act)

        monkeypatch.setattr(Universe, "successor", counted)
        universe = parse(DRAIN).document.build_universe("drain")
        assert starves_within(universe, 10**4) and len(edges) == 2 * 2 * len(universe.acts)
        assert not starves_within(universe, 4)
        monkeypatch.undo()
        doc = parse(DRAIN).document
        result = run_experiment(doc, 3, 10**4, 1)
        assert {(r.persistence_steps, r.terminal_reason) for r in result.rows} == {
            (10**4, "StepLimit")
        }
        assert result.rows == TestSimulateOnce.plain_rows(doc, 3, 10**4, 1)

    def test_a_landing_past_the_cap_is_clamped(self):
        # The first step lands on a positive state whose reward of 9 net is
        # clamped at the cap of 5, so a drop into the drain dies at step 6,
        # not at step 15 as an unclamped budget of 14 would.
        universe = Universe(
            name="clamp", states=frozenset({"gate", "top", "drain"}),
            acts=frozenset({"drop", "stay"}), initial="gate", neutral_act="stay",
            transitions={("gate", "drop"): "top", ("gate", "stay"): "top",
                         ("top", "drop"): "drain", ("top", "stay"): "top",
                         ("drain", "drop"): "drain", ("drain", "stay"): "drain"},
            classes={"gate": StateClass.NEUTRAL, "top": StateClass.POSITIVE,
                     "drain": StateClass.NEUTRAL},
            energy=EnergyRules(5, 1, 0, 10, 5),
        )
        assert not starves_within(universe, 5) and starves_within(universe, 6)
        # Digit 0 is "drop", the first act in sorted order.
        jumper = dial_agent(ExplicitDigits((1, 0, 0, 0, 0, 0), 2))
        assert run_trajectory(universe, jumper, 6)[:2] == (TerminalReason.EXOINACTIVE, 6)

    def test_a_universe_that_is_not_total_is_left_to_the_runs(self):
        # Both states pay back each step, so no act sequence starves; an
        # entry the search cannot read sends the runs to step and meet it.
        payback = {s: StateClass.POSITIVE for s in ("x", "y")}
        whole = tiny_universe(payback, EnergyRules(5, 1, 0, 1, 5))
        assert not starves_within(whole, 100)
        holed = whole._replace(transitions={k: v for k, v in whole.transitions.items()
                                            if k != ("y", "stay")})
        unknown = whole._replace(transitions={**whole.transitions, ("y", "stay"): "z"})
        unranked = whole._replace(classes={"x": StateClass.POSITIVE})
        for universe in (holed, unknown, unranked):
            assert starves_within(universe, 100)
            with pytest.raises(UniverseError):
                run_trajectory(universe, drifter(), 100)


# Every labelled act-sensitive universe of each shape, with the initial
# state fixed and reference.exo's energy rules (12, 1, 4, 6, 24): how many
# no act sequence can ever starve, as the ROADMAP's census tallied them on
# the (state, energy) graph ("a random mover surely lives").
CENSUS = [((2, 2), 24, 108), ((2, 3), 96, 540), ((3, 2), 3862, 18954)]


@pytest.mark.parametrize("shape, safe, total", CENSUS, ids=["2x2", "2x3", "3x2"])
def test_census_of_universes_no_act_sequence_can_starve(shape, safe, total):
    n_states, n_acts = shape
    states = tuple(f"s{i}" for i in range(n_states))
    acts = tuple(f"a{j}" for j in range(n_acts))
    pairs = [(state, act) for state in states for act in acts]
    energy = EnergyRules(12, 1, 4, 6, 24)
    counts = Counter()
    for targets in itertools.product(states, repeat=len(pairs)):
        rows = [targets[i : i + n_acts] for i in range(0, len(targets), n_acts)]
        if all(len(set(row)) == 1 for row in rows):
            continue  # act-insensitive: every act of every state goes alike
        transitions = dict(zip(pairs, targets))
        for classes in itertools.product(StateClass, repeat=n_states):
            universe = Universe("census", frozenset(states), frozenset(acts), states[0],
                                acts[0], transitions, dict(zip(states, classes)), energy)
            # No bound binds: the search ends at a fixed point or a death.
            counts[starves_within(universe, 10**9)] += 1
    assert (counts[False], sum(counts.values())) == (safe, total)


class TestWriteCsv:
    def test_exact_bytes(self, tmp_path):
        result = ExperimentResult(
            rows=(
                RunRecord(0, "a", "random", 5, 3, "ExoinactiveEnergy"),
                RunRecord(1, "b", "afs2a", 6, 9, "StepLimit"),
            ),
            summaries=(),
            comparisons=(),
        )
        path = tmp_path / "tiny.csv"
        write_csv(result, path)
        assert path.read_text(encoding="utf-8") == (
            "run_id,agent,kind,seed,persistence_steps,terminal_reason\n"
            "0,a,random,5,3,ExoinactiveEnergy\n"
            "1,b,afs2a,6,9,StepLimit\n"
        )

    @PATH_TYPES
    def test_any_path_type_names_the_file(self, as_path, tmp_path):
        result = ExperimentResult((RunRecord(0, "a", "random", 5, 3, "StepLimit"),), (), ())
        path = tmp_path / "any.csv"
        write_csv(result, as_path(path))
        assert path.read_text(encoding="utf-8") == (
            "run_id,agent,kind,seed,persistence_steps,terminal_reason\n0,a,random,5,3,StepLimit\n"
        )

    def test_library_run_writes_only_through_write_csv(self, reference_path, tmp_path, monkeypatch):
        # The 100x500 seed-1 anchor, reached without the CLI: the
        # experiment returns its rows and leaves the working directory
        # empty, and write_csv alone writes them.
        monkeypatch.chdir(tmp_path)
        result = run_experiment(load_document(reference_path), 100, 500, 1)
        assert list(tmp_path.iterdir()) == []
        path = tmp_path / "runs.csv"
        write_csv(result, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "65e72fbd46491fafaf4dda8ea189fbd70517ba070ddf791db190003dde458448"
        )
