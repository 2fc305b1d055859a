from __future__ import annotations

import collections
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from exosim import (
    AgentArchitecture,
    ArchitectureError,
    ArchitectureKind,
    ConstantDigits,
    DigitSourceExhausted,
    EnergyRules,
    ExplicitDigits,
    ProjectionOutOfRange,
    RepresentationMap,
    StateClass,
    Universe,
    UnrepresentedFormula,
    check_oriented_table,
    run_trajectory,
    splitmix64,
    unit_draw,
    update_learning,
)

import exosim.architectures
import oracles
from case_builder import stepped


def micro3() -> Universe:
    """Three states on a line: x0 -go-> x1 -go-> gg (absorbing), sit idles."""
    states = ("x0", "x1", "gg")
    transitions = {(s, "sit"): s for s in states}
    transitions[("x0", "go")] = "x1"
    transitions[("x1", "go")] = "gg"
    transitions[("gg", "go")] = "gg"
    return Universe(
        name="micro3",
        states=frozenset(states),
        acts=frozenset(("go", "sit")),
        initial="x0",
        neutral_act="sit",
        transitions=transitions,
        classes={
            "x0": StateClass.NEUTRAL,
            "x1": StateClass.NEUTRAL,
            "gg": StateClass.POSITIVE,
        },
        energy=EnergyRules(50, 1, 0, 0, 100),
    )


RMAP3 = RepresentationMap({"x0": "r0", "x1": "r1", "gg": "rg"})


def run_from(state, agent, steps=1, universe=None):
    """The steps of agent's run through micro3 (or universe) from state."""
    start = (universe or micro3())._replace(initial=state)
    return tuple(stepped(start, agent, steps)[1])


class TestSplitmix:
    def test_known_seed_zero_stream(self):
        # First three outputs of the reference generator seeded with 0.
        assert splitmix64(0) == 0xE220A8397B1DCDAF
        assert unit_draw(0, 1) == 0x6E789E6AA1B965F4 / 2**64
        assert unit_draw(0, 2) == 0x06C45D188009454F / 2**64

    def test_unit_draw_range_and_addressability(self):
        values = [unit_draw(9, t) for t in range(100)]
        assert all(0.0 <= v < 1.0 for v in values)
        # Step 0 of this seed is a splitmix64 output that rounds to 1.0
        # when divided by 2**64; the draw must still stay below 1.
        assert 0.0 <= unit_draw(3558559446808474027, 0) < 1.0
        # Position t can be read without replaying 0..t-1.
        assert unit_draw(9, 73) == values[73]

    def test_seeds_decorrelate(self):
        a = [unit_draw(1, t) for t in range(20)]
        b = [unit_draw(2, t) for t in range(20)]
        assert a != b


CAP = exosim.architectures._DRAW_CHUNK_CAP
# The last seed's step 0 is a splitmix64 output that rounds to 1.0, which
# unit_draw clamps; -12345 is a seed only a library caller can pass.
DRAW_SEEDS = [0, 1, 2**64 - 1, 2**64 + 5, -12345, 3558559446808474027]
DRAW_ALPHABETS = [1, 2, 3, 4, 5, 10, 36]
DRAW_LIMITS = [0, 1, 3, 4, 5, 7, 8, 9, CAP - 1, CAP, CAP + 1, 3 * CAP + 5]


def drawn(seed: int, n: int, limit: int) -> list[int]:
    return [d for chunk in exosim.architectures.draw_chunks(seed, n, limit) for d in chunk]


class TestDrawChunks:
    """draw_chunks computes many of unit_draw's draws at once, one 128-bit
    slot of an int a step; unit_draw is the reference."""

    @pytest.mark.parametrize("n", DRAW_ALPHABETS)
    @pytest.mark.parametrize("seed", DRAW_SEEDS)
    def test_matches_unit_draw(self, seed, n):
        reference = [int(unit_draw(seed, t) * n) for t in range(max(DRAW_LIMITS))]
        for limit in DRAW_LIMITS:
            assert drawn(seed, n, limit) == reference[:limit], limit

    @pytest.mark.parametrize("limit", DRAW_LIMITS)
    def test_chunks_grow_to_the_cap_and_stop_at_the_limit(self, limit):
        sizes = [len(chunk) for chunk in exosim.architectures.draw_chunks(1, 4, limit)]
        assert sum(sizes) == limit
        for i, size in enumerate(sizes):
            before = sum(sizes[:i])
            assert size == min(max(before, 4), CAP, limit - before)

    def test_a_chunk_near_a_boundary_comes_from_unit_draw(self, monkeypatch):
        # Step 0 of this seed is clamped below 1.0, so its chunk, steps 0
        # to 3, is drawn by unit_draw; the next two chunks are not.
        seed = DRAW_SEEDS[-1]
        reference = [int(unit_draw(seed, t) * 5) for t in range(16)]
        called = []

        def spy(seed, t):
            called.append(t)
            return unit_draw(seed, t)

        monkeypatch.setattr(exosim.architectures, "unit_draw", spy)
        assert drawn(seed, 5, 16) == reference
        assert reference[0] == 4
        assert called == [0, 1, 2, 3]

    @pytest.mark.parametrize("order", ["little", "big"])
    def test_high_words_on_either_byte_order(self, order):
        # The bytes of a packed chunk in the given order, read as 64-bit
        # words the way a machine of that order reads them.
        slots = [(i * 0x0123456789ABCDEF + 7, (i + 9) * 0x0FEDCBA987654321) for i in range(5)]
        packed = sum((high << 64 | low) << 128 * i for i, (high, low) in enumerate(slots))
        raw = packed.to_bytes(16 * len(slots), order)
        words = [int.from_bytes(raw[j:j + 8], order) for j in range(0, len(raw), 8)]
        high_words = exosim.architectures._HIGH_WORDS[order]
        assert words[high_words] == [high for high, _ in slots]


def wheel(acts: tuple[str, ...]) -> Universe:
    """One neutral state where every act idles at no cost, so an
    elementary run through it lives to its bound."""
    return Universe(
        name="wheel",
        states=frozenset(("w",)),
        acts=frozenset(acts),
        initial="w",
        neutral_act=acts[0],
        transitions={("w", act): "w" for act in acts},
        classes={"w": StateClass.NEUTRAL},
        energy=EnergyRules(1, 0, 0, 0, 1),
    )


def elementary_acts(acts, steps, **source):
    """The acts of a run of steps steps through the wheel of acts, given
    in sorted order, by a random agent given seed= or a positional one
    given digits=."""
    kind = ArchitectureKind.POSITIONAL if "digits" in source else ArchitectureKind.RANDOM
    agent = AgentArchitecture(name="e", kind=kind, **source)
    return [step.act for step in stepped(wheel(acts), agent, steps)[1]]


class TestRandomActs:
    def test_uniform_draw_formula(self):
        order = ("a", "b", "c", "d")
        assert elementary_acts(order, 50, seed=42) == [
            order[int(unit_draw(42, t) * 4)] for t in range(50)
        ]

    def test_frequencies_within_four_sigma(self):
        order = ("a", "b", "c", "d")
        counts = collections.Counter(elementary_acts(order, 10000, seed=42))
        sigma = (10000 * 0.25 * 0.75) ** 0.5
        for act in order:
            assert abs(counts[act] - 2500) <= 4 * sigma

    def test_reproducible_and_seed_sensitive(self):
        order = ("a", "b")
        run1 = elementary_acts(order, 200, seed=5)
        run2 = elementary_acts(order, 200, seed=5)
        run3 = elementary_acts(order, 200, seed=6)
        assert run1 == run2
        assert run1 != run3

    def test_draws_index_the_universes_acts_in_sorted_order(self):
        # However the universe lists its acts, draw i issues the i-th in
        # sorted order, and the default seed is 0.
        universe = wheel(("d", "b", "a", "c"))
        agent = AgentArchitecture(name="e", kind=ArchitectureKind.RANDOM)
        got = [step.act for step in stepped(universe, agent, 50)[1]]
        assert got == [("a", "b", "c", "d")[int(unit_draw(0, t) * 4)] for t in range(50)]


class TestPositionalActs:
    def test_explicit_zeros_replay_first_act(self):
        source = ExplicitDigits((0, 0, 0), 3)
        assert list(source.read(3)) == [0, 0, 0]
        assert elementary_acts(("a", "b", "c"), 3, digits=source) == ["a", "a", "a"]

    def test_pi_digits_select_acts(self):
        order = tuple(f"a{i}" for i in range(10))
        want = ["a3", "a1", "a4", "a1", "a5", "a9"]
        assert elementary_acts(order, 6, digits=ConstantDigits("pi", 10)) == want
        assert [order[d] for d in ConstantDigits("pi", 10).read(6)] == want

    def test_exhaustion_propagates(self):
        source = ExplicitDigits((1,), 2)
        digits = source.read(2)
        assert next(digits) == 1
        with pytest.raises(DigitSourceExhausted):
            next(digits)
        assert elementary_acts(("a", "b"), 1, digits=source) == ["b"]
        with pytest.raises(DigitSourceExhausted):
            elementary_acts(("a", "b"), 2, digits=source)


class TestKinds:
    def test_sensitivity_split(self):
        sensitive = {k for k in ArchitectureKind if k.is_sensitive}
        assert sensitive == {
            ArchitectureKind.AFS1,
            ArchitectureKind.AFS2A,
            ArchitectureKind.AFS2B,
            ArchitectureKind.AFS3A,
        }

    def test_projection_index_selects_the_act(self):
        agent = AgentArchitecture(
            name="a",
            kind=ArchitectureKind.AFS2A,
            representation=RMAP3,
            projection_index=2,
            tables=({("r0", "rg"): ("sit", "go")},),
            goal="rg",
        )
        assert agent.projection_index == 2
        assert run_from("x0", agent)[0].act == "go"


class TestReactive:
    def agent(self, projection=1):
        return AgentArchitecture(
            name="reactor",
            kind=ArchitectureKind.AFS1,
            representation=RepresentationMap({"x0": "r0", "x1": "r1"}),
            projection_index=projection,
            tables=({("r0", None): ("go",)},),
        )

    def test_reacts_to_known_formula(self):
        trace = run_from("x0", self.agent())[0]
        assert trace.formula == "r0"
        assert trace.sequence == ("go",)
        assert trace.act == "go"

    def test_unlisted_formula_falls_back_to_neutral(self):
        trace = run_from("x1", self.agent())[0]
        assert trace.formula == "r1"
        assert trace.sequence is None
        assert trace.act == "sit"

    def test_blind_spot_falls_back_to_neutral(self):
        # gg has no formula: generation is empty, neutral act covers it.
        trace = run_from("gg", self.agent())[0]
        assert trace.formula is None
        assert trace.act == "sit"

    def test_projection_past_single_act_raises(self):
        with pytest.raises(ProjectionOutOfRange):
            run_from("x0", self.agent(projection=2))


class TestRouted:
    def agent(self, projection=1):
        return AgentArchitecture(
            name="router",
            kind=ArchitectureKind.AFS2A,
            representation=RMAP3,
            projection_index=projection,
            tables=({("r0", "rg"): ("go", "go"), ("r1", "rg"): ("go",)},),
            goal="rg",
        )

    def test_routes_toward_fixed_goal(self):
        trace = run_from("x0", self.agent())[0]
        assert trace.sequence == ("go", "go")
        assert trace.act == "go"

    def test_projection_picks_later_act(self):
        agent = AgentArchitecture(
            name="router",
            kind=ArchitectureKind.AFS2A,
            representation=RMAP3,
            projection_index=2,
            tables=({("r0", "rg"): ("go", "sit")},),
            goal="rg",
        )
        assert run_from("x0", agent)[0].act == "sit"

    def test_missing_route_falls_back(self):
        # rg -> rg is not in the table.
        assert run_from("gg", self.agent())[0].act == "sit"

    def test_full_walk_reaches_goal(self):
        walk = run_from("x0", self.agent(), 2)
        assert [r.state_after for r in walk] == ["x1", "gg"]


class TestRecall:
    """AFS2B routes toward the formula remembered from the previous step."""

    def agent(self):
        return AgentArchitecture(
            name="recaller",
            kind=ArchitectureKind.AFS2B,
            representation=RepresentationMap({"x0": "r0", "x1": "r1"}),
            tables=(
                {
                    ("r0", "rg"): ("go", "go"),
                    ("r1", "r0"): ("sit",),
                    # These two fire only when the memory holds r0 or r1.
                    ("r0", "r0"): ("go",),
                    ("r1", "r1"): ("go",),
                },
            ),
            goal="rg",
        )

    def test_initial_memory_is_goal(self):
        # Step 1 at x0 routes toward the goal: (r0, rg), not (r0, r0).
        assert run_from("x0", self.agent())[0].sequence == ("go", "go")

    def test_memory_tracks_last_perception(self):
        t1, t2, t3 = run_from("x0", self.agent(), 3)
        # Step 1 at x0: memory holds the goal, route (r0, rg) fires.
        assert t1.sequence == ("go", "go")
        # Step 2 at x1: routes toward the remembered r0.
        assert t2.state_before == "x1"
        assert t2.sequence == ("sit",)
        assert t2.act == "sit"
        # Step 3, still at x1: routes toward the remembered r1.
        assert (t3.state_before, t3.sequence) == ("x1", ("go",))

    def test_blind_spot_clears_memory(self):
        # gg idles back to x0, so the walk leaves the blind spot.
        u = micro3()
        u = u._replace(transitions={**u.transitions, ("gg", "sit"): "x0"})
        t1, t2, t3 = run_from("gg", self.agent(), 3, universe=u)
        assert t1.formula is None
        assert t1.act == "sit"
        # With no remembered formula there is nothing to route toward.
        assert t2.state_before == "x0"
        assert t2.sequence is None
        assert t2.act == "sit"
        # Then x0 is remembered: route (r0, r0) fires.
        assert (t3.state_before, t3.sequence) == ("x0", ("go",))


GOOD_ROUTES = {
    ("r0", "rg"): ("go", "go"),
    ("r1", "rg"): ("go",),
    ("rg", "rg"): ("go", "go", "go"),
}
SIT_ROUTES = {("r0", "rg"): ("sit",), ("r1", "rg"): ("go",), ("rg", "rg"): ("go",)}


def learner(pool, depth, name="learner"):
    """An afs3a agent on micro3 whose episodes last at most depth steps."""
    return AgentArchitecture(
        name=name,
        kind=ArchitectureKind.AFS3A,
        representation=RMAP3,
        tables=tuple(pool),
        goal="rg",
        depth=depth,
    )


class TestLearning:
    def test_empty_history_rates_are_zero(self):
        # From zero tallies, a failure of table 1 leaves both tables at a
        # rate of 0, and the tie picks table 0.
        attempts, successes = [0, 0], [0, 0]
        assert update_learning(attempts, successes, 1, False) == 0
        assert (attempts, successes) == ([0, 1], [0, 0])

    def test_update_picks_highest_rate(self):
        attempts, successes = [0, 0], [0, 0]
        update_learning(attempts, successes, 0, False)
        assert update_learning(attempts, successes, 0, False) == 0
        picks = [update_learning(attempts, successes, 1, True) for _ in range(3)]
        # 0/2 against 3/3.
        assert (attempts, successes) == ([2, 3], [0, 3])
        assert picks == [1, 1, 1]

    def test_tie_goes_to_lowest_index(self):
        attempts, successes = [0, 0], [0, 0]
        assert update_learning(attempts, successes, 1, True) == 1
        # 1/1 against 1/1.
        assert update_learning(attempts, successes, 0, True) == 0

    def test_rejects_empty_pool_and_bad_index(self):
        empty = AgentArchitecture(
            name="a", kind=ArchitectureKind.AFS3A, representation=RMAP3, goal="rg"
        )
        with pytest.raises(ArchitectureError, match="afs3a agent 'a' has no route table"):
            run_trajectory(micro3(), empty, 1)
        assert run_trajectory(micro3(), empty, 0).persistence == 0
        for index in (1, -1):
            with pytest.raises(ArchitectureError, match="out of range"):
                update_learning([0], [0], index, True)

    # afs1 included: its reactions are its one table.
    @pytest.mark.parametrize(
        "kind", [ArchitectureKind.AFS1, ArchitectureKind.AFS2A, ArchitectureKind.AFS2B]
    )
    def test_rejects_routed_agent_without_table(self, kind):
        bare = AgentArchitecture(name="s", kind=kind, representation=RMAP3, goal="rg")
        with pytest.raises(ArchitectureError, match=f"{kind.value} agent 's' has no route table"):
            run_trajectory(micro3(), bare, 1)
        assert run_trajectory(micro3(), bare, 0).persistence == 0

    def test_rejects_learner_without_depth(self):
        # Without the guard the first scored episode would compare with None.
        shallow = learner([GOOD_ROUTES], None, name="a")
        with pytest.raises(ArchitectureError, match="afs3a agent 'a' has no depth"):
            run_trajectory(micro3(), shallow, 1)
        assert run_trajectory(micro3(), shallow, 0).persistence == 0

    # A random agent always has a seed (0 unless set), so only a
    # positional one can lack its act source.
    @pytest.mark.parametrize("kind", [ArchitectureKind.POSITIONAL])
    @pytest.mark.parametrize("seed", [None, 3])
    def test_rejects_elementary_agent_without_stream(self, kind, seed):
        bare = AgentArchitecture(name="r", kind=kind)
        with pytest.raises(ArchitectureError, match=f"{kind.value} agent 'r' has no digits"):
            run_trajectory(micro3(), bare, 1, seed=seed)
        assert run_trajectory(micro3(), bare, 0, seed=seed).persistence == 0


Scored = collections.namedtuple("Scored", "table_index success")


class TestLearningTallies:
    """The tallies and the pick must always agree with a rescan of every
    score so far."""

    @given(
        pool_size=st.integers(1, 4),
        updates=st.lists(st.tuples(st.integers(0, 3), st.booleans()), max_size=40),
    )
    @settings(max_examples=200, deadline=None)
    def test_tallies_match_history_rescan(self, pool_size, updates):
        attempts, successes = [0] * pool_size, [0] * pool_size
        history = []
        for index, success in updates:
            history.append(Scored(index % pool_size, success))
            picked = update_learning(attempts, successes, index % pool_size, success)
            rates = [Fraction(s, a) if a else Fraction(0) for a, s in zip(attempts, successes)]
            assert rates == oracles.success_rates(history, pool_size)
            assert picked == oracles.active_index(history, pool_size)


class TestLearningEpisodes:
    """Closed-loop runs: predictions issued while stepping get scored
    when the goal shows up in time, or when the step budget runs out."""

    def drive(self, agent, steps, monkeypatch):
        """Run agent through micro3 from x0; return (table index, success,
        table picked next) of each scored episode, caught at the
        update_learning calls that score them."""
        real = exosim.architectures.update_learning
        scored = []

        def catch(attempts, successes, index, success):
            picked = real(attempts, successes, index, success)
            scored.append((index, success, picked))
            return picked

        monkeypatch.setattr(exosim.architectures, "update_learning", catch)
        run_trajectory(micro3(), agent, steps)
        return scored

    def test_successful_predictions_enter_history(self, monkeypatch):
        # x0 -> x1 -> gg resolves the first episode at step 3; the
        # episode issued at gg resolves one step later.
        scored = self.drive(learner([GOOD_ROUTES], 3), 4, monkeypatch)
        assert scored == [(0, True, 0), (0, True, 0)]

    def test_failed_prediction_scored_at_depth(self, monkeypatch):
        # sit keeps the agent at x0, so the goal never shows inside the
        # 2-step budget and the episode fails.
        scored = self.drive(learner([SIT_ROUTES], 2), 3, monkeypatch)
        assert scored == [(0, False, 0)]

    def test_closed_loop_never_leaves_index_zero(self, monkeypatch):
        # A failing candidate at rate 0 still ties the unattempted one,
        # and ties keep the lowest index active.
        scored = self.drive(learner([SIT_ROUTES, GOOD_ROUTES], 2), 9, monkeypatch)
        assert len(scored) == 4
        assert set(scored) == {(0, False, 0)}

    def test_external_score_switches_candidate(self, monkeypatch):
        # Every scored episode also credits table 1 from outside, so the
        # first score, at step 3, makes table 1 active mid-run.
        real = exosim.architectures.update_learning

        def credit_table_one(attempts, successes, index, success):
            real(attempts, successes, index, success)
            return real(attempts, successes, 1, True)

        monkeypatch.setattr(exosim.architectures, "update_learning", credit_table_one)
        steps = run_from("x0", learner([SIT_ROUTES, GOOD_ROUTES], 2), 4)
        # Table 0 sits at x0 until its episode fails; the better table
        # then steers the revisit of x0: the agent moves instead of sitting.
        assert [r.state_before for r in steps] == ["x0", "x0", "x0", "x1"]
        assert [r.sequence for r in steps[:2]] == [("sit",), ("sit",)]
        assert steps[2].sequence == ("go", "go")
        assert steps[2].act == "go"


class TestCloneForRun:
    """A run reads the agent and keeps its own copy of what changes."""

    def test_seed_override_only_touches_clone(self):
        order = ("go", "sit")
        base = AgentArchitecture(name="r", kind=ArchitectureKind.RANDOM, seed=7)
        acts = lambda seed: [
            s.act for s in stepped(micro3(), base, 30, seed=seed)[1]
        ]
        assert acts(99) == [order[int(unit_draw(99, t) * 2)] for t in range(30)]
        assert base.seed == 7
        assert acts(None) == [order[int(unit_draw(7, t) * 2)] for t in range(30)]
        assert acts(None) != acts(99)


class TestStep:
    def test_dispatch_matches_kind(self):
        u = micro3()
        rand = AgentArchitecture(name="r", kind=ArchitectureKind.RANDOM, seed=3)
        pos = AgentArchitecture(
            name="p", kind=ArchitectureKind.POSITIONAL, digits=ExplicitDigits((1, 0), 2)
        )
        routed = AgentArchitecture(
            name="s",
            kind=ArchitectureKind.AFS2A,
            representation=RMAP3,
            tables=(GOOD_ROUTES,),
            goal="rg",
        )
        fifth = stepped(u, rand, 5)[1][4]
        assert fifth.act == ("go", "sit")[int(unit_draw(3, 4) * 2)]
        assert stepped(u, pos, 2)[1][1].act == "go"
        assert stepped(u, routed, 1)[1][0].act == "go"

    def test_elementary_has_no_perception(self):
        u = micro3()
        pos = AgentArchitecture(
            name="p", kind=ArchitectureKind.POSITIONAL, digits=ExplicitDigits((1,), 2)
        )
        trace = stepped(u, pos, 1)[1][0]
        assert trace.formula is None
        assert trace.sequence is None
        assert trace.act == "sit"


class TestOriented:
    def test_fixture_routes_are_oriented(self, pathfinder_pair):
        agent, universe = pathfinder_pair
        assert check_oriented_table(agent.tables[0], agent.representation, universe) == []

    def test_bfs_built_table_is_oriented(self, ejemplo5_doc):
        u = ejemplo5_doc.build_universe("ejemplo5")
        transitions = dict(u.transitions)
        acts = sorted(u.acts)
        rmap = RepresentationMap({s: f"psi{s[1]}" for s in sorted(u.states)})
        entries = {}
        for source in ("e2", "e3"):
            path = oracles.bfs_route(transitions, acts, source, "e1")
            entries[(rmap.entries[source], "psi1")] = path
        assert check_oriented_table(entries, rmap, u) == []

    def test_detour_detected(self):
        u = micro3()
        table = {("r0", "rg"): ("go",)}
        violations = check_oriented_table(table, RMAP3, u)
        assert len(violations) == 1
        v = violations[0]
        assert (v.source_formula, v.goal_formula) == ("r0", "rg")
        assert v.reached == "x1"
        assert v.expected == "gg"

    def test_unrepresented_endpoint_raises(self):
        u = micro3()
        table = {("r9", "rg"): ("go",)}
        with pytest.raises(UnrepresentedFormula):
            check_oriented_table(table, RMAP3, u)

