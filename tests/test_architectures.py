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
    FunctionalUnit,
    InconsistentMetadata,
    PositionalFasa,
    ProjectionOutOfRange,
    RandomFasa,
    RepresentationMap,
    RouteTable,
    StateClass,
    Universe,
    UnrepresentedFormula,
    UnitGraph,
    check_oriented_table,
    detect_redundancy,
    run_trajectory,
    splitmix64,
    unit_draw,
    update_learning,
)

import exosim.architectures
import oracles


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
    return run_trajectory(start, agent, steps).steps


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


def stream_acts(fasa, steps):
    """The acts of a run of steps steps through the wheel of fasa's act
    order by an elementary agent reading fasa."""
    kind = ArchitectureKind.RANDOM if isinstance(fasa, RandomFasa) else ArchitectureKind.POSITIONAL
    agent = AgentArchitecture(name="e", kind=kind, stream=fasa)
    return [step.act for step in run_trajectory(wheel(fasa.act_order), agent, steps).steps]


class TestRandomFasa:
    def test_uniform_draw_formula(self):
        order = ("a", "b", "c", "d")
        assert stream_acts(RandomFasa(42, order), 50) == [
            order[int(unit_draw(42, t) * 4)] for t in range(50)
        ]

    def test_frequencies_within_four_sigma(self):
        order = ("a", "b", "c", "d")
        counts = collections.Counter(stream_acts(RandomFasa(42, order), 10000))
        sigma = (10000 * 0.25 * 0.75) ** 0.5
        for act in order:
            assert abs(counts[act] - 2500) <= 4 * sigma

    def test_reproducible_and_seed_sensitive(self):
        order = ("a", "b")
        run1 = stream_acts(RandomFasa(5, order), 200)
        run2 = stream_acts(RandomFasa(5, order), 200)
        run3 = stream_acts(RandomFasa(6, order), 200)
        assert run1 == run2
        assert run1 != run3


class TestPositionalFasa:
    def test_explicit_zeros_replay_first_act(self):
        source = ExplicitDigits((0, 0, 0), 3)
        assert list(source.read(3)) == [0, 0, 0]
        assert stream_acts(PositionalFasa(source, ("a", "b", "c")), 3) == ["a", "a", "a"]

    def test_pi_digits_select_acts(self):
        order = tuple(f"a{i}" for i in range(10))
        want = ["a3", "a1", "a4", "a1", "a5", "a9"]
        assert stream_acts(PositionalFasa(ConstantDigits("pi", 10), order), 6) == want
        source = ConstantDigits("pi", 10)
        assert [order[source.digit(t)] for t in range(6)] == want
        assert [order[d] for d in source.read(6)] == want

    def test_exhaustion_propagates(self):
        source = ExplicitDigits((1,), 2)
        digits = source.read(2)
        assert next(digits) == 1
        with pytest.raises(DigitSourceExhausted):
            next(digits)
        assert stream_acts(PositionalFasa(source, ("a", "b")), 1) == ["b"]
        with pytest.raises(DigitSourceExhausted):
            stream_acts(PositionalFasa(source, ("a", "b")), 2)


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
            tables=(RouteTable({("r0", "rg"): ("sit", "go")}, 3),),
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
            reaction={"r0": "go"},
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
            tables=(
                RouteTable(
                    {("r0", "rg"): ("go", "go"), ("r1", "rg"): ("go",)},
                    depth_max=2,
                ),
            ),
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
            tables=(RouteTable({("r0", "rg"): ("go", "sit")}, depth_max=2),),
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
                RouteTable(
                    {
                        ("r0", "rg"): ("go", "go"),
                        ("r1", "r0"): ("sit",),
                        # These two fire only when the memory holds r0 or r1.
                        ("r0", "r0"): ("go",),
                        ("r1", "r1"): ("go",),
                    },
                    depth_max=2,
                ),
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


GOOD_ROUTES = RouteTable(
    {
        ("r0", "rg"): ("go", "go"),
        ("r1", "rg"): ("go",),
        ("rg", "rg"): ("go", "go", "go"),
    },
    depth_max=3,
)
SIT_ROUTES = RouteTable(
    {("r0", "rg"): ("sit",), ("r1", "rg"): ("go",), ("rg", "rg"): ("go",)},
    depth_max=2,
)


def learner(pool, name="learner"):
    return AgentArchitecture(
        name=name,
        kind=ArchitectureKind.AFS3A,
        representation=RMAP3,
        tables=tuple(pool),
        goal="rg",
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

    @pytest.mark.parametrize("kind", [ArchitectureKind.AFS2A, ArchitectureKind.AFS2B])
    def test_rejects_routed_agent_without_table(self, kind):
        bare = AgentArchitecture(name="s", kind=kind, representation=RMAP3, goal="rg")
        with pytest.raises(ArchitectureError, match=f"{kind.value} agent 's' has no route table"):
            run_trajectory(micro3(), bare, 1)
        assert run_trajectory(micro3(), bare, 0).persistence == 0

    @pytest.mark.parametrize("kind", [ArchitectureKind.RANDOM, ArchitectureKind.POSITIONAL])
    @pytest.mark.parametrize("seed", [None, 3])
    def test_rejects_elementary_agent_without_stream(self, kind, seed):
        bare = AgentArchitecture(name="r", kind=kind)
        with pytest.raises(ArchitectureError, match=f"{kind.value} agent 'r' has no act stream"):
            run_trajectory(micro3(), bare, 1, seed=seed)
        assert run_trajectory(micro3(), bare, 0, seed=seed).persistence == 0

    @pytest.mark.parametrize("seed", [None, 3])
    def test_rejects_stream_of_the_other_elementary_kind(self, seed):
        acts = tuple(sorted(micro3().acts))
        streams = {
            ArchitectureKind.RANDOM: PositionalFasa(ExplicitDigits((0, 1), len(acts)), acts),
            ArchitectureKind.POSITIONAL: RandomFasa(seed=1, act_order=acts),
        }
        for kind, stream in streams.items():
            agent = AgentArchitecture(name="m", kind=kind, stream=stream)
            name = type(stream).__name__
            with pytest.raises(ArchitectureError, match=f"{kind.value} agent 'm' has a {name}"):
                run_trajectory(micro3(), agent, 1, seed=seed)
            assert run_trajectory(micro3(), agent, 0, seed=seed).persistence == 0


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
        scored = self.drive(learner([GOOD_ROUTES]), 4, monkeypatch)
        assert scored == [(0, True, 0), (0, True, 0)]

    def test_failed_prediction_scored_at_depth(self, monkeypatch):
        # sit keeps the agent at x0, so the goal never shows inside the
        # 2-step budget and the episode fails.
        scored = self.drive(learner([SIT_ROUTES]), 3, monkeypatch)
        assert scored == [(0, False, 0)]

    def test_closed_loop_never_leaves_index_zero(self, monkeypatch):
        # A failing candidate at rate 0 still ties the unattempted one,
        # and ties keep the lowest index active.
        scored = self.drive(learner([SIT_ROUTES, GOOD_ROUTES]), 9, monkeypatch)
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
        steps = run_from("x0", learner([SIT_ROUTES, GOOD_ROUTES]), 4)
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
        base = AgentArchitecture(
            name="r", kind=ArchitectureKind.RANDOM, stream=RandomFasa(7, order)
        )
        acts = lambda seed: [s.act for s in run_trajectory(micro3(), base, 30, seed=seed).steps]
        assert acts(99) == [order[int(unit_draw(99, t) * 2)] for t in range(30)]
        assert base.stream.seed == 7
        assert acts(None) == [order[int(unit_draw(7, t) * 2)] for t in range(30)]
        assert acts(None) != acts(99)


class TestStep:
    def test_dispatch_matches_kind(self):
        u = micro3()
        rand = AgentArchitecture(
            name="r",
            kind=ArchitectureKind.RANDOM,
            stream=RandomFasa(3, ("go", "sit")),
        )
        pos = AgentArchitecture(
            name="p",
            kind=ArchitectureKind.POSITIONAL,
            stream=PositionalFasa(ExplicitDigits((1, 0), 2), ("go", "sit")),
        )
        routed = AgentArchitecture(
            name="s",
            kind=ArchitectureKind.AFS2A,
            representation=RMAP3,
            tables=(GOOD_ROUTES,),
            goal="rg",
        )
        assert run_trajectory(u, rand, 5).steps[4].act == ("go", "sit")[int(unit_draw(3, 4) * 2)]
        assert run_trajectory(u, pos, 2).steps[1].act == "go"
        assert run_trajectory(u, routed, 1).steps[0].act == "go"

    def test_elementary_has_no_perception(self):
        u = micro3()
        pos = AgentArchitecture(
            name="p",
            kind=ArchitectureKind.POSITIONAL,
            stream=PositionalFasa(ExplicitDigits((1,), 2), ("go", "sit")),
        )
        trace = run_trajectory(u, pos, 1).steps[0]
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
        table = RouteTable(entries, depth_max=max(len(p) for p in entries.values()))
        assert check_oriented_table(table, rmap, u) == []

    def test_detour_detected(self):
        u = micro3()
        table = RouteTable({("r0", "rg"): ("go",)}, depth_max=1)
        violations = check_oriented_table(table, RMAP3, u)
        assert len(violations) == 1
        v = violations[0]
        assert (v.source_formula, v.goal_formula) == ("r0", "rg")
        assert v.reached == "x1"
        assert v.expected == "gg"

    def test_unrepresented_endpoint_raises(self):
        u = micro3()
        table = RouteTable({("r9", "rg"): ("go",)}, depth_max=1)
        with pytest.raises(UnrepresentedFormula):
            check_oriented_table(table, RMAP3, u)


def unit(uid, bijective=False, inverse_of=None):
    return FunctionalUnit(uid, bijective, inverse_of)


class TestRedundancy:
    def test_inverse_chain_found(self):
        graph = UnitGraph(
            units=(
                unit("f", True, "finv"),
                unit("finv", True, "f"),
                unit("g"),
            ),
            edges=frozenset({("f", "finv"), ("finv", "g")}),
        )
        assert detect_redundancy(graph) == [("f", "finv", "g")]

    def test_no_declared_inverse_no_findings(self):
        graph = UnitGraph(
            units=(unit("f", True), unit("g", True)),
            edges=frozenset({("f", "g")}),
        )
        assert detect_redundancy(graph) == []

    def test_fanout_reports_each_consumer(self):
        graph = UnitGraph(
            units=(
                unit("f", True, "finv"),
                unit("finv", True, "f"),
                unit("g1"),
                unit("g2"),
            ),
            edges=frozenset({("f", "finv"), ("finv", "g1"), ("finv", "g2")}),
        )
        assert detect_redundancy(graph) == [
            ("f", "finv", "g1"),
            ("f", "finv", "g2"),
        ]

    @pytest.mark.parametrize(
        "units,edges",
        [
            ((unit("a"), unit("a")), set()),
            ((unit("a", True, "ghost"),), set()),
            ((unit("a", True, "b"), unit("b", True)), set()),
            ((unit("a", True, "b"), unit("b", False, "a")), set()),
            ((unit("a"),), {("a", "zz")}),
        ],
        ids=["dup-id", "unknown-partner", "one-sided", "non-bijective", "ghost-edge"],
    )
    def test_inconsistent_metadata(self, units, edges):
        graph = UnitGraph(units=tuple(units), edges=frozenset(edges))
        with pytest.raises(InconsistentMetadata):
            detect_redundancy(graph)

    @given(data=st.data())
    @settings(max_examples=80)
    def test_matches_triple_scan(self, data):
        n = data.draw(st.integers(2, 6))
        ids = [f"u{i}" for i in range(n)]
        # Pair up a prefix of units as mutual bijective inverses.
        pairs = data.draw(st.integers(0, n // 2))
        units = []
        meta = {}
        for k in range(pairs):
            a, b = ids[2 * k], ids[2 * k + 1]
            units += [unit(a, True, b), unit(b, True, a)]
            meta[a] = (True, b)
            meta[b] = (True, a)
        for uid in ids[2 * pairs:]:
            bij = data.draw(st.booleans())
            units.append(unit(uid, bij))
            meta[uid] = (bij, None)
        edges = set(
            data.draw(
                st.sets(
                    st.tuples(st.sampled_from(ids), st.sampled_from(ids)),
                    max_size=12,
                )
            )
        )
        graph = UnitGraph(units=tuple(units), edges=frozenset(edges))
        found = detect_redundancy(graph)
        assert set(found) == oracles.redundancy_scan(meta, edges)
        assert found == sorted(found)
