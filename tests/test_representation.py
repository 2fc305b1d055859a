from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from exosim import (
    AmbiguousRepresentation,
    RepresentationMap,
    UnknownActToken,
    UnrepresentedFormula,
    interpret_act,
)

from test_universe import tiny_universe


class TestLookup:
    def test_formula_for_and_blind_spot(self):
        rmap = RepresentationMap({"x": "seen"})
        assert rmap.entries.get("x") == "seen"
        assert rmap.entries.get("y") is None
        assert rmap.image == frozenset({"seen"})

    def test_states_for_collects_preimage(self):
        rmap = RepresentationMap({"a": "f", "b": "f", "c": "g"})
        assert rmap.states_for("f") == frozenset({"a", "b"})
        assert rmap.states_for("nope") == frozenset()

    def test_inverse_unique(self):
        rmap = RepresentationMap({"a": "f", "c": "g"})
        assert rmap.inverse("g") == "c"

    def test_inverse_ambiguous(self):
        rmap = RepresentationMap({"a": "f", "b": "f"})
        with pytest.raises(AmbiguousRepresentation):
            rmap.inverse("f")

    def test_inverse_missing(self):
        rmap = RepresentationMap({"a": "f"})
        with pytest.raises(UnrepresentedFormula):
            rmap.inverse("zzz")

    def test_image_and_injectivity(self):
        rmap = RepresentationMap({"a": "f", "b": "f", "c": "g"})
        assert rmap.image == frozenset({"f", "g"})
        assert not rmap.is_injective()
        assert RepresentationMap({"a": "f", "c": "g"}).is_injective()

    def test_iteration_order_is_sorted_by_state(self):
        rmap = RepresentationMap({"b": "2", "a": "1", "c": "3"})
        assert [s for s, _ in rmap] == ["a", "b", "c"]

    @given(
        entries=st.dictionaries(
            st.text(st.characters(min_codepoint=97, max_codepoint=122), min_size=1, max_size=4),
            st.text(min_size=1, max_size=6),
            max_size=8,
        )
    )
    def test_states_for_inverts_formula_for(self, entries):
        rmap = RepresentationMap(entries)
        for state, formula in entries.items():
            assert state in rmap.states_for(formula)
            assert rmap.entries[state] == formula


class TestInterpretAct:
    def test_known_token(self):
        u = tiny_universe()
        assert interpret_act(u, "hop") == "hop"

    def test_unknown_token(self):
        u = tiny_universe()
        with pytest.raises(UnknownActToken):
            interpret_act(u, "fly")

    def test_fixture_route_tokens_all_resolve(self, pathfinder_pair):
        agent, universe = pathfinder_pair
        for sequence in agent.tables[0].entries.values():
            for token in sequence:
                assert interpret_act(universe, token) in universe.acts
