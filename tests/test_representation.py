from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from exosim import AmbiguousRepresentation, RepresentationMap, UnrepresentedFormula


class TestLookup:
    def test_formula_for_and_blind_spot(self):
        rmap = RepresentationMap({"x": "seen"})
        assert rmap.entries.get("x") == "seen"
        assert rmap.entries.get("y") is None
        assert rmap.by_formula.keys() == {"seen"}

    def test_states_for_collects_preimage(self):
        rmap = RepresentationMap({"a": "f", "b": "f", "c": "g"})
        assert rmap.by_formula == {"f": frozenset({"a", "b"}), "g": frozenset({"c"})}
        assert "nope" not in rmap.by_formula

    def test_inverse_unique(self):
        rmap = RepresentationMap({"a": "f", "c": "g"})
        assert rmap.inverse("g") == "c"

    def test_inverse_ambiguous(self):
        rmap = RepresentationMap({"a": "f", "b": "f"})
        with pytest.raises(AmbiguousRepresentation):
            rmap.inverse("f")

    def test_repr_names_the_entries(self):
        rmap = RepresentationMap({"a": "f"})
        assert repr(rmap) == "RepresentationMap(entries={'a': 'f'})"

    def test_inverse_missing(self):
        rmap = RepresentationMap({"a": "f"})
        with pytest.raises(UnrepresentedFormula):
            rmap.inverse("zzz")

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
            assert state in rmap.by_formula[formula]
            assert rmap.entries[state] == formula

