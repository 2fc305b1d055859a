from __future__ import annotations

import gc
import hashlib
import os
import re
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from exosim import (
    ArchitectureKind,
    ConstantDigits,
    DigitSourceExhausted,
    ExplicitDigits,
    SpecDocument,
    SpecInvalid,
    StateClass,
    Severity,
    load_document,
    parse,
    parse_file,
    run_trajectory,
    serialize,
)
from exosim import dsl
from exosim.dsl import _Reader

import docgen
from case_builder import stepped


MINI = """\
universe "mini" {
  states: a b;
  acts: stay hop;
  initial: a;
  neutral_act: stay;
  classify positive: b;
  transition a stay a;
  transition b stay b;
  transition a hop b;
  transition b hop a;
  energy {
    initial: 5;
    per_step: 1;
    negative_penalty: 0;
    positive_reward: 0;
    cap: 9;
  }
}
"""


# Python's limit on int() of a digit string; 0 where there is none.
INT_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
needs_int_digit_limit = pytest.mark.skipif(
    not INT_DIGIT_LIMIT, reason="this interpreter has no limit on integer string length"
)


def agent_block(body: str, name: str = "crew", universe: str = "mini") -> str:
    return f'agent "{name}" in "{universe}" {{\n{body}\n}}\n'


def ring_document(n: int) -> str:
    """A clean document of n states in a ring and an afs2a agent with one
    route per state."""
    states = [f"s{i}" for i in range(n)]
    lines = [
        'universe "ring" {',
        "  states: " + " ".join(states) + ";",
        "  acts: go stay;",
        "  initial: s0;",
        "  neutral_act: stay;",
        "  classify positive: s0;",
    ]
    for i, state in enumerate(states):
        lines.append(f"  transition {state} go {states[(i + 1) % n]};")
        lines.append(f"  transition {state} stay {state};")
    lines.append(
        "  energy { initial: 5; per_step: 1; negative_penalty: 0; positive_reward: 1; cap: 9; }"
    )
    lines += ["}", 'agent "walker" in "ring" {', "  architecture: afs2a;", '  goal: "f0";']
    for i, state in enumerate(states):
        lines.append(f'  represents {state} -> "f{i}";')
        lines.append(f'  predict "f{i}" -> "f0" : go;')
    return "\n".join(lines) + "\n}\n"


# A 10-state ring, an afs2a agent whose two routes follow each other, and a
# random agent with a seed.
RING = (
    ring_document(10)
    + agent_block(
        '  architecture: afs2a;\n  goal: "g0";\n'
        '  represents s0 -> "g0";\n  represents s1 -> "g1";\n'
        '  predict "g1" -> "g0" : go;\n  predict "g0" -> "g0" : stay;',
        "homer",
        "ring",
    )
    + agent_block("  architecture: random;\n  seed: 3;", "drifter", "ring")
)


def messages(text: str) -> list[str]:
    return [d.message for d in parse(text).errors]


def clean_parse(text: str):
    result = parse(text)
    assert result.errors == [], [d.message for d in result.errors]
    assert result.document is not None
    return result


class TestFixtures:
    def test_parse_without_any_diagnostics(self, ejemplo5_path, reference_path):
        for path in (ejemplo5_path, reference_path):
            result = parse_file(path)
            assert result.diagnostics == []
            assert result.document is not None

    def test_a_file_that_is_not_utf8_draws_one_error(self, tmp_path):
        # Line 3 holds two-byte characters before the bad byte: the column
        # counts code points, as the reader's columns do.
        path = tmp_path / "bytes.exo"
        path.write_bytes(b"# caf\xc3\xa9\n\n  \xc3\xa9t\xc3\xa9 \xff;\n")
        result = parse_file(path)
        assert result.document is None
        assert result.diagnostics == [(Severity.ERROR, "byte 0xff is not UTF-8", 3, 7)]

    def test_a_file_reads_as_its_text_parses(self, tmp_path):
        # Only a line feed ends a line: a lone '\r' is one column, so the
        # file's diagnostics are those of its decoded bytes.
        data = 'universe "u" {\r  states: a;\r  bogus\n}\n'.encode("utf-8")
        path = tmp_path / "cr.exo"
        path.write_bytes(data)
        got = parse_file(path).diagnostics
        assert got == parse(data.decode("utf-8")).diagnostics
        assert (got[0].message, got[0].line, got[0].column) == (
            "unknown universe item 'bogus'", 1, 31,
        )

    def test_two_parses_of_a_fixture_are_one_value(self, reference_path):
        first, second = (parse_file(reference_path).document for _ in range(2))
        assert first is not second
        assert first == second
        assert hash(first) == hash(second)
        # The repr names the declarations, which equality compares.
        assert repr(first) == (
            f"SpecDocument(universes={first.universes!r}, agents={first.agents!r})"
        )

    def test_fixture_shapes(self, ejemplo5_doc, reference_doc):
        assert [u.name for u in ejemplo5_doc.universes] == ["ejemplo5"]
        assert [a.name for a in ejemplo5_doc.agents] == ["ejemplo"]
        assert [a.name for a in reference_doc.agents] == [
            "wanderer",
            "metronome",
            "pathfinder",
        ]


class TestBuild:
    def test_universe_decl_content(self, ejemplo5_doc):
        decl = ejemplo5_doc.universe("ejemplo5")
        assert decl.states == ("e1", "e2", "e3", "e4", "e5")
        assert decl.acts == ("go1", "go2", "stay")
        assert decl.initial == "e2"
        assert decl.neutral_act == "stay"
        assert decl.energy == (10, 1, 3, 2, 20)
        assert len(decl.transitions) == 15
        assert dict(decl.classes)["e1"] == "positive"
        assert dict(decl.classes)["e5"] == "negative"

    def test_agent_decl_content(self, ejemplo5_doc):
        decl = ejemplo5_doc.agent("ejemplo")
        assert decl.kind is ArchitectureKind.AFS2A
        assert decl.depth == 2
        assert decl.projection == 1
        assert decl.goal == "psi1"
        assert len(decl.representation) == 5
        assert len(decl.route_rows) == 4

    def test_built_agent_wiring(self, pathfinder_pair):
        agent, universe = pathfinder_pair
        assert agent.kind is ArchitectureKind.AFS2A
        assert agent.goal == "at_oasis"
        assert agent.depth == 6
        assert agent.representation.entries.get("c0") == "at_c0"
        assert agent.representation.entries.get("t0") is None
        assert universe.class_of("oasis") is StateClass.POSITIVE

    def test_unclassified_states_default_to_neutral(self):
        text = MINI.replace("  classify positive: b;\n", "")
        decl = clean_parse(text).document.universe("mini")
        assert dict(decl.classes) == {"a": "neutral", "b": "neutral"}

    def test_random_agent_defaults(self):
        doc = clean_parse(MINI + agent_block("  architecture: random;")).document
        decl = doc.agent("crew")
        assert decl.seed == 0
        agent, _ = doc.build_agent("crew")
        assert agent.seed == 0
        assert agent.digits is None

    def test_positional_agent_defaults_to_pi(self):
        doc = clean_parse(MINI + agent_block("  architecture: positional;")).document
        assert doc.agent("crew").constant == ("pi", None)
        agent, _ = doc.build_agent("crew")
        assert agent.digits == ConstantDigits("pi", 2)

    def test_positional_digits_source(self):
        body = '  architecture: positional;\n  constant: digits "0110";'
        doc = clean_parse(MINI + agent_block(body)).document
        agent, _ = doc.build_agent("crew")
        assert agent.digits == ExplicitDigits((0, 1, 1, 0), 2)

    def test_depth_defaults_to_longest_route(self):
        body = (
            "  architecture: afs2a;\n"
            '  goal: "fb";\n'
            '  represents a -> "fa";\n'
            '  represents b -> "fb";\n'
            '  predict "fa" -> "fb" : hop stay hop;\n'
            '  predict "fb" -> "fb" : stay;'
        )
        doc = clean_parse(MINI + agent_block(body)).document
        decl = doc.agent("crew")
        assert decl.depth == 3
        assert decl.projection == 1

    def test_recall_agent_goal_is_optional(self):
        body = (
            "  architecture: afs2b;\n"
            '  represents a -> "fa";\n'
            '  represents b -> "fb";\n'
            '  predict "fa" -> "fb" : hop;'
        )
        doc = clean_parse(MINI + agent_block(body)).document
        agent, universe = doc.build_agent("crew")
        assert agent.kind is ArchitectureKind.AFS2B
        assert agent.goal is None
        # With no goal to route toward, the first step generates nothing.
        first = stepped(universe, agent, 1)[1][0]
        assert (first.formula, first.sequence, first.act) == ("fa", None, "stay")

    def test_pool_indices_build_one_table_each(self):
        body = (
            "  architecture: afs3a;\n"
            '  goal: "fb";\n'
            '  represents a -> "fa";\n'
            '  represents b -> "fb";\n'
            '  pool 0 predict "fa" -> "fb" : hop;\n'
            '  pool 1 predict "fa" -> "fb" : stay hop;'
        )
        doc = clean_parse(MINI + agent_block(body)).document
        agent, _ = doc.build_agent("crew")
        assert len(agent.tables) == 2
        assert agent.tables[0].get(("fa", "fb")) == ("hop",)
        assert agent.tables[1].get(("fa", "fb")) == ("stay", "hop")

    def test_pool_tables_match_the_per_index_filter(self):
        # A build groups the route rows by index in one pass. Every table
        # holds the rows a filter of all rows by its index keeps, on every
        # afs3a agent of these documents, and on a library-built agent whose
        # rows are out of order and skip index 1, which gets an empty table.
        from test_cli import SIX_KINDS  # test_cli imports this module
        from test_harness import mixed_long_document

        texts = [SIX_KINDS, mixed_long_document()]
        texts += [docgen.random_document_text(seed) for seed in range(300)]
        docs = [doc for doc in (parse(text).document for text in texts) if doc]
        learners = [
            (doc, a) for doc in docs for a in doc.agents if a.kind is ArchitectureKind.AFS3A
        ]
        assert len(learners) == 94
        six = parse(SIX_KINDS).document
        rows = (
            (2, "fa", "fb", ("hop",)), (0, "fb", "fa", ("stay",)), (0, "fa", "fb", ("go",))
        )
        learners.append((six, six.agent("learner")._replace(route_rows=rows)))
        for doc, decl in learners:
            agent = decl.build(doc.build_universe(decl.universe_name))
            last = max((row[0] for row in decl.route_rows), default=0)
            assert list(agent.tables) == [
                {(s, g): seq for i, s, g, seq in decl.route_rows if i == index}
                for index in range(1 + last)
            ]
            assert agent.depth == decl.depth
        assert [len(table) for table in agent.tables] == [2, 0, 1]

    def test_lookup_by_name_first_declaration_wins(self, reference_doc):
        # A library-built document may repeat a name; a parsed one never does.
        doc = SpecDocument(
            reference_doc.universes + tuple(u._replace() for u in reference_doc.universes),
            reference_doc.agents + tuple(a._replace() for a in reference_doc.agents),
        )
        for a in reference_doc.agents:
            assert doc.agent(a.name) is a
        for u in reference_doc.universes:
            assert doc.universe(u.name) is u
        with pytest.raises(KeyError):
            doc.agent("nobody")
        with pytest.raises(KeyError):
            doc.universe(reference_doc.agents[0].name)

    def test_empty_document_is_valid(self):
        result = clean_parse("# nothing but commentary\n")
        assert result.document.universes == ()
        assert result.document.agents == ()


class TestUniverseErrors:
    @pytest.mark.parametrize(
        "mangle,needle",
        [
            (
                lambda t: t.replace("transition a hop b;", "transition a fly b;"),
                "undeclared act 'fly'",
            ),
            (
                lambda t: t.replace("transition a hop b;", "transition a hop zz;"),
                "undeclared state 'zz'",
            ),
            (
                lambda t: t.replace("classify positive: b;", "classify positive: zz;"),
                "classified id 'zz' is not a declared state",
            ),
            (
                lambda t: t.replace("initial: a;", "initial: zz;"),
                "initial state 'zz' is not a declared state",
            ),
            (
                lambda t: t.replace("neutral_act: stay;", "neutral_act: fly;"),
                "neutral act 'fly' is not a declared act",
            ),
            (
                lambda t: t.replace("  transition b hop a;\n", ""),
                "no transition declared for ('b', 'hop')",
            ),
            (
                lambda t: t.replace("initial: 5;", "initial: 0;"),
                "energy initial must be positive",
            ),
            (
                lambda t: t.replace("cap: 9;", "cap: 2;"),
                "energy cap must be at least the initial energy",
            ),
            (
                lambda t: t.replace("  states: a b;\n", ""),
                "universe 'mini' declares no states",
            ),
            (
                lambda t: t.replace("  acts: stay hop;\n", ""),
                "universe 'mini' declares no acts",
            ),
        ],
        ids=[
            "foreign-act",
            "foreign-dst",
            "foreign-classify",
            "foreign-initial",
            "foreign-neutral",
            "missing-transition",
            "zero-energy",
            "low-cap",
            "no-states",
            "no-acts",
        ],
    )
    def test_referential_checks(self, mangle, needle):
        result = parse(mangle(MINI))
        assert result.document is None
        assert any(needle in m for m in messages(mangle(MINI)))

    def test_every_missing_pair_with_as_many_keys_as_pairs(self):
        # Four keys for two states and two acts, but two of them name an
        # undeclared state or act: both missing pairs are still reported,
        # in state then act order.
        text = MINI.replace("transition b stay b;", "transition zz stay b;").replace(
            "transition b hop a;", "transition b fly a;"
        )
        got = [(d.message, d.line, d.column) for d in parse(text).diagnostics]
        assert got == [
            ("transition uses undeclared act 'fly'", 10, 14),
            ("transition uses undeclared state 'zz'", 8, 14),
            ("no transition declared for ('b', 'hop')", 1, 1),
            ("no transition declared for ('b', 'stay')", 1, 1),
        ]

    def test_energy_checks_point_at_their_value(self):
        for old, new, want in [
            ("initial: 5;", "initial: 0;", ("energy initial must be positive", 12, 14)),
            ("cap: 9;", "cap: 2;", ("energy cap must be at least the initial energy", 16, 10)),
        ]:
            result = parse(MINI.replace(old, new))
            assert [(d.message, d.line, d.column) for d in result.diagnostics] == [want]

    def test_energy_fields_must_keep_order(self):
        swapped = MINI.replace(
            "    initial: 5;\n    per_step: 1;",
            "    per_step: 1;\n    initial: 5;",
        )
        found = messages(swapped)
        assert any("energy field 'initial' expected here" in m for m in found)

    def test_missing_energy_block(self):
        headless = MINI[: MINI.index("  energy {")] + "}\n"
        assert any("missing its energy block" in m for m in messages(headless))

    def test_unterminated_block(self):
        assert any(
            "unterminated universe block" in m
            for m in messages('universe "u" {\n  states: a;')
        )


class TestAgentErrors:
    CASES = [
        ('  architecture: afs9;', "unknown architecture 'afs9'"),
        ("  seed: 1;", "declares no architecture"),
        (
            '  architecture: afs2a;\n  represents a -> "fa";\n'
            '  represents b -> "fb";',
            "afs2a agent 'crew' declares no goal",
        ),
        (
            '  architecture: afs2a;\n  goal: "far";\n'
            '  represents a -> "fa";\n  represents b -> "fb";',
            "goal 'far' is outside the representation image",
        ),
        (
            '  architecture: afs2a;\n  goal: "fb";',
            "declares no representation",
        ),
        (
            '  architecture: afs2a;\n  goal: "fa";\n'
            '  represents a -> "fa";\n  represents b -> "fa";',
            "must use at least two formulas",
        ),
        (
            '  architecture: afs1;\n  projection: 2;\n'
            '  represents a -> "fa";\n  represents b -> "fb";\n'
            '  react "fa" : hop;',
            "projection must be 1",
        ),
        (
            '  architecture: afs1;\n'
            '  represents a -> "fa";\n  represents b -> "fb";\n'
            '  react "fa" : hop;\n  react "fa" : stay;',
            "formula 'fa' reacts with two acts",
        ),
        (
            '  architecture: afs2a;\n  goal: "fb";\n  depth: 2;\n'
            "  projection: 3;\n"
            '  represents a -> "fa";\n  represents b -> "fb";\n'
            '  predict "fa" -> "fb" : hop;',
            "projection 3 exceeds the depth bound 2",
        ),
        (
            '  architecture: afs2a;\n  goal: "fb";\n  depth: 1;\n'
            '  represents a -> "fa";\n  represents b -> "fb";\n'
            '  predict "fa" -> "fb" : hop stay;',
            "longer than the declared depth 1",
        ),
        (
            '  architecture: afs2a;\n  goal: "fb";\n  depth: 2;\n  projection: 2;\n'
            '  represents a -> "fa";\n  represents b -> "fb";\n'
            '  predict "fa" -> "fb" : hop;',
            "route ('fa', 'fb') is shorter than the projection 2",
        ),
        (
            '  architecture: afs3a;\n  goal: "fb";\n'
            '  represents a -> "fa";\n  represents b -> "fb";\n'
            '  pool 1 predict "fa" -> "fb" : hop;',
            "pool indices must be contiguous from 0",
        ),
        (
            '  architecture: afs3a;\n  goal: "fb";\n'
            '  represents a -> "fa";\n  represents b -> "fb";\n'
            '  predict "fa" -> "fb" : hop;',
            "must carry a pool index",
        ),
        (
            '  architecture: afs3a;\n  goal: "fb";\n'
            '  represents a -> "fa";\n  represents b -> "fb";',
            "declares an empty pool",
        ),
        (
            '  architecture: positional;\n  constant: digits "";',
            "digit list must not be empty",
        ),
        (
            '  architecture: positional;\n  constant: digits "07";',
            "digit '7' does not fit base 2",
        ),
        (
            '  architecture: afs2a;\n  goal: "fb";\n  projection: 0;\n'
            '  represents a -> "fa";\n  represents b -> "fb";\n'
            '  predict "fa" -> "fb" : hop;',
            "projection must be at least 1",
        ),
        (
            '  architecture: afs1;\n'
            '  represents a -> "";\n  represents b -> "fb";',
            "represented by an empty formula",
        ),
        (
            '  architecture: afs2a;\n  goal: "fb";\n'
            '  represents a -> "fa";\n  represents b -> "fb";\n'
            '  predict "fa" -> "fb" : fly;',
            "sequence uses undeclared act 'fly'",
        ),
        (
            '  architecture: afs2a;\n  goal: "fb";\n  depth: 0;\n'
            '  represents a -> "fa";\n  represents b -> "fb";\n'
            '  predict "fa" -> "fb" : hop;',
            "depth must be at least 1",
        ),
    ]

    @pytest.mark.parametrize(
        "body,needle",
        CASES,
        ids=[
            "unknown-kind",
            "no-kind",
            "no-goal",
            "goal-off-image",
            "no-representation",
            "one-formula",
            "afs1-projection",
            "afs1-two-acts",
            "projection-over-depth",
            "route-over-depth",
            "route-under-projection",
            "pool-gap",
            "bare-predict",
            "empty-pool",
            "empty-digits",
            "digit-too-big",
            "zero-projection",
            "empty-formula",
            "foreign-sequence-act",
            "zero-depth",
        ],
    )
    def test_agent_checks(self, body, needle):
        text = MINI + agent_block(body)
        result = parse(text)
        assert result.document is None
        assert any(needle in m for m in messages(text)), messages(text)

    def test_unknown_universe_reference(self):
        text = MINI + agent_block("  architecture: random;", universe="mars")
        assert any("unknown universe 'mars'" in m for m in messages(text))


class TestDuplicates:
    def test_identical_transition_is_a_warning(self):
        text = MINI.replace(
            "transition a hop b;", "transition a hop b;\n  transition a hop b;"
        )
        result = parse(text)
        assert result.document is not None
        warnings = [d for d in result.diagnostics if d.severity is Severity.WARNING]
        assert any("declared twice" in d.message for d in warnings)

    def test_conflicting_transition_is_an_error(self):
        text = MINI.replace(
            "transition a hop b;", "transition a hop b;\n  transition a hop a;"
        )
        assert any("conflicting transition" in m for m in messages(text))

    def test_repeated_rows_report_at_their_rows(self):
        body = (
            '  architecture: afs2a;\n  goal: "fb";\n'
            '  represents a -> "fa";\n  represents b -> "fb";\n'
            '  predict "fa" -> "fb" : hop;\n  predict "fa" -> "fb" : hop;\n'
            '  predict "fa" -> "fb" : stay;'
        )
        text = MINI.replace(
            "transition a hop b;",
            "transition a hop b;\n  transition a hop b;\n  transition a hop a;",
        )
        got = [
            (d.severity.name, d.message, d.line, d.column)
            for d in parse(text + agent_block(body)).diagnostics
        ]
        assert got == [
            ("WARNING", "transition ('a', 'hop') declared twice", 10, 14),
            ("ERROR", "conflicting transition for ('a', 'hop')", 11, 14),
            ("WARNING", "route ('fa', 'fb') declared twice", 27, 3),
            ("ERROR", "conflicting route for ('fa', 'fb')", 28, 3),
        ]

    def test_state_listed_twice(self):
        result = parse(MINI.replace("states: a b;", "states: a b a;"))
        assert result.document is not None
        assert any("listed twice" in d.message for d in result.diagnostics)

    def test_long_states_item_warns_once_at_the_repeat(self):
        ids = [f"s{i}" for i in range(3000)]
        ids.insert(2000, "s17")
        result = parse('universe "big" {\n  states: ' + " ".join(ids) + ";\n}\n")
        warnings = [
            (d.message, d.line, d.column)
            for d in result.diagnostics
            if d.severity is Severity.WARNING
        ]
        column = len("  states: ") + sum(len(i) + 1 for i in ids[:2000]) + 1
        assert warnings == [("state 's17' listed twice", 2, column)]

    def test_duplicate_universe_name(self):
        assert any("duplicate universe 'mini'" in m for m in messages(MINI + MINI))

    def test_duplicate_agent_name(self):
        block = agent_block("  architecture: random;")
        assert any("duplicate agent 'crew'" in m for m in messages(MINI + block + block))

    def test_duplicate_single_item(self):
        text = MINI + agent_block("  architecture: random;\n  seed: 1;\n  seed: 2;")
        assert any("duplicate 'seed' item" in m for m in messages(text))

    def test_represents_repeats(self):
        same = (
            "  architecture: afs1;\n"
            '  represents a -> "fa";\n  represents a -> "fa";\n'
            '  represents b -> "fb";'
        )
        result = parse(MINI + agent_block(same))
        assert result.document is not None
        assert any("represented twice" in d.message for d in result.diagnostics)
        conflict = same.replace('represents a -> "fa";\n  represents a -> "fa"',
                                'represents a -> "fa";\n  represents a -> "other"')
        assert any(
            "represented by two formulas" in m
            for m in messages(MINI + agent_block(conflict))
        )

    def test_route_repeats(self):
        base = (
            '  architecture: afs2a;\n  goal: "fb";\n'
            '  represents a -> "fa";\n  represents b -> "fb";\n'
            '  predict "fa" -> "fb" : hop;\n'
        )
        twice = base + '  predict "fa" -> "fb" : hop;'
        result = parse(MINI + agent_block(twice))
        assert result.document is not None
        assert any("declared twice" in d.message for d in result.diagnostics)
        clash = base + '  predict "fa" -> "fb" : stay;'
        assert any(
            "conflicting route" in m for m in messages(MINI + agent_block(clash))
        )


class TestIgnoredItems:
    def test_random_agent_ignores_sensitive_items(self):
        body = (
            "  architecture: random;\n  depth: 3;\n"
            '  represents a -> "fa";'
        )
        result = parse(MINI + agent_block(body))
        assert result.document is not None
        notes = [d.message for d in result.diagnostics]
        assert any("'depth' is ignored for random agents" in m for m in notes)
        assert any("representation is ignored for random agents" in m for m in notes)

    def test_positional_agent_ignores_seed(self):
        result = parse(
            MINI + agent_block("  architecture: positional;\n  seed: 4;")
        )
        assert result.document is not None
        assert any(
            "'seed' is ignored for positional agents" in d.message
            for d in result.diagnostics
        )

    def test_reactive_agent_ignores_routes(self):
        body = (
            "  architecture: afs1;\n"
            '  represents a -> "fa";\n  represents b -> "fb";\n'
            '  react "fa" : hop;\n'
            '  predict "fa" -> "fb" : hop;'
        )
        result = parse(MINI + agent_block(body))
        assert result.document is not None
        assert any(
            "predict rows are ignored for afs1 agents" in d.message
            for d in result.diagnostics
        )


def block_contents(text: str) -> list:
    """The name, singles and rows of each block read from text, each without
    the offset that ends it, and so without any position."""

    def plain(rows):
        if isinstance(rows, dict):
            return {k: None if isinstance(v, int) else v[:-1] for k, v in rows.items()}
        return [row[:-1] for row in rows]

    return [
        (b.name, plain(b.singles), {key: plain(rows) for key, rows in b.rows.items()})
        for b in _Reader(text).blocks()
    ]


class TestRecovery:
    def test_multiple_errors_collected(self):
        text = MINI.replace(
            "  transition a hop b;",
            "  frobnicate: 3;\n  transition a fly b;",
        )
        result = parse(text)
        assert result.document is None
        found = [d.message for d in result.errors]
        assert any("unknown universe item 'frobnicate'" in m for m in found)
        assert any("undeclared act 'fly'" in m for m in found)
        # Recovery kept reading: the missing pair is reported too.
        assert any("no transition declared for ('a', 'hop')" in m for m in found)

    def test_garbage_between_blocks(self):
        result = parse("what is this\n" + MINI)
        assert result.document is None
        assert any("expected 'universe' or 'agent'" in m for m in result_messages(result))
        # Only the leading garbage is at fault.
        assert len(result.errors) == 1

    @pytest.mark.parametrize(
        "old,new,agents,expected",
        [
            ("per_step: 1;", "per_step: x;", "", [("expected an integer, found 'x'", 13, 15)]),
            ("per_step: 1;", "per_step 1;", "", [("expected ':', found '1'", 13, 14)]),
            ("cap: 9;", "", "", [("energy block is missing the 'cap' field", 11, 3)]),
            (
                "initial: 5;",
                "initial: 5",
                "",
                [("expected ';', found 'per_step'", 13, 5)],
            ),
            (
                "per_step: 1;",
                "per_step: 1 step;",
                "",
                [("expected ';', found 'step'", 13, 17)],
            ),
            (
                "per_step: 1;",
                "per_step: x;",
                agent_block("  architecture: random;"),
                [
                    ("expected an integer, found 'x'", 13, 15),
                    ("agent 'crew' inhabits unknown universe 'mini'", 19, 1),
                ],
            ),
        ],
        ids=[
            "bad-value",
            "missing-colon",
            "missing-field",
            "missing-semicolon",
            "stray-identifier",
            "agent-of-withheld",
        ],
    )
    def test_energy_field_recovers_alone(self, old, new, agents, expected):
        # Only the field is at fault: the fields after it are still read,
        # the energy block's '}' still closes it, and the universe is
        # withheld.
        result = parse(MINI.replace(old, new) + agents)
        assert result.document is None
        got = [(d.message, d.line, d.column) for d in result.diagnostics]
        assert got == expected

    @pytest.mark.parametrize(
        "old,new,expected",
        [
            (
                "    cap: 24;\n  }\n}\n",
                "    cap: 24;\n}\n",
                [("unterminated universe block: missing '}' before 'agent'", 74, 1)],
            ),
            (
                "  seed: 7;\n}\n",
                "  seed: 7;\n",
                [("unterminated agent block: missing '}' before 'agent'", 79, 1)],
            ),
        ],
        ids=["energy-last-item", "agent"],
    )
    def test_lost_brace_ends_at_next_block(self, reference_path, old, new, expected):
        # The energy block's '}' gone: the universe's own '}' closes the
        # energy block, and the next agent keyword ends the universe with
        # one error. Every later block still parses as a block.
        text = reference_path.read_text(encoding="utf-8")
        assert text.count(old) == 1
        result = parse(text.replace(old, new))
        assert result.document is None
        got = [(d.message, d.line, d.column) for d in result.diagnostics]
        assert got == expected

    def test_item_error_at_lost_brace_keeps_next_agent(self, reference_path):
        # The item error stops at the next agent keyword instead of reading
        # that agent's header as items of this block: metronome and
        # pathfinder still parse as blocks, with no errors of their own.
        text = reference_path.read_text(encoding="utf-8")
        assert text.count("  seed: 7;\n}") == 1
        result = parse(text.replace("  seed: 7;\n}", "  seed: 7"))
        assert result.document is None
        got = [(d.severity, d.message, d.line, d.column) for d in result.diagnostics]
        assert got == [
            (Severity.ERROR, "expected ';', found 'agent'", 79, 1),
            (Severity.ERROR, "unterminated agent block: missing '}' before 'agent'", 79, 1),
        ]

    @pytest.mark.parametrize(
        "item, expected",
        [
            ("transition s5 go s6;", ("expected ';', found 'transition'", 18, 3)),
            ("initial: s0;", ("expected ';', found 'neutral_act'", 5, 3)),
            ("architecture: random;", ("expected ';', found 'seed'", 63, 3)),
            ("states: s0 s1 s2 s3 s4 s5 s6 s7 s8 s9;", ("expected ';', found 'acts'", 3, 3)),
            ('predict "g1" -> "g0" : go;', ("expected ';', found 'predict'", 59, 3)),
            ("classify positive: s0;", ("expected ';', found 'transition'", 7, 3)),
            ('predict "f0" -> "f0" : go;', ("expected ';', found 'represents'", 34, 3)),
        ],
        ids=[
            "transition",
            "single",
            "architecture",
            "states-list",
            "predict-list",
            "classify-list-before-row",
            "predict-list-before-row",
        ],
    )
    def test_missing_semicolon_ends_only_its_item(self, item, expected):
        # The ';' is reported once, where it was expected, and the item after
        # it is still read: every block holds what it holds with the ';'. A
        # list ends at an item keyword followed by the tokens its item starts
        # with.
        assert RING.count(item) == 1
        broken = RING.replace(item, item[:-1])
        got = [(d.message, d.line, d.column) for d in parse(broken).diagnostics]
        assert got == [expected]
        assert block_contents(broken) == block_contents(RING)

    def test_any_one_missing_semicolon_draws_one_error(self, ejemplo5_path, reference_path):
        # Every ';' of each clean text, dropped alone: one error where it was
        # expected, and nothing lost with it, so no check downstream fails. An
        # energy block's last field, before its '}', keeps its value too.
        texts = [path.read_text(encoding="utf-8") for path in (ejemplo5_path, reference_path)]
        texts += [docgen.random_document_text(seed) for seed in range(10)]
        dropped = 0
        for text in texts:
            _, tokens = read_tokens(text)
            for offset in [offset for *tok, offset in tokens if tok == ["punct", ";"]]:
                broken = text[:offset] + text[offset + 1 :]
                errors = [d.message for d in parse(broken).errors]
                assert len(errors) == 1 and errors[0].startswith("expected ';', found "), (
                    errors,
                    broken[offset - 40 : offset + 10],
                )
                dropped += 1
        assert dropped == 620

    @pytest.mark.parametrize(
        "item, repeat, expected",
        [
            (
                "initial: s0;",
                "initial: s1",
                [("duplicate 'initial' item", 5, 3), ("expected ';', found 'neutral_act'", 6, 3)],
            ),
            (
                "neutral_act: stay;",
                "neutral_act: go",
                [("duplicate 'neutral_act' item", 6, 3), ("expected ';', found 'classify'", 7, 3)],
            ),
            (
                "architecture: random;",
                "architecture: afs1",
                [("duplicate 'architecture' item", 63, 3), ("expected ';', found 'seed'", 64, 3)],
            ),
        ],
        ids=["initial", "neutral_act", "architecture"],
    )
    def test_repeated_single_without_semicolon_keeps_the_first(self, item, repeat, expected):
        # The repeat is reported and its value dropped, and the ';' it lacks
        # is reported where the next item starts, which is still read.
        assert RING.count(item) == 1
        broken = RING.replace(item, f"{item}\n  {repeat}")
        got = [(d.message, d.line, d.column) for d in parse(broken).diagnostics]
        assert got == expected
        assert block_contents(broken) == block_contents(RING)

    @pytest.mark.parametrize(
        "item, expected",
        [
            ("initial: s0;", ("expected ';', found 'stray'", 4, 15)),
            ("transition s0 go s1;", ("expected ';', found 'stray'", 7, 23)),
            ("architecture: random;", ("expected ';', found 'stray'", 62, 24)),
        ],
        ids=["single", "transition", "architecture"],
    )
    def test_stray_identifier_fails_only_its_item(self, item, expected):
        # An identifier in the ';' slot that is no item or block keyword
        # starts nothing: the item fails with one error and is skipped
        # through its ';', and the items after it are still read.
        assert RING.count(item) == 1
        broken = RING.replace(item, item[:-1] + " stray;")
        got = [(d.message, d.line, d.column) for d in parse(broken).diagnostics]
        assert got == [expected]
        assert block_contents(broken) == block_contents(RING)

    def test_list_keeps_a_keyword_that_starts_no_row(self):
        # 'transition b;' is no transition row, so the keyword is a state.
        text = MINI.replace("states: a b;", "states: a transition b;")
        [(_, _, rows)] = block_contents(text)
        assert list(rows["states"]) == ["a", "transition", "b"]
        assert not any(m.startswith("expected") for m in messages(text))

    @pytest.mark.parametrize(
        "old, new, expected",
        [
            (
                "classify positive: s0;\n  transition s0 go s1;",
                "classify positive: s0;\n  transition s0 go\n  s1;",
                ("expected ';', found 'transition'", 7, 3),
            ),
            (
                "classify positive: s0;\n  transition s0 go s1;",
                "classify positive: s0;\n  transition\n  s0 go s1;",
                ("expected ';', found 'transition'", 7, 3),
            ),
            (
                "classify positive: s0;\n  transition s0 go s1;",
                "classify positive: s0;\n  transition s0 go # to s1\n  s1;",
                ("expected ';', found 'transition'", 7, 3),
            ),
            (
                'predict "f0" -> "f0" : go;\n  represents s1 -> "f1";',
                'predict "f0" -> "f0" : go;\n  represents s1\n  -> "f1";',
                ("expected ';', found 'represents'", 34, 3),
            ),
        ],
        ids=["split-after-act", "split-after-keyword", "split-at-comment", "predict-list"],
    )
    def test_list_ends_before_a_row_over_lines(self, old, new, expected):
        # A list that lost its ';' ends at the row after it however the row
        # is laid out, with the one diagnostic and the blocks of the text
        # that keeps its ';'.
        assert RING.count(old) == 1
        kept = RING.replace(old, new)
        broken = RING.replace(old, new.replace(";", "", 1))
        got = [(d.message, d.line, d.column) for d in parse(broken).diagnostics]
        assert got == [expected]
        assert block_contents(broken) == block_contents(kept)

    def test_list_ends_before_its_first_identifier(self):
        # A list line repeated without its identifiers and ';': the empty
        # list ends at the item after it.
        text = RING.replace("  acts: go stay;", "  acts:\n  acts: go stay;")
        got = [(d.message, d.line, d.column) for d in parse(text).diagnostics]
        assert got == [("expected ';', found 'acts'", 4, 3)]
        assert block_contents(text) == block_contents(RING)

    def test_lexical_error_looked_ahead_is_reported_once(self):
        # The '@' after 'acts' is skipped while the states list looks past
        # the keyword, and reported once, when the acts item reads it.
        old = "s9;\n  acts: go stay;"
        assert RING.count(old) == 1
        result = parse(RING.replace(old, "s9\n  acts @: go stay;"))
        got = [(d.message, d.line, d.column) for d in result.diagnostics]
        assert got == [
            ("unexpected character '@'", 3, 8),
            ("expected ';', found 'acts'", 3, 3),
        ]

    def test_bad_item_does_not_eat_the_block(self):
        body = (
            "  architecture: afs1;\n"
            "  nonsense item here;\n"
            '  represents a -> "fa";\n  represents b -> "fb";\n'
            '  react "fa" : hop;'
        )
        result = parse(MINI + agent_block(body))
        assert result.document is None
        assert len(result.errors) == 1


class TestDiagnosticOrder:
    # One agent of each kind; each carries items its kind ignores and at
    # least one error.
    EVERY_KIND = MINI + "".join(
        [
            agent_block(
                '  architecture: random;\n  goal: "fa";\n  seed: 3;\n'
                '  represents zz -> "fa";\n  react "fa" : hop;\n  depth: 2;',
                "drifter",
            ),
            agent_block(
                '  architecture: positional;\n  constant: digits "012";\n  seed: 4;\n'
                '  pool 0 predict "fa" -> "fb" : hop;\n  projection: 2;',
                "replayer",
            ),
            agent_block(
                '  architecture: afs1;\n  depth: 2;\n'
                '  represents a -> "fa";\n  represents b -> "fb";\n'
                '  predict "fa" -> "fb" : hop;\n  react "fa" : fly;\n'
                '  goal: "fb";\n  constant: pi;',
                "reflex",
            ),
            agent_block(
                '  architecture: afs2a;\n  seed: 1;\n'
                '  represents a -> "fa";\n  represents b -> "fb";\n'
                '  react "fa" : hop;\n  pool 0 predict "fa" -> "fb" : hop;\n'
                '  depth: 1;\n  predict "fa" -> "fb" : hop hop;',
                "homing",
            ),
            agent_block(
                '  architecture: afs2b;\n  constant: e;\n'
                '  represents a -> "fa";\n  represents b -> "fb";\n  goal: "far";\n'
                '  pool 1 predict "fa" -> "fb" : hop;\n  predict "fa" -> "fb" : fly;',
                "echo",
            ),
            agent_block(
                '  architecture: afs3a;\n  react "fb" : stay;\n  seed: 9;\n'
                '  represents a -> "fa";\n  represents b -> "fb";\n  goal: "fb";\n'
                '  predict "fa" -> "fb" : hop;\n'
                '  pool 1 predict "fa" -> "fb" : hop;\n  projection: 2;',
                "learner",
            ),
        ]
    )
    # Per agent: "is ignored" warnings in document order, then the checks
    # on its representation rows, then the checks of its kind.
    EXPECTED = [
        ("WARNING", "item 'goal' is ignored for random agents", 21, 3),
        ("WARNING", "representation is ignored for random agents", 23, 14),
        ("WARNING", "react rows are ignored for random agents", 24, 3),
        ("WARNING", "item 'depth' is ignored for random agents", 25, 3),
        ("ERROR", "represented id 'zz' is not a state", 23, 14),
        ("WARNING", "item 'seed' is ignored for positional agents", 30, 3),
        ("WARNING", "pool rows are ignored for positional agents", 31, 3),
        ("WARNING", "item 'projection' is ignored for positional agents", 32, 3),
        ("ERROR", "digit '2' does not fit base 2", 29, 3),
        ("WARNING", "item 'depth' is ignored for afs1 agents", 36, 3),
        ("WARNING", "predict rows are ignored for afs1 agents", 39, 3),
        ("WARNING", "item 'goal' is ignored for afs1 agents", 41, 3),
        ("WARNING", "item 'constant' is ignored for afs1 agents", 42, 3),
        ("ERROR", "react act 'fly' is not a declared act", 40, 3),
        ("WARNING", "item 'seed' is ignored for afs2a agents", 46, 3),
        ("WARNING", "react rows are ignored for afs2a agents", 49, 3),
        ("WARNING", "pool rows are ignored for afs2a agents", 50, 3),
        ("ERROR", "afs2a agent 'homing' declares no goal", 44, 1),
        ("ERROR", "route ('fa', 'fb') is longer than the declared depth 1", 51, 3),
        ("WARNING", "item 'constant' is ignored for afs2b agents", 56, 3),
        ("WARNING", "pool rows are ignored for afs2b agents", 60, 3),
        ("ERROR", "goal 'far' is outside the representation image", 59, 3),
        ("ERROR", "sequence uses undeclared act 'fly'", 61, 3),
        ("WARNING", "react rows are ignored for afs3a agents", 65, 3),
        ("WARNING", "item 'seed' is ignored for afs3a agents", 66, 3),
        ("ERROR", "afs3a routes must carry a pool index (pool N predict ...)", 70, 3),
        ("ERROR", "pool indices must be contiguous from 0, found [1]", 63, 1),
        ("ERROR", "projection 2 exceeds the depth bound 1", 72, 3),
    ]

    def test_full_diagnostic_list(self):
        result = parse(self.EVERY_KIND)
        assert result.document is None
        got = [(d.severity, d.message, d.line, d.column) for d in result.diagnostics]
        assert got == [(Severity[s], m, line, col) for s, m, line, col in self.EXPECTED]


def result_messages(result) -> list[str]:
    return [d.message for d in result.errors]


def read_tokens(text: str):
    """A reader of text and the tokens it reads, through the end of input."""
    reader = _Reader(text)
    tokens = [reader.advance()]
    while tokens[-1][0] != "eof":
        tokens.append(reader.advance())
    return reader, tokens


class TestLexical:
    def test_stray_symbol_reported(self):
        result = parse("universe @ {}\n")
        assert result.document is None
        assert result.errors

    def test_unterminated_string(self):
        result = parse('universe "open {\n')
        assert result.document is None
        assert result.errors

    def test_escaped_quotes_round_trip(self):
        body = (
            "  architecture: afs1;\n"
            '  represents a -> "say \\"hi\\"";\n'
            '  represents b -> "back\\\\slash";'
        )
        doc = clean_parse(MINI + agent_block(body)).document
        rep = dict(doc.agent("crew").representation)
        assert rep["a"] == 'say "hi"'
        assert rep["b"] == "back\\slash"
        again = parse(serialize(doc)).document
        assert again == doc


    def test_reference_tokens_match_pinned_list(self, reference_path):
        # reference_tokens.txt: one "line:column kind value" row per token.
        pinned = Path(__file__).with_name("reference_tokens.txt")
        reader, tokens = read_tokens(reference_path.read_text(encoding="utf-8"))
        assert reader.lexical == reader.diags == []
        got = ["%d:%d %s %r" % (*reader.position(at), kind, value) for kind, value, at in tokens]
        assert got == pinned.read_text(encoding="utf-8").splitlines()

    def test_trailing_blanks_and_comment_end_in_one_eof(self):
        reader, tokens = read_tokens("a \t# note")
        assert [(kind, value, *reader.position(at)) for kind, value, at in tokens] == [
            ("id", "a", 1, 1),
            ("eof", "", 1, 10),
        ]

    def test_non_decimal_digit_is_not_an_integer(self):
        result = parse(MINI.replace("initial: 5;", "initial: ²;"))
        assert result.document is None
        assert result.errors[0].message == "expected an integer, found '²'"
        assert (result.errors[0].line, result.errors[0].column) == (12, 14)

    @needs_int_digit_limit
    def test_over_long_integer_is_a_diagnostic(self):
        digits = "7" * (INT_DIGIT_LIMIT + 1)
        result = parse(MINI.replace("cap: 9;", f"cap: {digits};"))
        assert result.document is None
        first = result.errors[0]
        assert first.message == f"integer of {len(digits)} digits is too long"
        assert (first.line, first.column) == (16, 10)


class TestRoundTrip:
    def test_fixtures_round_trip(self, ejemplo5_path, reference_path):
        for path in (ejemplo5_path, reference_path):
            result = parse_file(path)
            assert result.diagnostics == []
            doc = result.document
            text = serialize(doc)
            again = parse(text)
            assert again.diagnostics == []
            assert again.document == doc
            # Canonical form is a fixed point.
            assert serialize(again.document) == text

    def test_generated_documents_round_trip(self):
        for seed in range(30):
            text = docgen.random_document_text(seed)
            result = parse(text)
            assert result.errors == [], (seed, result_messages(result))
            doc = result.document
            again = parse(serialize(doc)).document
            assert again == doc, seed

    @pytest.mark.parametrize("states", ["x transition y z", "x y z transition a"])
    def test_list_holding_transition_round_trips(self, states):
        # Sorted, 'transition' would stand before three states and the list's
        # ';', which read as a transition row: serialize writes it last in
        # the states and classify lists.
        text = (
            f'universe "u" {{\n  states: {states};\n  acts: go;\n  initial: x;\n'
            f"  neutral_act: go;\n  classify positive: {states};\n"
            + "".join(f"  transition {s} go {s};\n" for s in states.split())
            + "  energy { initial: 5; per_step: 1; negative_penalty: 0;"
            " positive_reward: 0; cap: 9; }\n}\n"
        )
        doc = clean_parse(text).document
        again = parse(serialize(doc))
        assert again.diagnostics == []
        assert again.document == doc

    def test_serializer_is_deterministic(self, ejemplo5_doc):
        assert serialize(ejemplo5_doc) == serialize(ejemplo5_doc)


# Letters, keywords, digits (decimal and not) and every character the
# format gives a meaning to.
_PIECES = [
    *"abxz_0123456789",
    "universe", "agent", "in", "energy", "cap", "architecture", "afs3a",
    "pool", "predict", "represents", "digits",
    "²", "٣", '"', "\\", "#", "->", "{", "}", ";", ":", " ", "\n",
]
# Prefixes that put the random tail inside a universe's energy block or
# inside an agent block.
_PREFIXES = [
    "",
    'universe "u" {\n  energy {\n    initial: ',
    MINI + 'agent "x" in "mini" {\n  architecture: afs3a;\n  ',
]


DIAGNOSTICS_SHA256 = "81b8a9d015729da9b391ed4fab4f9e09666dd7ccdda9369c2dd5b0ac87cd764f"


@pytest.fixture(scope="module")
def pinned_texts(ejemplo5_path, reference_path) -> list[str]:
    """The fixtures and 50 generated documents, each followed by 15 of its
    mutations."""
    bases = [path.read_text(encoding="utf-8") for path in (ejemplo5_path, reference_path)]
    bases += [docgen.random_document_text(seed) for seed in range(50)]
    return [
        text
        for base_i, base in enumerate(bases)
        for text in [base] + [docgen.mutate_text(base, base_i * 15 + i) for i in range(15)]
    ]


class TestFuzz:
    def test_mutations_never_crash(self, ejemplo5_path, reference_path):
        bases = [
            ejemplo5_path.read_text(encoding="utf-8"),
            reference_path.read_text(encoding="utf-8"),
        ]
        bases += [docgen.random_document_text(seed) for seed in range(8)]
        tried = ran = 0
        for base_i, base in enumerate(bases):
            for seed in range(15):
                mutated = docgen.mutate_text(base, seed * 31 + base_i)
                result = parse(mutated)
                # Withholding is exactly synchronized with errors.
                assert (result.document is None) == bool(result.errors)
                if result.document is not None:
                    # An accepted document is runnable: the checker is the
                    # one definition of a well-formed model.
                    for decl in result.document.agents:
                        agent, universe = result.document.build_agent(decl.name)
                        try:
                            run_trajectory(universe, agent, 100, seed=1)
                        except DigitSourceExhausted:
                            pass
                        ran += 1
                tried += 1
        assert tried == 150
        assert ran > 0

    def test_diagnostics_stream_is_pinned(self, pinned_texts):
        # Every diagnostic, rendered in order, over the pinned texts. The
        # hash pins positions and order, which the per-rule tables only
        # sample.
        digest = hashlib.sha256()
        for text in pinned_texts:
            for d in parse(text).diagnostics:
                digest.update(d.render().encode() + b"\n")
        assert digest.hexdigest() == DIAGNOSTICS_SHA256

    def test_layout_never_changes_meaning(self, pinned_texts):
        # Each pinned text rebuilt with a line break between every two of its
        # lexemes draws the same diagnostics, positions aside, and reads to an
        # equal document. The lexer ends an unterminated string at its line's
        # end, so a rebuild would change that string: such texts are skipped.
        lex = re.compile(dsl._TOKEN, re.VERBOSE).match
        rebuilt = 0
        for text in pinned_texts:
            matches, offset = [], 0
            while (m := lex(text, offset)).lastgroup != "eof":
                matches.append(m)
                offset = m.end()
            if any(m.lastgroup == "string" and not m["end"] for m in matches):
                continue
            result = parse(text)
            split = parse("\n".join(m[m.lastgroup] for m in matches))
            assert [(d.severity, d.message) for d in split.diagnostics] == [
                (d.severity, d.message) for d in result.diagnostics
            ], text
            assert split.document == result.document
            rebuilt += 1
        assert rebuilt == 765

    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from(_PREFIXES),
        st.lists(st.sampled_from(_PIECES), max_size=60).map("".join),
    )
    def test_parse_never_raises(self, prefix, tail):
        text = prefix + tail
        result = parse(text)
        assert (result.document is None) == bool(result.errors)


def _no_rows(reader, block, offset):
    """_Reader._rows reading no row: with it, parse() reads every item by
    tokens, the reference the row patterns are checked against."""
    return offset


def same_reading(text: str):
    """parse(text), checked against reading every item of text by tokens:
    the same diagnostics at the same positions, and the same document."""
    result = parse(text)
    with mock.patch.object(dsl._Reader, "_rows", _no_rows):
        by_tokens = parse(text)
    assert result.diagnostics == by_tokens.diagnostics
    assert result.document == by_tokens.document
    return result


# The items that have a pattern (dsl._ITEMS); every other item, react rows
# among them, is read by tokens.
_ROW_WORDS = {"transition", "states", "acts", "classify", "represents", "predict", "pool"}


def rows_by_tokens(text: str) -> list[str]:
    """The keyword of each item with a pattern that parse(text) reads by
    tokens."""
    heads: list[str] = []

    def recording(read_item):
        def read(self, block, head):
            if head[1] in _ROW_WORDS:
                heads.append(head[1])
            return read_item(self, block, head)

        return read

    with mock.patch.multiple(
        dsl._Reader,
        _uitem=recording(dsl._Reader._uitem),
        _aitem=recording(dsl._Reader._aitem),
    ):
        parse(text)
    return heads


def counted_parse(text: str):
    """parse(text), and how many times it read tokens (_Reader.read calls)."""
    calls = 0
    read = dsl._Reader.read

    def counted(self, *pattern):
        nonlocal calls
        calls += 1
        return read(self, *pattern)

    with mock.patch.object(dsl._Reader, "read", counted):
        return parse(text), calls


class TestCleanReader:
    def test_reads_what_the_token_reader_reads(self, ejemplo5_path, reference_path):
        # Both fixtures and 300 canonical serializations, each with 3 of its
        # 15 mutations, each with '\n' and with '\r\n' line ends. Every
        # transition, represents and predict row and every states, acts and
        # classify list of an unmutated text reads by pattern.
        bases = [path.read_text(encoding="utf-8") for path in (ejemplo5_path, reference_path)]
        bases += [serialize(parse(docgen.random_document_text(s)).document) for s in range(300)]
        mutants = withheld = 0
        for base_i, base in enumerate(bases):
            for variant in (base, base.replace("\n", "\r\n")):
                assert same_reading(variant).diagnostics == [], base_i
                assert rows_by_tokens(variant) == [], base_i
            for i in range(15):
                if (base_i + i) % 5:
                    continue
                text = docgen.mutate_text(base, base_i * 15 + i)
                for variant in (text, text.replace("\n", "\r\n")):
                    withheld += same_reading(variant).document is None
                    mutants += 1
        assert mutants == 302 * 3 * 2
        # Both withheld and accepted mutants are compared.
        assert 0 < withheld < mutants

    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from(_PREFIXES),
        st.lists(st.sampled_from(_PIECES), max_size=60).map("".join),
    )
    def test_reads_what_the_token_reader_reads_on_pieces(self, prefix, tail):
        same_reading(prefix + tail)

    # Clean: the text draws no diagnostic and reads its rows and lists by
    # pattern, with no token read beyond MINI's. A list takes one space or tab
    # between its ids.
    @pytest.mark.parametrize(
        "old, new, clean",
        [
            ("    per_step: 1;", "    per_step: 1; # note", True),
            ("transition a stay a;", "transition\ta  stay a ;", True),
            ("initial: 5;", "initial:5;", True),
            ("states: a b;", "states: a b a;", False),
            ("states: a b;", "states: a\tb ;", True),
            ("classify positive: b;", "classify\tpositive :b;", True),
            ("states: a b;", "states: a  b;", False),
            ("states: a b;", "states: a # c\n b;", False),
            ("states: a b;", "states: a transition b c d;", False),
            ("states: a b;", "states: a transition b;", False),
            ("transition b hop a;", "transition b hop a; transition b hop a;", False),
            ("classify positive: b;", "classify positive: b; classify negative: b;", False),
            ("neutral_act: stay;", "neutral_act: stay; neutral_act: stay;", False),
            ("transition a stay a;", "transition a stay # note\n a;", False),
            ("transition a stay a;", "transition a\rstay a;", False),
            ("transition a stay a;", "transition a stay a", False),
            ("cap: 9;", "cap: " + "9" * 641 + ";", True),
        ],
    )
    def test_takes_only_items_in_one_line_form(self, old, new, clean):
        text = MINI.replace(old, new)
        result = same_reading(text)
        reads = counted_parse(text)[1]
        assert (not result.diagnostics and reads == counted_parse(MINI)[1]) is clean

    @pytest.mark.parametrize(
        "new, diagnostics",
        [
            # The token path ends the list before a transition row and
            # reports the ';' it lacks there.
            ("states: a transition b c d;", ["expected ';', found 'transition'"]),
            # Followed by less than a transition row, the word is a state.
            ("states: a transition b;", ["no transition declared for ('transition', 'hop')"]),
        ],
    )
    def test_reads_a_list_holding_an_item_word_by_tokens(self, new, diagnostics):
        text = MINI.replace("states: a b;", new)
        assert rows_by_tokens(text) == ["states"]
        found = [d.message for d in same_reading(text).diagnostics]
        assert found[: len(diagnostics)] == diagnostics

    @pytest.mark.parametrize(
        "old, new, expected",
        [
            ("states: a b;", "states: a b a;", ("WARNING", "state 'a' listed twice", 2, 15)),
            (
                "acts: stay hop;",
                "acts: stay\thop stay;",
                ("WARNING", "act 'stay' listed twice", 3, 18),
            ),
            (
                "transition b hop a;",
                "transition b hop a; transition b hop a;",
                ("WARNING", "transition ('b', 'hop') declared twice", 10, 34),
            ),
            (
                "classify positive: b;",
                "classify positive: b; classify negative: b;",
                ("ERROR", "state 'b' classified both positive and negative", 6, 44),
            ),
        ],
    )
    def test_reads_repeated_rows_by_pattern(self, old, new, expected):
        # A repeated row or list id draws the diagnostic the token path draws,
        # at the same line and column, and every row and list reads by its
        # pattern.
        text = MINI.replace(old, new)
        assert rows_by_tokens(text) == []
        diags = same_reading(text).diagnostics
        assert [(d.severity.name, d.message, d.line, d.column) for d in diags] == [expected]

    def test_token_reads_do_not_grow_with_rows(self):
        # Headers, singles and energy blocks are read by tokens; transition,
        # represents and predict rows and one-line lists are not, and a list
        # read by tokens takes one loop over its identifiers, so a ring of 1000
        # states takes as many token reads as one of 100. A row missing its
        # ';' is read by tokens alone.
        reads = {}
        for n in (100, 1000):
            result, reads[n] = counted_parse(ring_document(n))
            assert result.diagnostics == []
            assert len(result.document.universe("ring").states) == n
        assert reads[100] == reads[1000]
        text = ring_document(1000).replace("transition s500 go s501;", "transition s500 go s501")
        result, broken = counted_parse(text)
        assert result.document is None
        assert reads[1000] < broken < reads[1000] + 5


class TestCollectorPause:
    """parse pauses the cyclic collector while its reader runs and leaves
    it as the caller had it."""

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    def test_state_is_restored(self, enabled, keep_collector_state, monkeypatch):
        seen = []
        real = _Reader.check

        def check(reader):
            seen.append(gc.isenabled())
            if reader.text == "boom":
                raise RuntimeError("boom")
            return real(reader)

        monkeypatch.setattr(_Reader, "check", check)
        (gc.enable if enabled else gc.disable)()
        # A clean document, a withheld one, and a reader that raises.
        assert parse(MINI).document is not None
        assert gc.isenabled() is enabled
        assert parse(MINI.replace("initial: a;", "initial: zz;")).document is None
        assert gc.isenabled() is enabled
        with pytest.raises(RuntimeError, match="boom"):
            parse("boom")
        assert gc.isenabled() is enabled
        assert seen == [False, False, False]


class FsPath:
    """The least os.PathLike: its str() is not its path."""

    def __init__(self, path) -> None:
        self.path = os.fspath(path)

    def __fspath__(self) -> str:
        return self.path


# A path as a library caller may pass it.
PATH_TYPES = pytest.mark.parametrize(
    "as_path", [str, Path, FsPath], ids=["str", "Path", "PathLike"]
)


class TestLoadDocument:
    def test_good_file_loads(self, ejemplo5_path):
        doc = load_document(ejemplo5_path)
        assert doc.universe("ejemplo5").name == "ejemplo5"

    @PATH_TYPES
    def test_any_path_type_reads_the_file(self, as_path, ejemplo5_path):
        expected = parse(ejemplo5_path.read_text(encoding="utf-8"))
        assert parse_file(as_path(ejemplo5_path)) == expected
        assert load_document(as_path(ejemplo5_path)) == expected.document

    @PATH_TYPES
    def test_an_invalid_file_is_named_by_its_path(self, as_path, tmp_path):
        bad = tmp_path / "broken.exo"
        bad.write_text(MINI.replace("initial: a;", "initial: zz;"), encoding="utf-8")
        with pytest.raises(SpecInvalid) as exc:
            load_document(as_path(bad))
        assert exc.value.filename == str(bad)
        assert str(exc.value).startswith(f"{bad}:4:")

    def test_bad_file_raises_with_rendered_errors(self, tmp_path):
        bad = tmp_path / "broken.exo"
        bad.write_text(MINI.replace("initial: a;", "initial: zz;"), encoding="utf-8")
        with pytest.raises(SpecInvalid) as exc:
            load_document(bad)
        assert str(bad) in str(exc.value)
        assert exc.value.diagnostics
        rendered = exc.value.diagnostics[0].render("broken.exo")
        assert rendered.startswith("broken.exo:")
        assert ": error: " in rendered
