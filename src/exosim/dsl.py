"""The .exo declaration language: parser, checker, and serializer.

A document declares universes and the agents that inhabit them. The
format is line-oriented UTF-8 with `#` comments and semicolon-terminated
items. Parsing never throws on bad input: it returns diagnostics with
line and column positions, recovering at item boundaries so one mistake
does not hide the rest; the fields of an energy block recover one by one,
like items, and a block that lost its '}' ends at the next `universe` or
`agent` keyword. A document containing any error is withheld; callers only
ever receive fully checked declarations.

Diagnostics come in this order: lexical errors; then, in document order,
each item's parse errors, with a universe's checks after its block; then
each agent's checks in declaration order. One agent's checks give first an
"is ignored" warning for each item its kind does not read (see _USES), in
document order, then the checks on its representation rows, then the
checks of its kind.

serialize() emits a canonical form (sorted lists, fully explicit
defaults), and parsing a serialized document reproduces it structurally.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import NamedTuple

from .architectures import (
    AgentArchitecture,
    ArchitectureKind,
    PositionalFasa,
    RandomFasa,
    ReactionTable,
    RouteTable,
)
from .digits import ConstantDigits, parse_digit_string
from .representation import Formula, RepresentationMap
from .universe import ActId, EnergyRules, StateClass, StateId, Universe

_ENERGY_FIELDS = ("initial", "per_step", "negative_penalty", "positive_reward", "cap")
_CLASS_WORDS = {
    "positive": StateClass.POSITIVE,
    "neutral": StateClass.NEUTRAL,
    "negative": StateClass.NEGATIVE,
}
_KIND_WORDS = {k.value: k for k in ArchitectureKind}
# Items each kind reads besides its architecture; any other item present
# draws an "is ignored" warning. afs3a reads predict rows only to reject
# them, since its routes must carry a pool index.
_USES: dict[ArchitectureKind, set[str]] = {
    ArchitectureKind.RANDOM: {"seed"},
    ArchitectureKind.POSITIONAL: {"constant"},
    ArchitectureKind.AFS1: {"represents", "projection", "react"},
    ArchitectureKind.AFS2A: {"represents", "projection", "goal", "depth", "predict"},
    ArchitectureKind.AFS2B: {"represents", "projection", "goal", "depth", "predict"},
    ArchitectureKind.AFS3A: {"represents", "projection", "goal", "depth", "predict", "pool"},
}
_ROWS_IGNORED = {
    "represents": "representation is",
    "react": "react rows are",
    "predict": "predict rows are",
    "pool": "pool rows are",
}
_EXPECTED = {"id": "an identifier", "string": "a quoted string", "int": "an integer"}


class Severity(Enum):
    ERROR = "error"
    WARNING = "warning"


@dataclass(frozen=True)
class ParseDiagnostic:
    severity: Severity
    message: str
    line: int
    column: int

    def render(self, filename: str = "<string>") -> str:
        return f"{filename}:{self.line}:{self.column}: {self.severity.value}: {self.message}"


class SpecInvalid(Exception):
    """A document needed for an operation failed to parse cleanly."""

    def __init__(self, filename: str, diagnostics: list[ParseDiagnostic]):
        self.filename = filename
        self.diagnostics = diagnostics
        lines = [d.render(filename) for d in diagnostics if d.severity is Severity.ERROR]
        super().__init__("\n".join(lines) or f"{filename}: invalid document")


# ---------------------------------------------------------------------------
# Declarations. These are the structural content of a document; spans are
# excluded from equality so round-tripped documents compare equal.


@dataclass(frozen=True)
class UniverseDecl:
    name: str
    states: tuple[StateId, ...]
    acts: tuple[ActId, ...]
    initial: StateId
    neutral_act: ActId
    classes: tuple[tuple[StateId, str], ...]
    transitions: tuple[tuple[StateId, ActId, StateId], ...]
    energy: tuple[int, int, int, int, int]

    def build(self) -> Universe:
        return Universe(
            name=self.name,
            states=frozenset(self.states),
            acts=frozenset(self.acts),
            initial=self.initial,
            neutral_act=self.neutral_act,
            transitions={(s, a): t for s, a, t in self.transitions},
            classes={s: StateClass(c) for s, c in self.classes},
            energy=EnergyRules(*self.energy),
        )


@dataclass(frozen=True)
class AgentDecl:
    name: str
    universe_name: str
    kind: ArchitectureKind
    seed: int | None = None
    depth: int | None = None
    projection: int | None = None
    constant: tuple[str, str | None] | None = None
    goal: Formula | None = None
    representation: tuple[tuple[StateId, Formula], ...] = ()
    react_rows: tuple[tuple[Formula, ActId], ...] = ()
    predict_rows: tuple[tuple[Formula, Formula, tuple[ActId, ...]], ...] = ()
    pool_rows: tuple[tuple[int, Formula, Formula, tuple[ActId, ...]], ...] = ()

    def build(self, universe: Universe) -> AgentArchitecture:
        act_order = tuple(sorted(universe.acts))
        if self.kind is ArchitectureKind.RANDOM:
            fasa = RandomFasa(seed=self.seed or 0, act_order=act_order)
            return AgentArchitecture(name=self.name, kind=self.kind, random_fasa=fasa)
        if self.kind is ArchitectureKind.POSITIONAL:
            kind, payload = self.constant or ("pi", None)
            if kind == "digits":
                source = parse_digit_string(payload or "", len(act_order))
            else:
                source = ConstantDigits(kind, len(act_order))
            fasa = PositionalFasa(source=source, act_order=act_order)
            return AgentArchitecture(name=self.name, kind=self.kind, positional_fasa=fasa)
        reaction = routes = None
        pool: tuple[RouteTable, ...] = ()
        if self.kind is ArchitectureKind.AFS1:
            reaction = ReactionTable(dict(self.react_rows))
        elif self.kind in (ArchitectureKind.AFS2A, ArchitectureKind.AFS2B):
            routes = RouteTable(
                {(s, g): seq for s, g, seq in self.predict_rows},
                depth_max=self.depth or 1,
            )
        else:
            pool = tuple(
                RouteTable(
                    {(s, g): seq for i, s, g, seq in self.pool_rows if i == index},
                    depth_max=self.depth or 1,
                )
                for index in range(max((i for i, *_ in self.pool_rows), default=-1) + 1)
            )
        return AgentArchitecture(
            name=self.name,
            kind=self.kind,
            representation=RepresentationMap(dict(self.representation)),
            projection_index=self.projection or 1,
            reaction=reaction,
            routes=routes,
            goal=self.goal,
            candidate_pool=pool,
        )


@dataclass(frozen=True)
class SpecDocument:
    universes: tuple[UniverseDecl, ...]
    agents: tuple[AgentDecl, ...]
    source_spans: dict = field(default_factory=dict, compare=False, repr=False)

    def universe(self, name: str) -> UniverseDecl:
        for u in self.universes:
            if u.name == name:
                return u
        raise KeyError(name)

    def agent(self, name: str) -> AgentDecl:
        for a in self.agents:
            if a.name == name:
                return a
        raise KeyError(name)

    def build_universe(self, name: str) -> Universe:
        return self.universe(name).build()

    def build_agent(self, name: str) -> tuple[AgentArchitecture, Universe]:
        decl = self.agent(name)
        universe = self.build_universe(decl.universe_name)
        return decl.build(universe), universe


@dataclass(frozen=True)
class ParseResult:
    document: SpecDocument | None
    diagnostics: list[ParseDiagnostic]

    @property
    def errors(self) -> list[ParseDiagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.ERROR]


# ---------------------------------------------------------------------------
# Lexer


class _Token(NamedTuple):
    kind: str  # id, string, int, punct, eof
    value: str | int  # expect() returns int tokens with an int value
    line: int
    column: int


# Each match is one token with the blanks and comment before it. `eof`
# matches at the end of the text, so trailing blanks never come back as
# `other` tokens.
_TOKEN_RE = re.compile(
    r"""
    [\ \t\r]*(?:\#[^\n]*)?
    (?: (?P<newline>\n)
      | (?P<string>"(?P<body>(?:\\["\\]|[^"\n])*)(?P<end>"?))
      | (?P<int>\d+)
      | (?P<id>[^\W\d]\w*)
      | (?P<punct>->|[{};:])
      | (?P<other>[^\ \t\r\#\n])
      | (?P<eof>\Z)
    )
    """,
    re.VERBOSE,
)
_ESCAPE_RE = re.compile(r'\\(["\\])')


def _lex(text: str, diags: list[ParseDiagnostic]) -> list[_Token]:
    tokens: list[_Token] = []
    line, line_start = 1, 0
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        column = m.start(kind) - line_start + 1
        if kind == "newline":
            line, line_start = line + 1, m.end()
        elif kind == "string":
            if not m["end"]:
                diags.append(
                    ParseDiagnostic(Severity.ERROR, "unterminated string", line, column)
                )
            tokens.append(_Token(kind, _ESCAPE_RE.sub(r"\1", m["body"]), line, column))
        elif kind == "other":
            diags.append(
                ParseDiagnostic(
                    Severity.ERROR, f"unexpected character {m[kind]!r}", line, column
                )
            )
        else:
            tokens.append(_Token(kind, m[kind], line, column))
            if kind == "eof":  # blanks before the end match it twice
                break
    return tokens


# ---------------------------------------------------------------------------
# Parser


class _ItemError(Exception):
    """Internal: abandon the current item and resynchronize."""


@dataclass
class _Block:
    """A universe or agent block as read, before its checks. Agent rows are
    lists in document order, each row ending with its token; a universe keys
    its states, acts, classify and transition rows, so repeats are reported
    as read."""

    keyword: _Token  # 'universe' or 'agent'; block-level checks point here
    name: str
    universe_name: str | None  # agents only
    rows: dict[str, list | dict]
    singles: dict[str, tuple[object, _Token]] = field(default_factory=dict)


class _Parser:
    def __init__(self, text: str):
        self.diags: list[ParseDiagnostic] = []
        self.tokens = _lex(text, self.diags)
        self.pos = 0

    # -- token plumbing ----------------------------------------------------

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def at_punct(self, value: str) -> bool:
        tok = self.peek()
        return tok.kind == "punct" and tok.value == value

    def at_id(self, value: str) -> bool:
        tok = self.peek()
        return tok.kind == "id" and tok.value == value

    def at_block(self) -> bool:
        """At a 'universe' or 'agent' keyword, where a block starts."""
        tok = self.peek()
        return tok.kind == "id" and tok.value in ("universe", "agent")

    def error(self, message: str, tok: _Token | None = None) -> None:
        tok = tok or self.peek()
        self.diags.append(ParseDiagnostic(Severity.ERROR, message, tok.line, tok.column))

    def warn(self, message: str, tok: _Token) -> None:
        self.diags.append(ParseDiagnostic(Severity.WARNING, message, tok.line, tok.column))

    def fail(self, message: str, tok: _Token | None = None) -> None:
        self.error(message, tok)
        raise _ItemError()

    def expect_punct(self, value: str) -> _Token:
        if not self.at_punct(value):
            tok = self.peek()
            self.fail(f"expected {value!r}, found {self._describe(tok)}", tok)
        return self.advance()

    def expect(self, kind: str) -> _Token:
        """Consume a token of kind id, string or int. An int token comes
        back with its value converted to int."""
        tok = self.peek()
        if tok.kind != kind:
            self.fail(f"expected {_EXPECTED[kind]}, found {self._describe(tok)}", tok)
        if kind == "int":
            try:
                tok = tok._replace(value=int(tok.value))
            except ValueError:  # longer than sys.get_int_max_str_digits()
                self.fail(f"integer of {len(tok.value)} digits is too long", tok)
        self.advance()
        return tok

    @staticmethod
    def _describe(tok: _Token) -> str:
        if tok.kind == "eof":
            return "end of input"
        if tok.kind == "string":
            return f'string "{tok.value}"'
        return f"{tok.value!r}"

    def skip_item(self) -> None:
        """Resynchronize after an item error: consume through the next ';'
        but stop short of a closing '}' or a block keyword. Always makes
        progress unless it stops there, and the block loop stops there too,
        so a stray token can never wedge it."""
        first = True
        while True:
            tok = self.peek()
            if tok.kind == "eof" or (tok.kind == "punct" and tok.value == "}"):
                return
            if self.at_block() or (tok.kind == "punct" and tok.value == "{" and not first):
                return
            first = False
            self.advance()
            if tok.kind == "punct" and tok.value == ";":
                return

    # -- document ----------------------------------------------------------

    def parse_document(self) -> tuple[SpecDocument | None, list[ParseDiagnostic]]:
        universes: list[UniverseDecl] = []
        agents: list[_Block] = []
        spans: dict = {}
        while self.peek().kind != "eof":
            if self.at_block():
                block = self._parse_block()
                if block is None:
                    continue
                if block.keyword.value == "agent":
                    agents.append(block)
                    continue
                decl = self._resolve_universe(block)
                if decl is None:
                    continue
                if any(u.name == decl.name for u in universes):
                    self.error(f"duplicate universe {decl.name!r}", block.keyword)
                else:
                    universes.append(decl)
                    spans[("universe", decl.name)] = (block.keyword.line, block.keyword.column)
            else:
                self.error(
                    f"expected 'universe' or 'agent', found {self._describe(self.peek())}"
                )
                self.advance()
                while self.peek().kind != "eof" and not self.at_block():
                    self.advance()
        decls: list[AgentDecl] = []
        seen: set[str] = set()
        for block in agents:
            decl = self._resolve_agent(block, universes)
            if decl is None:
                continue
            if decl.name in seen:
                self.error(f"duplicate agent {decl.name!r}", block.keyword)
                continue
            seen.add(decl.name)
            spans[("agent", decl.name)] = (block.keyword.line, block.keyword.column)
            decls.append(decl)
        if any(d.severity is Severity.ERROR for d in self.diags):
            return None, self.diags
        doc = SpecDocument(tuple(universes), tuple(decls), spans)
        return doc, self.diags

    def _parse_block(self) -> _Block | None:
        """Read a universe or agent block: its header, then its items up to
        the closing '}'. A bad header is skipped like a bad item."""
        keyword = self.advance()
        universe_name = None
        try:
            name = self.expect("string").value
            if keyword.value == "agent":
                in_tok = self.expect("id")
                if in_tok.value != "in":
                    self.fail(f"expected 'in', found {in_tok.value!r}", in_tok)
                universe_name = self.expect("string").value
            self.expect_punct("{")
        except _ItemError:
            self.skip_item()
            return None
        if keyword.value == "universe":
            what, parse_item = "a universe item", self._parse_uitem
            rows = {"states": {}, "acts": {}, "classify": {}, "transition": {}}
        else:
            what, parse_item = "an agent item", self._parse_aitem
            rows = {item: [] for item in _ROWS_IGNORED}
        block = _Block(keyword, name, universe_name, rows)
        # A block keyword where an item should start means this block lost
        # its '}': end it there, so the next block reads as a block.
        while not (self.at_punct("}") or self.peek().kind == "eof" or self.at_block()):
            tok = self.peek()
            try:
                if tok.kind != "id":
                    self.fail(f"expected {what}, found {self._describe(tok)}")
                parse_item(block, self.advance())
            except _ItemError:
                self.skip_item()
        if self.at_punct("}"):
            self.advance()
        elif self.peek().kind == "eof":
            self.error(f"unterminated {keyword.value} block: missing '}}'")
        else:
            self.error(
                f"unterminated {keyword.value} block: missing '}}' before "
                f"{self._describe(self.peek())}"
            )
        return block

    # -- universe ----------------------------------------------------------

    def _parse_uitem(self, block: _Block, head: _Token) -> None:
        if head.value in ("states", "acts"):
            self.expect_punct(":")
            target = block.rows[head.value]
            for ident, id_tok in self._id_list(head.value):
                if ident in target:
                    self.warn(f"{head.value[:-1]} {ident!r} listed twice", id_tok)
                else:
                    target[ident] = id_tok
            self.expect_punct(";")
        elif head.value in ("initial", "neutral_act"):
            self.expect_punct(":")
            ident = self.expect("id")
            if head.value in block.singles:
                self.fail(f"duplicate {head.value!r} item", head)
            block.singles[head.value] = (ident.value, ident)
            self.expect_punct(";")
        elif head.value == "classify":
            word = self.expect("id")
            if word.value not in _CLASS_WORDS:
                self.fail(
                    f"expected 'positive', 'neutral' or 'negative', found {word.value!r}",
                    word,
                )
            self.expect_punct(":")
            classes = block.rows["classify"]
            for ident, id_tok in self._id_list("classified states"):
                if ident in classes and classes[ident][0] != word.value:
                    self.error(
                        f"state {ident!r} classified both {classes[ident][0]} and {word.value}",
                        id_tok,
                    )
                elif ident in classes:
                    self.warn(f"state {ident!r} classified twice", id_tok)
                else:
                    classes[ident] = (word.value, id_tok)
            self.expect_punct(";")
        elif head.value == "transition":
            src = self.expect("id")
            act = self.expect("id")
            dst = self.expect("id")
            key = (src.value, act.value)
            transitions = block.rows["transition"]
            if key in transitions and transitions[key][0] != dst.value:
                self.error(
                    f"conflicting transition for ({src.value!r}, {act.value!r})", src
                )
            elif key in transitions:
                self.warn(
                    f"transition ({src.value!r}, {act.value!r}) declared twice", src
                )
            else:
                transitions[key] = (dst.value, src)
            self.expect_punct(";")
        elif head.value == "energy":
            self.expect_punct("{")
            values: list[int | None] = []
            # Each field is an item of its own. Reading stops after the last
            # field or at a block keyword, so a missing '}' does not swallow
            # the items or blocks after it.
            while len(values) < len(_ENERGY_FIELDS) and self.peek().kind != "eof":
                if self.at_punct("}") or self.at_block():
                    break
                try:
                    self._energy_field(values)
                except _ItemError:
                    self.skip_item()
            missing = _ENERGY_FIELDS[len(values) :]
            if missing:
                self.error(f"energy block is missing the {missing[0]!r} field", head)
            if self.at_punct("}"):
                self.advance()
            else:
                self.error(f"expected '}}', found {self._describe(self.peek())}")
            if "energy" in block.singles:
                self.error("duplicate energy block", head)
            else:
                # None stands for a block with a bad or missing field.
                energy = None if missing or None in values else tuple(values)
                block.singles["energy"] = (energy, head)
        else:
            self.fail(f"unknown universe item {head.value!r}", head)

    def _id_list(self, what: str) -> list[tuple[str, _Token]]:
        ids = []
        while self.peek().kind == "id":
            tok = self.advance()
            ids.append((tok.value, tok))
        if not ids:
            self.fail(f"expected at least one identifier in {what}")
        return ids

    def _energy_field(self, values: list[int | None]) -> None:
        """Parse the next 'label: value;' field of an energy block into
        values; a bad field leaves None in its slot."""
        values.append(None)
        label = self.expect("id")
        expected = _ENERGY_FIELDS[len(values) - 1]
        if label.value != expected:
            # The field order is part of the format.
            self.fail(f"energy field {expected!r} expected here, found {label.value!r}", label)
        self.expect_punct(":")
        value = self.expect("int").value
        if self.peek().kind != "id":
            self.expect_punct(";")
            values[-1] = value
        else:  # only the ';' is missing: the next field keeps its own slot
            self.error(f"expected ';', found {self._describe(self.peek())}")

    def _resolve_universe(self, block: _Block) -> UniverseDecl | None:
        name, singles = block.name, block.singles
        classes, transitions = block.rows["classify"], block.rows["transition"]
        rejected = False

        def error(message: str, tok: _Token = block.keyword) -> None:
            nonlocal rejected
            rejected = True
            self.error(message, tok)

        for item in ("states", "acts"):
            if not block.rows[item]:
                error(f"universe {name!r} declares no {item}")
        for item in ("initial", "neutral_act"):
            if item not in singles:
                error(f"universe {name!r} is missing the {item!r} item")
        if "energy" not in singles:
            error(f"universe {name!r} is missing its energy block")
        state_set, act_set = set(block.rows["states"]), set(block.rows["acts"])
        if "initial" in singles:
            value, tok = singles["initial"]
            if value not in state_set:
                error(f"initial state {value!r} is not a declared state", tok)
        if "neutral_act" in singles:
            value, tok = singles["neutral_act"]
            if value not in act_set:
                error(f"neutral act {value!r} is not a declared act", tok)
        for ident, (word, tok) in sorted(classes.items()):
            if ident not in state_set:
                error(f"classified id {ident!r} is not a declared state", tok)
        for (src, act), (dst, tok) in sorted(transitions.items()):
            for ident, pool, what in (
                (src, state_set, "state"),
                (act, act_set, "act"),
                (dst, state_set, "state"),
            ):
                if ident not in pool:
                    error(f"transition uses undeclared {what} {ident!r}", tok)
        for s in sorted(state_set):
            for a in sorted(act_set):
                if (s, a) not in transitions:
                    error(f"no transition declared for ({s!r}, {a!r})")
        # A bad energy field was reported where it was read.
        energy = singles.get("energy", (None,))[0]
        if energy is not None:
            initial, per_step, penalty, reward, cap = energy
            if initial <= 0:
                error("energy initial must be positive")
            if cap < initial:
                error("energy cap must be at least the initial energy")
        if rejected or energy is None:
            return None
        full_classes = tuple(
            (s, classes[s][0] if s in classes else "neutral") for s in sorted(state_set)
        )
        return UniverseDecl(
            name=name,
            states=tuple(sorted(state_set)),
            acts=tuple(sorted(act_set)),
            initial=singles["initial"][0],
            neutral_act=singles["neutral_act"][0],
            classes=full_classes,
            transitions=tuple(
                (s, a, transitions[(s, a)][0]) for (s, a) in sorted(transitions)
            ),
            energy=energy,
        )

    # -- agent ---------------------------------------------------------------

    def _parse_aitem(self, block: _Block, head: _Token) -> None:
        if head.value == "architecture":
            self.expect_punct(":")
            word = self.expect("id")
            if word.value not in _KIND_WORDS:
                self.fail(f"unknown architecture {word.value!r}", word)
            self._set_single(block, "architecture", word.value, head)
            self.expect_punct(";")
        elif head.value in ("seed", "depth", "projection"):
            self.expect_punct(":")
            value = self.expect("int").value
            self._set_single(block, head.value, value, head)
            self.expect_punct(";")
        elif head.value == "constant":
            self.expect_punct(":")
            word = self.expect("id")
            if word.value in ("pi", "e"):
                value: tuple[str, str | None] = (word.value, None)
            elif word.value == "digits":
                value = ("digits", self.expect("string").value)
            else:
                self.fail(f"expected 'pi', 'e' or 'digits', found {word.value!r}", word)
            self._set_single(block, "constant", value, head)
            self.expect_punct(";")
        elif head.value == "goal":
            self.expect_punct(":")
            value = self.expect("string").value
            self._set_single(block, "goal", value, head)
            self.expect_punct(";")
        elif head.value == "represents":
            state = self.expect("id")
            self.expect_punct("->")
            formula = self.expect("string")
            block.rows["represents"].append((state.value, formula.value, state))
            self.expect_punct(";")
        elif head.value == "react":
            formula = self.expect("string")
            self.expect_punct(":")
            act = self.expect("id")
            block.rows["react"].append((formula.value, act.value, head))
            self.expect_punct(";")
        elif head.value == "predict":
            self._parse_predict_tail(block, None, head)
        elif head.value == "pool":
            index = self.expect("int").value
            word = self.expect("id")
            if word.value != "predict":
                self.fail(f"expected 'predict' after pool index, found {word.value!r}", word)
            self._parse_predict_tail(block, index, head)
        else:
            self.fail(f"unknown agent item {head.value!r}", head)

    def _parse_predict_tail(
        self, block: _Block, pool_index: int | None, head: _Token
    ) -> None:
        source = self.expect("string")
        self.expect_punct("->")
        goal = self.expect("string")
        self.expect_punct(":")
        acts = self._id_list("predicted act sequence")
        row = (source.value, goal.value, tuple(a for a, _ in acts), head)
        if pool_index is None:
            block.rows["predict"].append(row)
        else:
            block.rows["pool"].append((pool_index, *row))
        self.expect_punct(";")

    def _set_single(self, block: _Block, key: str, value, tok: _Token) -> None:
        if key in block.singles:
            self.error(f"duplicate {key!r} item", tok)
        else:
            block.singles[key] = (value, tok)

    # -- agent resolution ------------------------------------------------------

    def _resolve_agent(
        self, block: _Block, universes: list[UniverseDecl]
    ) -> AgentDecl | None:
        universe = next((u for u in universes if u.name == block.universe_name), None)
        if universe is None:
            self.error(
                f"agent {block.name!r} inhabits unknown universe {block.universe_name!r}",
                block.keyword,
            )
            return None
        if "architecture" not in block.singles:
            self.error(f"agent {block.name!r} declares no architecture", block.keyword)
            return None
        kind = _KIND_WORDS[block.singles["architecture"][0]]
        rejected = False

        def error(message: str, tok: _Token = block.keyword) -> None:
            nonlocal rejected
            rejected = True
            self.error(message, tok)

        def single(key: str):
            return block.singles[key][0] if key in block.singles else None

        def single_tok(key: str) -> _Token:
            return block.singles[key][1]

        def decl(**fields) -> AgentDecl | None:
            if rejected:
                return None
            return AgentDecl(block.name, block.universe_name, kind, **fields)

        firsts = {key: tok for key, (_, tok) in block.singles.items() if key != "architecture"}
        firsts.update((key, rows[0][-1]) for key, rows in block.rows.items() if rows)
        for key, tok in sorted(firsts.items(), key=lambda kv: (kv[1].line, kv[1].column)):
            if key not in _USES[kind]:
                what = _ROWS_IGNORED.get(key, f"item {key!r} is")
                self.warn(f"{what} ignored for {kind.value} agents", tok)

        state_set = set(universe.states)
        act_set = set(universe.acts)
        representation: dict[StateId, Formula] = {}
        for state, formula, tok in block.rows["represents"]:
            if state not in state_set:
                error(f"represented id {state!r} is not a state", tok)
            elif state in representation and representation[state] != formula:
                error(f"state {state!r} represented by two formulas", tok)
            elif state in representation:
                self.warn(f"state {state!r} represented twice", tok)
            elif not formula:
                error(f"state {state!r} represented by an empty formula", tok)
            else:
                representation[state] = formula
        image = set(representation.values())

        if kind is ArchitectureKind.RANDOM:
            return decl(seed=single("seed") or 0)
        if kind is ArchitectureKind.POSITIONAL:
            constant = single("constant") or ("pi", None)
            if constant[0] == "digits":
                if not constant[1]:
                    error("digit list must not be empty", single_tok("constant"))
                for ch in constant[1]:
                    try:
                        value = int(ch, 36)
                    except ValueError:
                        value = -1
                    if not 0 <= value < len(act_set):
                        error(
                            f"digit {ch!r} does not fit base {len(act_set)}",
                            single_tok("constant"),
                        )
                        break
            return decl(constant=constant)

        # Sensitive kinds share representation and projection handling.
        if not representation:
            error(f"sensitive agent {block.name!r} declares no representation")
        elif len(image) < 2:
            error(f"representation of {block.name!r} must use at least two formulas")
        projection = single("projection")
        if projection is not None and projection < 1:
            error("projection must be at least 1", single_tok("projection"))
        projection = projection or 1
        represented = tuple(sorted(representation.items()))

        def check_formula(formula: str, tok: _Token, what: str) -> None:
            if formula not in image:
                error(f"{what} {formula!r} is outside the representation image", tok)

        if kind is ArchitectureKind.AFS1:
            if projection != 1:
                error(
                    "afs1 generates single acts; projection must be 1",
                    single_tok("projection"),
                )
            react: dict[Formula, ActId] = {}
            for formula, act, tok in block.rows["react"]:
                check_formula(formula, tok, "react formula")
                if act not in act_set:
                    error(f"react act {act!r} is not a declared act", tok)
                if formula in react and react[formula] != act:
                    error(f"formula {formula!r} reacts with two acts", tok)
                elif formula in react:
                    self.warn(f"react row for {formula!r} declared twice", tok)
                else:
                    react[formula] = act
            return decl(
                projection=1,
                representation=represented,
                react_rows=tuple(sorted(react.items())),
            )

        # afs2a and afs2b read predict rows; afs3a reads pool rows, whose
        # route keys lead with the pool index.
        pooled = kind is ArchitectureKind.AFS3A
        if pooled and block.rows["predict"]:
            error(
                "afs3a routes must carry a pool index (pool N predict ...)",
                block.rows["predict"][0][-1],
            )
        goal = single("goal")
        if goal is not None:
            check_formula(goal, single_tok("goal"), "goal")
        elif kind is not ArchitectureKind.AFS2B:
            error(f"{kind.value} agent {block.name!r} declares no goal")
        routes: dict = {}
        short: dict = {}  # key -> row token, for routes shorter than the projection
        longest = 1
        for row in block.rows["pool" if pooled else "predict"]:
            key, (source, target, seq, tok) = row[:-2], row[-4:]
            check_formula(source, tok, "route source")
            check_formula(target, tok, "route goal")
            for act in seq:
                if act not in act_set:
                    error(f"sequence uses undeclared act {act!r}", tok)
            if key in routes and routes[key] != seq:
                # Reported without rejecting the agent, so a duplicate
                # agent name is still reported.
                self.error(f"conflicting route for {key}", tok)
            elif key in routes:
                self.warn(f"route {key} declared twice", tok)
            else:
                routes[key] = seq
                longest = max(longest, len(seq))
                if len(seq) < projection:
                    short[key] = tok
        if pooled:
            indices = sorted({key[0] for key in routes})
            if not indices:
                error(f"afs3a agent {block.name!r} declares an empty pool")
            elif indices != list(range(len(indices))):
                error(f"pool indices must be contiguous from 0, found {indices}")
        depth = single("depth")
        if depth is not None and depth < 1:
            error("depth must be at least 1", single_tok("depth"))
        depth = depth or longest
        for key in sorted(k for k, seq in routes.items() if len(seq) > depth):
            error(
                f"route {key} is longer than the declared depth {depth}",
                single_tok("depth"),
            )
        if projection > depth:
            error(
                f"projection {projection} exceeds the depth bound {depth}",
                single_tok("projection"),
            )
        else:
            for key, tok in short.items():
                error(f"route {key} is shorter than the projection {projection}", tok)
        rows = tuple((*key, seq) for key, seq in sorted(routes.items()))
        return decl(
            depth=depth,
            projection=projection,
            goal=goal,
            representation=represented,
            predict_rows=() if pooled else rows,
            pool_rows=rows if pooled else (),
        )


# ---------------------------------------------------------------------------
# Public entry points


def parse(text: str) -> ParseResult:
    """Parse a document; the document is withheld if any error occurred."""
    parser = _Parser(text)
    doc, diags = parser.parse_document()
    return ParseResult(doc, diags)


def parse_file(path: str | Path) -> ParseResult:
    return parse(Path(path).read_text(encoding="utf-8"))


def load_document(path: str | Path) -> SpecDocument:
    """Parse a file, raising SpecInvalid when it does not check out."""
    result = parse_file(path)
    if result.document is None:
        raise SpecInvalid(str(path), result.diagnostics)
    return result.document


# ---------------------------------------------------------------------------
# Serializer


def _quote(value: str) -> str:
    return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _serialize_universe(u: UniverseDecl, out: list[str]) -> None:
    out.append(f"universe {_quote(u.name)} {{")
    out.append("  states: " + " ".join(u.states) + ";")
    out.append("  acts: " + " ".join(u.acts) + ";")
    out.append(f"  initial: {u.initial};")
    out.append(f"  neutral_act: {u.neutral_act};")
    for word in ("positive", "neutral", "negative"):
        members = [s for s, c in u.classes if c == word]
        if members:
            out.append(f"  classify {word}: " + " ".join(members) + ";")
    for s, a, t in u.transitions:
        out.append(f"  transition {s} {a} {t};")
    out.append("  energy {")
    for label, value in zip(_ENERGY_FIELDS, u.energy):
        out.append(f"    {label}: {value};")
    out.append("  }")
    out.append("}")


def _serialize_agent(a: AgentDecl, out: list[str]) -> None:
    out.append(f"agent {_quote(a.name)} in {_quote(a.universe_name)} {{")
    out.append(f"  architecture: {a.kind.value};")
    if a.seed is not None:
        out.append(f"  seed: {a.seed};")
    if a.constant is not None:
        kind, payload = a.constant
        if kind == "digits":
            out.append(f"  constant: digits {_quote(payload)};")
        else:
            out.append(f"  constant: {kind};")
    if a.depth is not None:
        out.append(f"  depth: {a.depth};")
    if a.projection is not None:
        out.append(f"  projection: {a.projection};")
    if a.goal is not None:
        out.append(f"  goal: {_quote(a.goal)};")
    for state, formula in a.representation:
        out.append(f"  represents {state} -> {_quote(formula)};")
    for formula, act in a.react_rows:
        out.append(f"  react {_quote(formula)} : {act};")
    for source, goal, seq in a.predict_rows:
        out.append(f"  predict {_quote(source)} -> {_quote(goal)} : " + " ".join(seq) + ";")
    for index, source, goal, seq in a.pool_rows:
        out.append(
            f"  pool {index} predict {_quote(source)} -> {_quote(goal)} : "
            + " ".join(seq)
            + ";"
        )
    out.append("}")


def serialize(doc: SpecDocument) -> str:
    """Canonical text form; parsing it reproduces doc structurally."""
    out: list[str] = []
    first = True
    for u in doc.universes:
        if not first:
            out.append("")
        first = False
        _serialize_universe(u, out)
    for a in doc.agents:
        if not first:
            out.append("")
        first = False
        _serialize_agent(a, out)
    return "\n".join(out) + "\n"
