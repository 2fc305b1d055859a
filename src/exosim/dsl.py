"""The .exo declaration language: parser, checker, and serializer.

A document declares universes and the agents that inhabit them. The
format is line-oriented UTF-8 with `#` comments and semicolon-terminated
items. Parsing never throws on bad input: it returns diagnostics with
line and column positions, recovering at item boundaries so one mistake
does not hide the rest; the fields of an energy block recover one by one,
like items, and a block that lost its '}' ends at the next `universe` or
`agent` keyword. A document containing any error is withheld; callers only
ever receive fully checked declarations.

Two readers turn text into blocks, and one checker turns blocks into
declarations and diagnostics. The clean reader (_read_clean) reads each
item in its one-line form, and each energy block, with one regex match. It
gives up, having reported nothing, at the first item that is not in that
form or that reading would draw a diagnostic for. parse() then runs the
token reader (_Parser) on the whole text: it lexes the text and steps over
the tokens, and it owns every read-time diagnostic. Both fill the same
_Blocks with the same values and offsets, so the checker's diagnostics and
source spans do not depend on which reader ran; layout never changes what a
document means.

A token carries only its offset in the text. A diagnostic, lexical or
not, and a source span get their 1-based line and column from that offset
when they are made: only a line feed ends a line, and a column counts code
points.

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
import sys
from bisect import bisect_left
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple

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
    # (table index, source, goal, acts); the index is 0 outside afs3a.
    route_rows: tuple[tuple[int, Formula, Formula, tuple[ActId, ...]], ...] = ()

    def build(self, universe: Universe) -> AgentArchitecture:
        """The agent this declaration describes; the one place that maps
        a kind to the slots of ``AgentArchitecture`` it fills."""
        act_order = tuple(sorted(universe.acts))
        if self.kind is ArchitectureKind.RANDOM:
            stream = RandomFasa(seed=self.seed or 0, act_order=act_order)
            return AgentArchitecture(name=self.name, kind=self.kind, stream=stream)
        if self.kind is ArchitectureKind.POSITIONAL:
            kind, payload = self.constant or ("pi", None)
            if kind == "digits":
                source = parse_digit_string(payload or "", len(act_order))
            else:
                source = ConstantDigits(kind, len(act_order))
            stream = PositionalFasa(source=source, act_order=act_order)
            return AgentArchitecture(name=self.name, kind=self.kind, stream=stream)
        reaction = None
        tables: tuple[RouteTable, ...] = ()
        if self.kind is ArchitectureKind.AFS1:
            reaction = ReactionTable(dict(self.react_rows))
        else:
            tables = tuple(
                RouteTable(
                    {(s, g): seq for i, s, g, seq in self.route_rows if i == index},
                    depth_max=self.depth or 1,
                )
                for index in range(1 + max((row[0] for row in self.route_rows), default=0))
            )
        return AgentArchitecture(
            name=self.name,
            kind=self.kind,
            representation=RepresentationMap(dict(self.representation)),
            projection_index=self.projection or 1,
            reaction=reaction,
            tables=tables,
            goal=self.goal,
        )


@dataclass(frozen=True)
class SpecDocument:
    universes: tuple[UniverseDecl, ...]
    agents: tuple[AgentDecl, ...]
    source_spans: dict = field(default_factory=dict, compare=False, repr=False)
    _universes: dict = field(init=False, compare=False, repr=False)
    _agents: dict = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        # Name indexes, built from the end so the first declaration wins.
        object.__setattr__(self, "_universes", {u.name: u for u in reversed(self.universes)})
        object.__setattr__(self, "_agents", {a.name: a for a in reversed(self.agents)})

    def universe(self, name: str) -> UniverseDecl:
        return self._universes[name]

    def agent(self, name: str) -> AgentDecl:
        return self._agents[name]

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
    value: str | int  # read() returns int tokens with an int value
    offset: int  # of the token's first character; _Parser.position() maps it


# Each match is one token with the blanks and comments before it. `eof`
# matches at the end of the text, so trailing blanks never come back as
# `other` tokens. Compiled at its first use, like the clean reader's.
_TOKEN = r"""
    [\ \t\r\n]*(?:\#[^\n]*[\ \t\r\n]*)*
    (?: (?P<string>"(?P<body>(?:\\["\\]|[^"\n])*)(?P<end>"?))
      | (?P<int>\d+)
      | (?P<id>[^\W\d]\w*)
      | (?P<punct>->|[{};:])
      | (?P<other>[^\ \t\r\#\n])
      | (?P<eof>\Z)
    )
"""
_ESCAPE_RE = re.compile(r'\\(["\\])')


def _unescape(body: str) -> str:
    return sys.intern(_ESCAPE_RE.sub(r"\1", body) if "\\" in body else body)


def _lex(text: str, error: Callable[[str, _Token], None]) -> list[_Token]:
    """The tokens of text; each lexical error goes to error() in order.
    Values are interned: a document repeats a few names and formulas many
    times."""
    tokens: list[_Token] = []
    for m in re.compile(_TOKEN, re.VERBOSE).finditer(text):
        kind = m.lastgroup
        if kind == "string":
            tok = _Token(kind, _unescape(m["body"]), m.start(kind))
            if not m["end"]:
                error("unterminated string", tok)
            tokens.append(tok)
        elif kind == "other":
            error(f"unexpected character {m[kind]!r}", _Token(kind, m[kind], m.start(kind)))
        else:
            tokens.append(_Token(kind, sys.intern(m[kind]), m.start(kind)))
            if kind == "eof":  # blanks before the end match it twice
                break
    return tokens


# ---------------------------------------------------------------------------
# Checker


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

    @classmethod
    def opened(cls, keyword: _Token, name: str, universe_name: str | None = None) -> _Block:
        """A block with no items read yet."""
        if keyword.value == "universe":
            rows: dict = {"states": {}, "acts": {}, "classify": {}, "transition": {}}
        else:
            rows = {item: [] for item in _ROWS_IGNORED}
        return cls(keyword, name, universe_name, rows)


class _Checker:
    """Turns read blocks into declarations. Both readers hand their blocks
    to check(), so every check-time diagnostic and source span is made
    here."""

    def __init__(self, text: str):
        self.diags: list[ParseDiagnostic] = []
        # The offset of every '\n', after a -1 that starts the first line.
        self.newlines = [-1, *(m.start() for m in re.finditer("\n", text))]

    def position(self, offset: int) -> tuple[int, int]:
        """The 1-based (line, column) of a text offset."""
        line = bisect_left(self.newlines, offset)
        return line, offset - self.newlines[line - 1]

    def error(self, message: str, tok: _Token) -> None:
        line, column = self.position(tok.offset)
        self.diags.append(ParseDiagnostic(Severity.ERROR, message, line, column))

    def warn(self, message: str, tok: _Token) -> None:
        line, column = self.position(tok.offset)
        self.diags.append(ParseDiagnostic(Severity.WARNING, message, line, column))

    def check(self, blocks: Iterable[_Block]) -> tuple[SpecDocument | None, list[ParseDiagnostic]]:
        """Check each universe block as it arrives, then each agent block in
        declaration order; the document is withheld if any error occurred."""
        universes: dict[str, UniverseDecl] = {}
        agents: list[_Block] = []
        spans: dict = {}
        for block in blocks:
            if block.keyword.value == "agent":
                agents.append(block)
                continue
            decl = self._resolve_universe(block)
            if decl is None:
                continue
            if decl.name in universes:
                self.error(f"duplicate universe {decl.name!r}", block.keyword)
            else:
                universes[decl.name] = decl
                spans[("universe", decl.name)] = self.position(block.keyword.offset)
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
            spans[("agent", decl.name)] = self.position(block.keyword.offset)
            decls.append(decl)
        if any(d.severity is Severity.ERROR for d in self.diags):
            return None, self.diags
        doc = SpecDocument(tuple(universes.values()), tuple(decls), spans)
        return doc, self.diags

    # -- universe resolution ---------------------------------------------------

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

    # -- agent resolution ------------------------------------------------------

    def _resolve_agent(
        self, block: _Block, universes: dict[str, UniverseDecl]
    ) -> AgentDecl | None:
        universe = universes.get(block.universe_name)
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
        for key, tok in sorted(firsts.items(), key=lambda kv: kv[1].offset):
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
        lead = () if pooled else (0,)
        return decl(
            depth=depth,
            projection=projection,
            goal=goal,
            representation=represented,
            route_rows=tuple((*lead, *key, seq) for key, seq in sorted(routes.items())),
        )



# ---------------------------------------------------------------------------
# Token reader


class _ItemError(Exception):
    """Internal: abandon the current item and resynchronize."""


class _Parser(_Checker):
    """The token reader: lexes the whole text, then steps over the tokens,
    reporting every lexical and read-time error where it is met and
    recovering at item boundaries."""

    def __init__(self, text: str):
        super().__init__(text)
        self.tokens = _lex(text, self.error)
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

    def at_block(self) -> bool:
        """At a 'universe' or 'agent' keyword, where a block starts."""
        tok = self.peek()
        return tok.kind == "id" and tok.value in ("universe", "agent")

    def error(self, message: str, tok: _Token | None = None) -> None:
        super().error(message, tok or self.peek())

    def fail(self, message: str, tok: _Token | None = None) -> None:
        self.error(message, tok)
        raise _ItemError()

    def read(self, *pattern: str) -> list[_Token]:
        """Consume one token per pattern entry, failing at the first that
        does not match. A kind (id, string, int) matches a token of that
        kind, which is returned, an int with its value converted to int;
        any other entry is punctuation that must come next."""
        got = []
        for want in pattern:
            tok = self.peek()
            if want in _EXPECTED:
                if tok.kind != want:
                    self.fail(f"expected {_EXPECTED[want]}, found {self._describe(tok)}", tok)
                if want == "int":
                    try:
                        tok = tok._replace(value=int(tok.value))
                    except ValueError:  # longer than sys.get_int_max_str_digits()
                        self.fail(f"integer of {len(tok.value)} digits is too long", tok)
                got.append(tok)
            elif tok.kind != "punct" or tok.value != want:
                self.fail(f"expected {want!r}, found {self._describe(tok)}", tok)
            self.pos += 1
        return got

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

    def blocks(self) -> Iterator[_Block]:
        """The document's blocks as they are read; anything between blocks
        is reported and skipped up to the next block keyword."""
        while self.peek().kind != "eof":
            if self.at_block():
                block = self._parse_block()
                if block is not None:
                    yield block
            else:
                self.error(
                    f"expected 'universe' or 'agent', found {self._describe(self.peek())}"
                )
                self.advance()
                while self.peek().kind != "eof" and not self.at_block():
                    self.advance()

    def _parse_block(self) -> _Block | None:
        """Read a universe or agent block: its header, then its items up to
        the closing '}'. A bad header is skipped like a bad item."""
        keyword = self.advance()
        universe_name = None
        try:
            if keyword.value == "universe":
                name = self.read("string", "{")[0].value
            else:
                name_tok, in_tok = self.read("string", "id")
                if in_tok.value != "in":
                    self.fail(f"expected 'in', found {in_tok.value!r}", in_tok)
                name = name_tok.value
                universe_name = self.read("string", "{")[0].value
        except _ItemError:
            self.skip_item()
            return None
        if keyword.value == "universe":
            what, parse_item = "a universe item", self._parse_uitem
        else:
            what, parse_item = "an agent item", self._parse_aitem
        block = _Block.opened(keyword, name, universe_name)
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
            self.read(":")
            target = block.rows[head.value]
            for ident, id_tok in self._id_list(head.value):
                if ident in target:
                    self.warn(f"{head.value[:-1]} {ident!r} listed twice", id_tok)
                else:
                    target[ident] = id_tok
            self.read(";")
        elif head.value in ("initial", "neutral_act"):
            ident = self.read(":", "id")[0]
            if head.value in block.singles:
                self.fail(f"duplicate {head.value!r} item", head)
            block.singles[head.value] = (ident.value, ident)
            self.read(";")
        elif head.value == "classify":
            word = self.read("id")[0]
            if word.value not in _CLASS_WORDS:
                self.fail(
                    f"expected 'positive', 'neutral' or 'negative', found {word.value!r}",
                    word,
                )
            self.read(":")
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
            self.read(";")
        elif head.value == "transition":
            src, act, dst = self.read("id", "id", "id")
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
            self.read(";")
        elif head.value == "energy":
            self.read("{")
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
        label = self.read("id")[0]
        expected = _ENERGY_FIELDS[len(values) - 1]
        if label.value != expected:
            # The field order is part of the format.
            self.fail(f"energy field {expected!r} expected here, found {label.value!r}", label)
        value = self.read(":", "int")[0].value
        if self.peek().kind != "id":
            self.read(";")
            values[-1] = value
        else:  # only the ';' is missing: the next field keeps its own slot
            self.error(f"expected ';', found {self._describe(self.peek())}")

    # -- agent ---------------------------------------------------------------

    def _parse_aitem(self, block: _Block, head: _Token) -> None:
        if head.value == "architecture":
            word = self.read(":", "id")[0]
            if word.value not in _KIND_WORDS:
                self.fail(f"unknown architecture {word.value!r}", word)
            self._set_single(block, "architecture", word.value, head)
            self.read(";")
        elif head.value in ("seed", "depth", "projection"):
            value = self.read(":", "int")[0].value
            self._set_single(block, head.value, value, head)
            self.read(";")
        elif head.value == "constant":
            word = self.read(":", "id")[0]
            if word.value in ("pi", "e"):
                value: tuple[str, str | None] = (word.value, None)
            elif word.value == "digits":
                value = ("digits", self.read("string")[0].value)
            else:
                self.fail(f"expected 'pi', 'e' or 'digits', found {word.value!r}", word)
            self._set_single(block, "constant", value, head)
            self.read(";")
        elif head.value == "goal":
            value = self.read(":", "string")[0].value
            self._set_single(block, "goal", value, head)
            self.read(";")
        elif head.value == "represents":
            state, formula = self.read("id", "->", "string")
            block.rows["represents"].append((state.value, formula.value, state))
            self.read(";")
        elif head.value == "react":
            formula, act = self.read("string", ":", "id")
            block.rows["react"].append((formula.value, act.value, head))
            self.read(";")
        elif head.value == "predict":
            self._parse_predict_tail(block, None, head)
        elif head.value == "pool":
            index, word = self.read("int", "id")
            if word.value != "predict":
                self.fail(f"expected 'predict' after pool index, found {word.value!r}", word)
            self._parse_predict_tail(block, index.value, head)
        else:
            self.fail(f"unknown agent item {head.value!r}", head)

    def _parse_predict_tail(
        self, block: _Block, pool_index: int | None, head: _Token
    ) -> None:
        source, goal = self.read("string", "->", "string", ":")
        acts = self._id_list("predicted act sequence")
        row = (source.value, goal.value, tuple(a for a, _ in acts), head)
        if pool_index is None:
            block.rows["predict"].append(row)
        else:
            block.rows["pool"].append((pool_index, *row))
        self.read(";")

    def _set_single(self, block: _Block, key: str, value, tok: _Token) -> None:
        if key in block.singles:
            self.error(f"duplicate {key!r} item", tok)
        else:
            block.singles[key] = (value, tok)


# ---------------------------------------------------------------------------
# Clean reader
#
# A pattern matches one item, or a whole energy block, after the blanks and
# comments before it, skipped as the lexer skips them; a comment is pinned to
# its line's end, so a failed match cannot split it anew. Within an item only
# spaces and tabs separate tokens. Identifiers are the lexer's, a string body
# can end only where the lexer's does, and an integer has at most 640 digits,
# which int() converts under any digit limit Python allows. The patterns
# compile at their first use, through re's cache.

_GAP = r"[ \t\r\n]*(?:#[^\n]*(?=\n|\Z)[ \t\r\n]*)*"
_ID = r"[^\W\d]\w*"
_TERMS = {
    "IDS": rf"{_ID}(?:[ \t]+{_ID})*",
    "ID": _ID,
    "INT": r"\d{1,640}",
}
_STRING = r'"(?P<%s>[^"\\\n]*(?:\\.[^"\\\n]*)*)"'


def _items(**items: str) -> str:
    """One of items, each a group named by its keyword, so that lastgroup
    says which matched. In an item, a space stands for spaces and tabs and
    `~` for optional ones; IDS, ID and INT stand for an identifier list, an
    identifier and an integer; "name" stands for a string token whose body,
    escapes unread, is group name."""
    alternatives = []
    for keyword, item in items.items():
        item = item.replace(" ", r"[ \t]+").replace("~", r"[ \t]*")
        for term, pattern in _TERMS.items():
            item = item.replace(term, pattern)
        item = re.sub(r'"(\w+)"', lambda m: _STRING % m[1], item)
        alternatives.append(f"(?P<{keyword}>{item})")
    return _GAP + "(?:" + "|".join(alternatives) + ")"


# The items that may come next, by where the reader is.
_ITEMS = {
    "top": _items(
        universe=r'universe~"name"~\{',
        agent=r'agent~"agent_name"~in~"home"~\{',
        eof=r"\Z",
    ),
    "universe": _items(
        transition=r"transition (?P<src>ID) (?P<act>ID) (?P<dst>ID)~;",
        list=r"(?:(?P<list_key>states|acts)|classify (?P<word>positive|neutral|negative))"
        r"~:~(?P<ids>IDS)~;",
        single=r"(?P<key>initial|neutral_act)~:~(?P<value>ID)~;",
        energy=r"energy~\{",
        close=r"\}",
    ),
    "energy": _items(field=r"(?P<label>ID)~:~(?P<value>INT)~;"),
    "agent": _items(
        predict=r'(?:pool (?P<index>INT) )?predict~"source"~->~"target"~:~(?P<acts>IDS)~;',
        represents=r'represents (?P<state>ID)~->~"formula"~;',
        react=r'react~"reaction"~:~(?P<act>ID)~;',
        architecture=rf"architecture~:~(?P<kind>{'|'.join(_KIND_WORDS)})~;",
        number=r"(?P<key>seed|depth|projection)~:~(?P<value>INT)~;",
        constant=r'constant~:~(?:(?P<word>pi|e)|digits~"digits")~;',
        goal=r'goal~:~"goal_formula"~;',
        close=r"\}",
    ),
}


def _read_clean(text: str) -> list[_Block] | None:
    """The blocks of text, if each of its items is in its one-line form
    and reads without a diagnostic; None at the first that is not."""
    match = re.compile(_ITEMS["top"]).match
    blocks: list[_Block] = []
    pos = 0
    while m := match(text, pos):
        kind = m.lastgroup
        if kind == "eof":
            return blocks
        keyword = _Token("id", kind, m.start(kind))
        if kind == "universe":
            block = _Block.opened(keyword, _unescape(m["name"]))
        else:
            block = _Block.opened(keyword, _unescape(m["agent_name"]), _unescape(m["home"]))
        pos = _read_items(text, m.end(), block)
        if pos is None:
            return None
        blocks.append(block)
    return None


def _read_items(text: str, pos: int, block: _Block) -> int | None:
    """Read a block's items into it through its '}'; the offset after the
    '}', or None at an item the clean reader does not take. A universe's
    repeated row or any repeated single would draw a diagnostic as read; an
    agent's repeated rows are the checker's to report."""
    match = re.compile(_ITEMS[block.keyword.value]).match
    ids, intern = re.compile(_ID).finditer, sys.intern
    rows, singles = block.rows, block.singles
    while m := match(text, pos):
        pos, kind = m.end(), m.lastgroup
        start = m.start(kind)
        if kind == "transition":
            src, act = intern(m["src"]), intern(m["act"])
            if (src, act) in rows["transition"]:
                return None
            rows["transition"][src, act] = (intern(m["dst"]), _Token("id", src, m.start("src")))
        elif kind == "predict":
            index = m["index"]
            head = _Token("id", "predict" if index is None else "pool", start)
            acts = tuple(map(intern, m["acts"].split()))
            row = (_unescape(m["source"]), _unescape(m["target"]), acts, head)
            if index is None:
                rows["predict"].append(row)
            else:
                rows["pool"].append((int(index), *row))
        elif kind == "represents":
            state = intern(m["state"])
            tok = _Token("id", state, m.start("state"))
            rows["represents"].append((state, _unescape(m["formula"]), tok))
        elif kind == "react":
            tok = _Token("id", kind, start)
            rows["react"].append((_unescape(m["reaction"]), intern(m["act"]), tok))
        elif kind == "list":
            word = m["word"] and intern(m["word"])
            target = rows["classify" if word else m["list_key"]]
            for idm in ids(text, m.start("ids"), m.end("ids")):
                ident = intern(idm[0])
                if ident in target:
                    return None
                tok = _Token("id", ident, idm.start())
                target[ident] = (word, tok) if word else tok
        elif kind == "close":
            return pos
        else:
            key, tok = kind, _Token("id", kind, start)
            if kind == "single":
                key, value = m["key"], intern(m["value"])
                tok = _Token("id", value, m.start("value"))
            elif kind == "energy":
                # Its fields in order, each an item, then the '}'.
                field = re.compile(_ITEMS["energy"]).match
                values = []
                for label in _ENERGY_FIELDS:
                    if not (part := field(text, pos)) or part["label"] != label:
                        return None
                    values.append(int(part["value"]))
                    pos = part.end()
                if not (part := match(text, pos)) or part.lastgroup != "close":
                    return None
                pos, value = part.end(), tuple(values)
            elif kind == "number":
                key, value = m["key"], int(m["value"])
            elif kind == "architecture":
                value = intern(m["kind"])
            elif kind == "constant":
                word = m["word"]
                value = (intern(word), None) if word else ("digits", _unescape(m["digits"]))
            else:
                value = _unescape(m["goal_formula"])
            if key in singles:
                return None
            singles[key] = (value, tok)
    return None


# ---------------------------------------------------------------------------
# Public entry points


def parse(text: str) -> ParseResult:
    """Parse a document; the document is withheld if any error occurred."""
    blocks = _read_clean(text)
    if blocks is None:
        checker = _Parser(text)
        blocks = checker.blocks()
    else:
        checker = _Checker(text)
    return ParseResult(*checker.check(blocks))


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
    pooled = a.kind is ArchitectureKind.AFS3A
    for index, source, goal, seq in a.route_rows:
        pool = f"pool {index} " if pooled else ""
        out.append(f"  {pool}predict {_quote(source)} -> {_quote(goal)} : " + " ".join(seq) + ";")
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
