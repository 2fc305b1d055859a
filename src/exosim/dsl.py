"""The .exo declaration language: parser, checker, and serializer.

A document declares universes and the agents that inhabit them. The
format is line-oriented UTF-8 with `#` comments and semicolon-terminated
items. Parsing never throws on bad input: it returns diagnostics with
line and column positions, recovering at item boundaries so one mistake
does not hide the rest. An item whose ';' is missing is reported once, where
the keyword of the next item or block stands; that keyword starts the next
item, so every item, and every field of an energy block, survives a missing
';'. A list that lacks its ';' ends at an item keyword followed by the tokens
its item starts with, however they are laid out. A block that lost its '}'
ends at the next `universe` or `agent` keyword. A document containing any
error is withheld; callers only ever receive fully checked declarations.

One reader (_Reader) turns text into blocks and checks them into
declarations and diagnostics. Inside a block it reads each transition,
represents and predict (or pool) row, and each states, acts and classify
list, that is in its one-line form with one regex match (_ITEMS); any other
item or layout it reads by tokens, lexed one at a time as it reaches them.
Both add the same values and offsets, so layout never changes what a
document means or what it draws. Lexical errors are kept apart and come first.

A token is a (kind, value, offset) tuple, and a block keeps only the offsets
of the tokens its checks point at. A diagnostic, lexical or not, gets
its 1-based line and column from that offset when it is made: only a line
feed ends a line, and a column counts code points.

Diagnostics come in this order: lexical errors; then, in document order,
each item's parse errors, with a universe's checks after its block; then
each agent's checks in declaration order. One agent's checks give first an
"is ignored" warning for each item its kind does not read (see _USES), in
document order, then the checks on its representation rows, then the
checks of its kind.

serialize() emits a canonical form (sorted lists, `transition` last, explicit
defaults), and parsing a serialized document reproduces it structurally.
"""

from __future__ import annotations

import gc
import os
import re
import sys
from bisect import bisect_left
from enum import Enum
from itertools import accumulate
from typing import Iterable, Iterator, NamedTuple

from .architectures import AgentArchitecture, ArchitectureKind, RouteTable
from .representation import Formula, RepresentationMap
from .universe import ActId, EnergyRules, StateClass, StateId, Universe

_ENERGY_FIELDS = ("initial", "per_step", "negative_penalty", "positive_reward", "cap")
_CLASS_WORDS = {cls.value: cls for cls in StateClass}
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


class ParseDiagnostic(NamedTuple):
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
# Declarations. These are the structural content of a document.


class UniverseDecl(NamedTuple):
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
            classes={s: _CLASS_WORDS[c] for s, c in self.classes},
            energy=EnergyRules(*self.energy),
        )


class AgentDecl(NamedTuple):
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
        a kind to the slots of ``AgentArchitecture`` it fills. It reads
        the fields as the checker set them, defaults included."""
        if self.kind is ArchitectureKind.RANDOM:
            return AgentArchitecture(name=self.name, kind=self.kind, seed=self.seed)
        if self.kind is ArchitectureKind.POSITIONAL:
            from .digits import ConstantDigits, parse_digit_string  # no other kind loads it
            kind, payload = self.constant
            base = len(universe.acts)
            if kind == "digits":
                digits = parse_digit_string(payload, base)
            else:
                digits = ConstantDigits(kind, base)
            return AgentArchitecture(name=self.name, kind=self.kind, digits=digits)
        reaction = None
        tables: tuple[RouteTable, ...] = ()
        if self.kind is ArchitectureKind.AFS1:
            reaction = dict(self.react_rows)
        else:
            # One pass groups the rows by index; an index with no row has an empty table.
            entries: list[dict] = [{}]
            for index, s, g, seq in self.route_rows:
                while index >= len(entries):
                    entries.append({})
                entries[index][s, g] = seq
            tables = tuple(RouteTable(table, depth_max=self.depth) for table in entries)
        return AgentArchitecture(
            name=self.name,
            kind=self.kind,
            representation=RepresentationMap(dict(self.representation)),
            projection_index=self.projection,
            reaction=reaction,
            tables=tables,
            goal=self.goal,
        )


class SpecDocument:
    """A checked document: its universes and agents in declaration order.

    A plain class, not a named tuple, because it indexes both by name when
    it is made; equality and the hash compare the declarations alone.
    """

    __slots__ = ("universes", "agents", "_universes", "_agents")

    def __init__(self, universes: tuple[UniverseDecl, ...], agents: tuple[AgentDecl, ...]) -> None:
        self.universes = universes
        self.agents = agents
        # Name indexes, built from the end so the first declaration wins.
        self._universes = {u.name: u for u in reversed(universes)}
        self._agents = {a.name: a for a in reversed(agents)}

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.universes, self.agents) == (other.universes, other.agents)

    def __hash__(self) -> int:
        return hash((self.universes, self.agents))

    def __repr__(self) -> str:
        return f"SpecDocument(universes={self.universes!r}, agents={self.agents!r})"

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


class ParseResult(NamedTuple):
    document: SpecDocument | None
    diagnostics: list[ParseDiagnostic]

    @property
    def errors(self) -> list[ParseDiagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.ERROR]


# ---------------------------------------------------------------------------
# Lexer


# A token is a plain tuple (kind, value, offset). kind is id, string, int,
# punct or eof; read() returns int tokens with an int value; offset is that of
# the token's first character, which _Reader.position() maps. The lexer makes a
# token of every lexeme, and a plain tuple costs a fifth of a named one.
_Token = tuple[str, "str | int", int]


# Each match is one token with the blanks and comments before it. `eof`
# matches at the end of the text, so trailing blanks never come back as
# `other` tokens. The first character of a token picks its alternative, so
# the most frequent come first. Compiled at its first use, like the row
# patterns.
_TOKEN = r"""
    [\ \t\r\n]*(?:\#[^\n]*[\ \t\r\n]*)*
    (?: (?P<id>[^\W\d]\w*)
      | (?P<punct>->|[{};:])
      | (?P<string>"(?P<body>(?:\\["\\]|[^"\n])*)(?P<end>"?))
      | (?P<int>\d+)
      | (?P<other>[^\ \t\r\#\n])
      | (?P<eof>\Z)
    )
"""
_intern = sys.intern
_ESCAPE_RE = re.compile(r'\\(["\\])')


def _unescape(body: str) -> str:
    return _intern(_ESCAPE_RE.sub(r"\1", body) if "\\" in body else body)


# ---------------------------------------------------------------------------
# Row patterns
#
# A pattern matches one row item after the blanks and comments before it,
# skipped as the lexer skips them; a comment is pinned to its line's end, so a
# failed match cannot split it anew. Within an item only spaces and tabs
# separate tokens. Identifiers are the lexer's, a string body can end only
# where the lexer's does, and an integer has at most 640 digits, which int()
# converts under any digit limit Python allows. The patterns compile at their
# first use, through re's cache.

_GAP = r"[ \t\r\n]*(?:#[^\n]*(?=\n|\Z)[ \t\r\n]*)*"
_ID = r"[^\W\d]\w*"
_TERMS = {"IDS": rf"{_ID}(?:[ \t]{_ID})*", "ID": _ID, "INT": r"\d{1,640}"}
_STRING = r'"(?P<%s>[^"\\\n]*(?:\\.[^"\\\n]*)*)"'


def _items(**items: str) -> str:
    """One of items, each a group named by its keyword, so that lastgroup
    says which matched. In an item, a space stands for spaces and tabs and
    `~` for optional ones; IDS, ID and INT stand for identifiers with one space
    or tab between each two, an identifier and an integer; "name" stands for
    a string token whose body, escapes unread, is group name."""
    alternatives = []
    for keyword, item in items.items():
        item = item.replace(" ", r"[ \t]+").replace("~", r"[ \t]*")
        for term, pattern in _TERMS.items():
            item = item.replace(term, pattern)
        item = re.sub(r'"(\w+)"', lambda m: _STRING % m[1], item)
        alternatives.append(f"(?P<{keyword}>{item})")
    return _GAP + "(?:" + "|".join(alternatives) + ")"


# The items that make up nearly all of a large document, in their one-line
# form: a row per state and act, or per state, and the lists of states, acts
# and classes. Every other item is read by tokens.
_ITEMS = {
    "universe": _items(
        transition=r"transition (?P<src>ID) (?P<act>ID) (?P<dst>ID)~;",
        list=r"(?:(?P<key>states|acts)|classify (?P<word>positive|neutral|negative))"
        r"~:~(?P<ids>IDS)~;",
    ),
    "agent": _items(
        predict=r'(?:pool (?P<index>INT) )?predict~"source"~->~"target"~:~(?P<acts>IDS)~;',
        represents=r'represents (?P<state>ID)~->~"formula"~;',
    ),
}
# The words that start an item in each kind of block (an energy block's
# items are its fields), and those that start a block. A block's items end at
# its '}', at a block keyword, where a block that lost its '}' ends, or at the
# end of input: the tokens (kind, value) of _BLOCK_ENDS.
_ITEM_WORDS = {
    "universe": {"states", "acts", "initial", "neutral_act", "classify", "transition", "energy"},
    "agent": {"architecture", *set().union(*_USES.values())},
    "energy": set(_ENERGY_FIELDS),
}
# The tokens, by kind or punctuation, that follow each item keyword at the
# start of its item; every other item keyword is followed by ':'.
_HEADS = {
    "transition": ("id", "id", "id", ";"), "classify": ("id", ":"), "represents": ("id", "->"),
    "react": ("string",), "predict": ("string",), "pool": ("int",), "energy": ("{",),
}
_BLOCK_WORDS = ("universe", "agent")
_BLOCK_ENDS = {("punct", "}"), ("id", "universe"), ("id", "agent"), ("eof", "")}


# ---------------------------------------------------------------------------
# Reader


class _Block:
    """A universe or agent block as read, before its checks. Each row and
    single ends with the offset of the token its checks point at, so a block
    holds plain strings and numbers. Agent rows are lists in document order,
    a route row led by its pool index (0 in a predict row); a universe keys
    its states, acts, classify and transition rows, so repeats are reported
    as read."""

    __slots__ = ("keyword", "offset", "name", "universe_name", "rows", "singles")

    def __init__(
        self, keyword: str, offset: int, name: str, universe_name: str | None, rows: dict
    ) -> None:
        self.keyword = keyword  # 'universe' or 'agent'
        self.offset = offset  # of the keyword; block-level checks point here
        self.name = name
        self.universe_name = universe_name  # agents only
        self.rows: dict[str, list | dict] = rows
        self.singles: dict[str, tuple[object, int]] = {}


class _ItemError(Exception):
    """Internal: abandon the current item and resynchronize."""


class _Reader:
    """Reads a document's blocks and checks them into declarations. At each
    item position in a block it tries the block's pattern (_ITEMS: a
    transition row or a states, acts or classify list in a universe, a
    represents or predict row in an agent) until it fails (_rows); an item
    that does not match, or a list that holds an item word of its block, is
    read by tokens, with every read-time error reported where it is met. An
    item's error skips the item; a missing ';' is reported once and ends the
    item before the item or block keyword found in its place (read), and a
    list before an item keyword followed by the tokens its item starts with
    (_id_list). The reader only moves forward and lexes each token once, into
    self.tok, where each decision looks at it once until it is stepped past;
    only a list looks ahead, past an item keyword (_starts_item). A block
    holds only strings, offsets and tuples of them, which make no reference
    cycle, so a collector pass frees none of it (parse pauses it)."""

    def __init__(self, text: str):
        self.text = text
        self.diags: list[ParseDiagnostic] = []
        self.lexical: list[ParseDiagnostic] = []  # reported before self.diags
        # The offset of every '\n', after a -1 that starts the first line,
        # found at the first position() call: a clean parse needs none.
        self.newlines: list[int] | None = None
        self.lex = re.compile(_TOKEN, re.VERBOSE).match
        self.offset = 0  # just past the last token or row consumed
        self.tok: _Token | None = None  # the next token, once lexed
        self.end = 0  # just past self.tok
        # The item words and the pattern's scanner of the block being read
        # (_ITEM_WORDS, _ITEMS).
        self.item_words: set[str] = set()
        self.row = None
        self.seqs: dict[str, tuple] = {}  # each act sequence by its text, for rows to share

    def position(self, offset: int) -> tuple[int, int]:
        """The 1-based (line, column) of a text offset."""
        if self.newlines is None:
            self.newlines = [-1, *(m.start() for m in re.finditer("\n", self.text))]
        line = bisect_left(self.newlines, offset)
        return line, offset - self.newlines[line - 1]

    def error(self, message: str, tok: _Token | None = None) -> None:
        self.error_at(message, (tok or self.peek())[2])

    def error_at(self, message: str, offset: int) -> None:
        self.diags.append(ParseDiagnostic(Severity.ERROR, message, *self.position(offset)))

    def warn(self, message: str, offset: int) -> None:
        self.diags.append(ParseDiagnostic(Severity.WARNING, message, *self.position(offset)))

    def lexical_error(self, message: str, offset: int) -> None:
        self.lexical.append(ParseDiagnostic(Severity.ERROR, message, *self.position(offset)))

    def check(self) -> tuple[SpecDocument | None, list[ParseDiagnostic]]:
        """Check each universe block as it is read, then each agent block in
        declaration order; the document is withheld if any error occurred."""
        universes: dict[str, UniverseDecl] = {}
        agents: list[_Block] = []
        for block in self.blocks():
            if block.keyword == "agent":
                agents.append(block)
                continue
            decl = self._resolve_universe(block)
            if decl is None:
                continue
            if decl.name in universes:
                self.error_at(f"duplicate universe {decl.name!r}", block.offset)
            else:
                universes[decl.name] = decl
        decls: list[AgentDecl] = []
        seen: set[str] = set()
        for block in agents:
            decl = self._resolve_agent(block, universes)
            if decl is None:
                continue
            if decl.name in seen:
                self.error_at(f"duplicate agent {decl.name!r}", block.offset)
                continue
            seen.add(decl.name)
            decls.append(decl)
        diags = self.lexical + self.diags
        if any(d.severity is Severity.ERROR for d in diags):
            return None, diags
        return SpecDocument(tuple(universes.values()), tuple(decls)), diags

    # -- universe resolution ---------------------------------------------------

    def _resolve_universe(self, block: _Block) -> UniverseDecl | None:
        name, singles = block.name, block.singles
        classes, transitions = block.rows["classify"], block.rows["transition"]
        rejected = False

        def error(message: str, offset: int = block.offset) -> None:
            nonlocal rejected
            rejected = True
            self.error_at(message, offset)

        for item in ("states", "acts"):
            if not block.rows[item]:
                error(f"universe {name!r} declares no {item}")
        for item in ("initial", "neutral_act"):
            if item not in singles:
                error(f"universe {name!r} is missing the {item!r} item")
        if "energy" not in singles:
            error(f"universe {name!r} is missing its energy block")
        states, acts = sorted(block.rows["states"]), sorted(block.rows["acts"])
        state_set, act_set = set(states), set(acts)
        if "initial" in singles:
            value, offset = singles["initial"]
            if value not in state_set:
                error(f"initial state {value!r} is not a declared state", offset)
        if "neutral_act" in singles:
            value, offset = singles["neutral_act"]
            if value not in act_set:
                error(f"neutral act {value!r} is not a declared act", offset)
        for ident in sorted(classes.keys() - state_set):
            error(f"classified id {ident!r} is not a declared state", classes[ident][1])
        # One sort gives both the order of the checks and of the declaration.
        rows = []
        keyed = True  # every key names a declared state and act
        for key in sorted(transitions):
            (src, act), (dst, offset) = key, transitions[key]
            rows.append((src, act, dst))
            if src in state_set and act in act_set and dst in state_set:
                continue
            if src not in state_set:
                keyed = False
                error(f"transition uses undeclared state {src!r}", offset)
            if act not in act_set:
                keyed = False
                error(f"transition uses undeclared act {act!r}", offset)
            if dst not in state_set:
                error(f"transition uses undeclared state {dst!r}", offset)
        # |S|·|A| distinct keys, each in S × A, are every pair.
        if not keyed or len(transitions) != len(states) * len(acts):
            for s in states:
                for a in acts:
                    if (s, a) not in transitions:
                        error(f"no transition declared for ({s!r}, {a!r})")
        # A bad field was reported where it was read; these point at a value.
        energy, offsets = singles.get("energy", (None, None))
        if energy is not None:
            initial, per_step, penalty, reward, cap = energy
            if initial <= 0:
                error("energy initial must be positive", offsets[0])
            if cap < initial:
                error("energy cap must be at least the initial energy", offsets[4])
        if rejected or energy is None:
            return None
        neutral = ("neutral",)
        return UniverseDecl(
            name=name,
            states=tuple(states),
            acts=tuple(acts),
            initial=singles["initial"][0],
            neutral_act=singles["neutral_act"][0],
            classes=tuple((s, classes.get(s, neutral)[0]) for s in states),
            transitions=tuple(rows),
            energy=energy,
        )

    # -- agent resolution ------------------------------------------------------

    def _resolve_agent(
        self, block: _Block, universes: dict[str, UniverseDecl]
    ) -> AgentDecl | None:
        universe = universes.get(block.universe_name)
        if universe is None:
            self.error_at(
                f"agent {block.name!r} inhabits unknown universe {block.universe_name!r}",
                block.offset,
            )
            return None
        if "architecture" not in block.singles:
            self.error_at(f"agent {block.name!r} declares no architecture", block.offset)
            return None
        kind = _KIND_WORDS[block.singles["architecture"][0]]
        rejected = False

        def error(message: str, offset: int = block.offset) -> None:
            nonlocal rejected
            rejected = True
            self.error_at(message, offset)

        def single(key: str):
            return block.singles[key][0] if key in block.singles else None

        def single_at(key: str) -> int:
            return block.singles[key][1]

        def decl(**fields) -> AgentDecl | None:
            if rejected:
                return None
            return AgentDecl(block.name, block.universe_name, kind, **fields)

        firsts = {key: at for key, (_, at) in block.singles.items() if key != "architecture"}
        firsts.update((key, rows[0][-1]) for key, rows in block.rows.items() if rows)
        for key, offset in sorted(firsts.items(), key=lambda kv: kv[1]):
            if key not in _USES[kind]:
                what = _ROWS_IGNORED.get(key, f"item {key!r} is")
                self.warn(f"{what} ignored for {kind.value} agents", offset)

        state_set = set(universe.states)
        act_set = set(universe.acts)
        representation: dict[StateId, Formula] = {}
        for state, formula, offset in block.rows["represents"]:
            if state not in state_set:
                error(f"represented id {state!r} is not a state", offset)
            elif state in representation and representation[state] != formula:
                error(f"state {state!r} represented by two formulas", offset)
            elif state in representation:
                self.warn(f"state {state!r} represented twice", offset)
            elif not formula:
                error(f"state {state!r} represented by an empty formula", offset)
            else:
                representation[state] = formula
        image = set(representation.values())

        if kind is ArchitectureKind.RANDOM:
            return decl(seed=single("seed") or 0)
        if kind is ArchitectureKind.POSITIONAL:
            constant = single("constant") or ("pi", None)
            if constant[0] == "digits":
                if not constant[1]:
                    error("digit list must not be empty", single_at("constant"))
                for ch in constant[1]:
                    try:
                        value = int(ch, 36)
                    except ValueError:
                        value = -1
                    if not 0 <= value < len(act_set):
                        error(
                            f"digit {ch!r} does not fit base {len(act_set)}",
                            single_at("constant"),
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
            error("projection must be at least 1", single_at("projection"))
        projection = projection or 1
        represented = tuple(sorted(representation.items()))

        if kind is ArchitectureKind.AFS1:
            if projection != 1:
                error(
                    "afs1 generates single acts; projection must be 1",
                    single_at("projection"),
                )
            react: dict[Formula, ActId] = {}
            for formula, act, offset in block.rows["react"]:
                if formula not in image:
                    error(f"react formula {formula!r} is outside the representation image", offset)
                if act not in act_set:
                    error(f"react act {act!r} is not a declared act", offset)
                if formula in react and react[formula] != act:
                    error(f"formula {formula!r} reacts with two acts", offset)
                elif formula in react:
                    self.warn(f"react row for {formula!r} declared twice", offset)
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
            if goal not in image:
                error(f"goal {goal!r} is outside the representation image", single_at("goal"))
        elif kind is not ArchitectureKind.AFS2B:
            error(f"{kind.value} agent {block.name!r} declares no goal")
        routes: dict = {}
        short: dict = {}  # key -> row offset, for routes shorter than the projection
        longest = 1
        for index, source, target, seq, offset in block.rows["pool" if pooled else "predict"]:
            key = (index, source, target) if pooled else (source, target)
            if source not in image:
                error(f"route source {source!r} is outside the representation image", offset)
            if target not in image:
                error(f"route goal {target!r} is outside the representation image", offset)
            if not act_set.issuperset(seq):
                for act in seq:
                    if act not in act_set:
                        error(f"sequence uses undeclared act {act!r}", offset)
            if key in routes and routes[key] != seq:
                # Reported without rejecting the agent, so a duplicate
                # agent name is still reported.
                self.error_at(f"conflicting route for {key}", offset)
            elif key in routes:
                self.warn(f"route {key} declared twice", offset)
            else:
                routes[key] = seq
                if len(seq) > longest:
                    longest = len(seq)
                if len(seq) < projection:
                    short[key] = offset
        if pooled:
            indices = sorted({key[0] for key in routes})
            if not indices:
                error(f"afs3a agent {block.name!r} declares an empty pool")
            elif indices != list(range(len(indices))):
                error(f"pool indices must be contiguous from 0, found {indices}")
        depth = single("depth")
        if depth is not None and depth < 1:
            error("depth must be at least 1", single_at("depth"))
        depth = depth or longest
        if longest > depth:
            for key in sorted(k for k, seq in routes.items() if len(seq) > depth):
                error(
                    f"route {key} is longer than the declared depth {depth}",
                    single_at("depth"),
                )
        if projection > depth:
            error(
                f"projection {projection} exceeds the depth bound {depth}",
                single_at("projection"),
            )
        else:
            for key, offset in short.items():
                error(f"route {key} is shorter than the projection {projection}", offset)
        lead = () if pooled else (0,)
        return decl(
            depth=depth,
            projection=projection,
            goal=goal,
            representation=represented,
            # Sorting the keys alone compares strings, not (key, acts) pairs.
            route_rows=tuple([lead + key + (routes[key],) for key in sorted(routes)]),
        )

    # -- tokens ----------------------------------------------------------------

    def peek(self) -> _Token:
        """The next token, lexed at its first look, when a lexical error
        before it or in it is reported. Values are interned: a document
        repeats a few names and formulas many times."""
        if self.tok is None:
            m = self.lex(self.text, self.offset)
            kind = m.lastgroup
            while kind == "other":
                self.lexical_error(f"unexpected character {m['other']!r}", m.start("other"))
                m = self.lex(self.text, m.end())
                kind = m.lastgroup
            end = m.end()
            if kind == "string":
                value, offset = _unescape(m["body"]), m.start(kind)
                if not m["end"]:
                    self.lexical_error("unterminated string", offset)
            else:  # the token is its value, and ends the match
                value = _intern(m[kind])
                offset = end - len(value)
            self.tok, self.end = (kind, value, offset), end
        return self.tok

    def advance(self) -> _Token:
        """The next token, stepped past unless it is the end of input."""
        tok = self.tok or self.peek()
        if tok[0] != "eof":
            self.offset, self.tok = self.end, None
        return tok

    def fail(self, message: str, tok: _Token | None = None) -> None:
        self.error(message, tok)
        raise _ItemError()

    def read(self, *pattern: str) -> list[_Token]:
        """Consume one token per pattern entry, failing at the first that
        does not match. A kind (id, string, int) matches a token of that
        kind, which is returned, an int with its value converted to int;
        any other entry is punctuation that must come next. A missing ';'
        with an item word of the block or a block keyword in its place is
        reported without failing: that word starts the next item or block.
        Any other identifier there fails the item like any other token."""
        got = []
        for want in pattern:
            tok = self.tok or self.peek()
            kind, value, offset = tok
            if kind == want:
                if want == "int":
                    try:
                        tok = (want, int(value), offset)
                    except ValueError:  # longer than sys.get_int_max_str_digits()
                        self.fail(f"integer of {len(value)} digits is too long", tok)
                got.append(tok)
            elif kind != "punct" or value != want:
                expected = _EXPECTED.get(want) or repr(want)
                self.error(f"expected {expected}, found {self._describe(tok)}", tok)
                if want == ";" and kind == "id" and (
                    value in self.item_words or value in _BLOCK_WORDS
                ):
                    return got
                raise _ItemError()
            self.offset, self.tok = self.end, None
        return got

    @staticmethod
    def _describe(tok: _Token) -> str:
        kind, value, _ = tok
        if kind == "eof":
            return "end of input"
        return f'string "{value}"' if kind == "string" else repr(value)

    def skip_item(self) -> None:
        """Resynchronize after an item error: consume through the next ';'
        but stop short of what ends a block, or of a '{' after the first
        token. Always makes progress unless it stops there, and the block
        loop stops there too, so a stray token can never wedge it."""
        tok = self.tok or self.peek()
        while tok[:2] not in _BLOCK_ENDS:
            self.offset, self.tok = self.end, None
            if tok[:2] == ("punct", ";"):
                return
            tok = self.peek()
            if tok[:2] == ("punct", "{"):
                return

    # -- document ----------------------------------------------------------

    def blocks(self) -> Iterator[_Block]:
        """The document's blocks as they are read; anything between blocks
        is reported and skipped up to the next block keyword."""
        tok = self.peek()
        while tok[0] != "eof":
            if tok[0] == "id" and tok[1] in _BLOCK_WORDS:
                block = self._block()
                if block is not None:
                    yield block
            else:
                self.error(f"expected 'universe' or 'agent', found {self._describe(tok)}", tok)
                while True:
                    self.offset, self.tok = self.end, None
                    tok = self.peek()
                    if tok[0] == "eof" or tok[0] == "id" and tok[1] in _BLOCK_WORDS:
                        break
            tok = self.tok or self.peek()

    def _block(self) -> _Block | None:
        """Read a universe or agent block: its header, then its items up to
        the closing '}'. A bad header is skipped like a bad item."""
        _, keyword, at = self.advance()
        universe_name = None
        try:
            if keyword == "universe":
                [(_, name, _)] = self.read("string", "{")
            else:
                (_, name, _), in_tok = self.read("string", "id")
                if in_tok[1] != "in":
                    self.fail(f"expected 'in', found {in_tok[1]!r}", in_tok)
                [(_, universe_name, _)] = self.read("string", "{")
        except _ItemError:
            self.skip_item()
            return None
        if keyword == "universe":
            what, read_item = "a universe item", self._uitem
            rows: dict = {"states": {}, "acts": {}, "classify": {}, "transition": {}}
        else:
            what, read_item = "an agent item", self._aitem
            rows = {item: [] for item in _ROWS_IGNORED}
        block = _Block(keyword, at, name, universe_name, rows)
        self.item_words = _ITEM_WORDS[keyword]
        self.row = re.compile(_ITEMS[keyword]).scanner
        while True:
            offset = self._rows(block, self.offset)
            if offset != self.offset:
                self.offset, self.tok = offset, None
            tok = self.tok or self.peek()
            try:
                if tok[0] == "id" and tok[1] not in _BLOCK_WORDS:
                    self.offset, self.tok = self.end, None
                    read_item(block, tok)
                elif tok[:2] in _BLOCK_ENDS:
                    break
                else:
                    self.fail(f"expected {what}, found {self._describe(tok)}", tok)
            except _ItemError:
                self.skip_item()
        if tok[0] == "punct":
            self.offset, self.tok = self.end, None
        else:
            before = "" if tok[0] == "eof" else f" before {self._describe(tok)}"
            self.error(f"unterminated {keyword} block: missing '}}'{before}", tok)
        return block

    def _rows(self, block: _Block, offset: int) -> int:
        """Read the items from offset on that are in their one-line form (_ITEMS),
        each with one match of the block's scanner (the matcher re.Scanner uses)
        where the item before it ended, and add them as the token path adds
        them: the same values, interned, and offsets. A list holding an item
        word of the block is left to the token path, which may end the list
        there. Returns the offset past the last item read."""
        rows, seqs, m = block.rows, self.seqs, None
        transitions = rows.get("transition")
        for m in iter(self.row(self.text, offset).match, None):
            kind = m.lastgroup
            if kind == "transition":
                key = (_intern(m["src"]), _intern(m["act"]))
                if key in transitions:
                    self._transition(block, *key, _intern(m["dst"]), m.start("src"))
                else:
                    transitions[key] = (_intern(m["dst"]), m.start("src"))
            elif kind == "list":
                ids = [*map(_intern, m["ids"].split())]
                if not self.item_words.isdisjoint(ids):
                    return m.start()
                # IDS puts one space or tab between each two ids.
                at = accumulate([len(ident) + 1 for ident in ids], initial=m.start("ids"))
                self._ids(block, m["key"] or "classify", m["word"], zip(ids, at))
            elif kind == "represents":
                formula = m["formula"]
                if "\\" in formula:
                    formula = _unescape(formula)
                rows["represents"].append((_intern(m["state"]), _intern(formula), m.start("state")))
            else:
                index, source, target, acts = m["index"], m["source"], m["target"], m["acts"]
                if "\\" in source or "\\" in target:
                    source, target = _unescape(source), _unescape(target)
                if acts not in seqs:
                    seqs[acts] = tuple(map(_intern, acts.split()))
                rows["pool" if index else "predict"].append((
                    int(index) if index else 0, _intern(source), _intern(target),
                    seqs[acts], m.start(kind),
                ))
        return offset if m is None else m.end()

    # -- universe ----------------------------------------------------------

    def _uitem(self, block: _Block, head: _Token) -> None:
        key = head[1]
        if key in ("states", "acts", "classify"):
            word = None
            if key == "classify":
                [tok] = self.read("id")
                word = tok[1]
                if word not in _CLASS_WORDS:
                    self.fail(f"expected 'positive', 'neutral' or 'negative', found {word!r}", tok)
            self.read(":")
            what = "classified states" if word else key
            self._id_list(what, lambda ids: self._ids(block, key, word, [t[1:] for t in ids]))
        elif key in ("initial", "neutral_act"):
            [(_, ident, offset)] = self.read(":", "id")
            if key in block.singles:
                self.error(f"duplicate {key!r} item", head)
            else:
                block.singles[key] = (ident, offset)
            self.read(";")
        elif key == "transition":
            (_, src, offset), (_, act, _), (_, dst, _) = self.read("id", "id", "id")
            self._transition(block, src, act, dst, offset)
            self.read(";")
        elif key == "energy":
            self.read("{")
            # Each field is an item of its own, and a bad one leaves None in
            # its slot. Reading stops after the last field or at a block
            # keyword, so a missing '}' does not swallow what follows.
            values: list[int | None] = []
            offsets: list[int] = []  # of each value, for the universe checks
            self.item_words = _ITEM_WORDS["energy"]
            tok = self.tok or self.peek()
            while len(values) < len(_ENERGY_FIELDS) and tok[:2] not in _BLOCK_ENDS:
                expected = _ENERGY_FIELDS[len(values)]
                values.append(None)
                try:
                    [label] = self.read("id")
                    if label[1] != expected:  # the field order is part of the format
                        found = f"found {label[1]!r}"
                        self.fail(f"energy field {expected!r} expected here, {found}", label)
                    [(_, value, offset)] = self.read(":", "int")
                    values[-1] = value
                    offsets.append(offset)
                    self.read(";")
                except _ItemError:
                    self.skip_item()
                tok = self.tok or self.peek()
            self.item_words = _ITEM_WORDS["universe"]
            missing = _ENERGY_FIELDS[len(values) :]
            if missing:
                self.error(f"energy block is missing the {missing[0]!r} field", head)
            if tok[:2] == ("punct", "}"):
                self.offset, self.tok = self.end, None
            else:
                self.error(f"expected '}}', found {self._describe(tok)}", tok)
            if "energy" in block.singles:
                self.error("duplicate energy block", head)
            else:
                # None stands for a block with a bad or missing field.
                energy = None if missing or None in values else tuple(values)
                block.singles["energy"] = (energy, offsets)
        else:
            self.fail(f"unknown universe item {key!r}", head)

    def _ids(self, block: _Block, key: str, word: str | None, ids: Iterable) -> None:
        """Add the (id, offset) pairs of a states, acts or classify row to block,
        reporting each repeat; word is a classify row's class, else None."""
        target = block.rows[key]
        for ident, offset in ids:
            if ident not in target:
                target[ident] = offset if word is None else (word, offset)
            elif word is None:
                self.warn(f"{key[:-1]} {ident!r} listed twice", offset)
            elif target[ident][0] != word:
                message = f"state {ident!r} classified both {target[ident][0]} and {word}"
                self.error_at(message, offset)
            else:
                self.warn(f"state {ident!r} classified twice", offset)

    def _transition(self, block: _Block, src: str, act: str, dst: str, offset: int) -> None:
        """Add a transition row to block, reporting a repeat at its source,
        whose offset it keeps."""
        key = (src, act)
        transitions = block.rows["transition"]
        if key not in transitions:
            transitions[key] = (dst, offset)
        elif transitions[key][0] != dst:
            self.error_at(f"conflicting transition for ({src!r}, {act!r})", offset)
        else:
            self.warn(f"transition ({src!r}, {act!r}) declared twice", offset)

    def _id_list(self, what: str, add) -> None:
        """Read a list item's identifiers, hand them to add, and read its ';'.
        The list ends before an item keyword of the block whose next tokens
        start its item (_starts_item), even before any identifier: that
        keyword starts the next item, and the missing ';' is reported there."""
        ids = []
        tok = self.tok or self.peek()
        while tok[0] == "id" and not (tok[1] in self.item_words and self._starts_item(tok[1])):
            ids.append(tok)
            self.offset, self.tok = self.end, None
            tok = self.peek()
        if not ids and tok[0] != "id":
            self.fail(f"expected at least one identifier in {what}", tok)
        add(ids)
        self.read(";")

    def _starts_item(self, word: str) -> bool:
        """Whether the tokens after the item keyword word in self.tok are
        those its item starts with (_HEADS), lexed without being consumed; a
        character no token starts with is skipped, for peek to report."""
        offset = self.end
        for want in _HEADS.get(word, (":",)):
            m = self.lex(self.text, offset)
            while m.lastgroup == "other":
                m = self.lex(self.text, m.end())
            kind = m.lastgroup
            if kind != want and (kind != "punct" or m[kind] != want):
                return False
            offset = m.end()
        return True

    # -- agent ---------------------------------------------------------------

    def _aitem(self, block: _Block, head: _Token) -> None:
        _, key, at = head
        if key in ("predict", "pool"):
            index = None
            if key == "pool":
                (_, index, _), tok = self.read("int", "id")
                if tok[1] != "predict":
                    self.fail(f"expected 'predict' after pool index, found {tok[1]!r}", tok)
            (_, source, _), (_, goal, _) = self.read("string", "->", "string", ":")
            self._id_list(
                "predicted act sequence",
                lambda ids: block.rows[key].append(
                    (index or 0, source, goal, tuple(t[1] for t in ids), at)
                ),
            )
            return
        if key == "represents":
            (_, state, offset), (_, formula, _) = self.read("id", "->", "string")
            block.rows["represents"].append((state, formula, offset))
        elif key == "react":
            (_, formula, _), (_, act, _) = self.read("string", ":", "id")
            block.rows["react"].append((formula, act, at))
        else:
            if key == "architecture":
                [tok] = self.read(":", "id")
                if tok[1] not in _KIND_WORDS:
                    self.fail(f"unknown architecture {tok[1]!r}", tok)
                value = tok[1]
            elif key in ("seed", "depth", "projection"):
                [(_, value, _)] = self.read(":", "int")
            elif key == "constant":
                [tok] = self.read(":", "id")
                if tok[1] in ("pi", "e"):
                    value = (tok[1], None)
                elif tok[1] == "digits":
                    [(_, digits, _)] = self.read("string")
                    value = ("digits", digits)
                else:
                    self.fail(f"expected 'pi', 'e' or 'digits', found {tok[1]!r}", tok)
            elif key == "goal":
                [(_, value, _)] = self.read(":", "string")
            else:
                self.fail(f"unknown agent item {key!r}", head)
            if key in block.singles:
                self.error(f"duplicate {key!r} item", head)
            else:
                block.singles[key] = (value, at)
        self.read(";")


# ---------------------------------------------------------------------------
# Public entry points


def parse(text: str) -> ParseResult:
    """Parse a document, withheld if any error occurred; the collector is paused."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        return ParseResult(*_Reader(text).check())
    finally:
        if collecting:
            gc.enable()


def parse_file(path: str | os.PathLike[str]) -> ParseResult:
    """Parse a UTF-8 file as ``parse`` parses its text, line ends
    included. A file that is not UTF-8 draws one error, at its first bad
    byte."""
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        bad = exc.start
        # Everything before the bad byte is valid, and a line starts after a b"\n".
        start = data.rfind(b"\n", 0, bad) + 1
        line, column = data.count(b"\n", 0, bad) + 1, len(data[start:bad].decode("utf-8")) + 1
        message = f"byte 0x{data[bad]:02x} is not UTF-8"
        return ParseResult(None, [ParseDiagnostic(Severity.ERROR, message, line, column)])
    return parse(text)


def load_document(path: str | os.PathLike[str]) -> SpecDocument:
    """Parse a file, raising SpecInvalid when it does not check out."""
    result = parse_file(path)
    if result.document is None:
        raise SpecInvalid(os.fspath(path), result.diagnostics)
    return result.document


# ---------------------------------------------------------------------------
# Serializer


def _quote(value: str) -> str:
    return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _serialize_universe(u: UniverseDecl, out: list[str]) -> None:
    # Lists put `transition` last: followed by three identifiers and the
    # list's ';', it would start a transition row (_HEADS).
    last = "transition".__eq__
    out.append(f"universe {_quote(u.name)} {{")
    out.append("  states: " + " ".join(sorted(u.states, key=last)) + ";")
    out.append("  acts: " + " ".join(sorted(u.acts, key=last)) + ";")
    out.append(f"  initial: {u.initial};")
    out.append(f"  neutral_act: {u.neutral_act};")
    for word in ("positive", "neutral", "negative"):
        members = [s for s, c in u.classes if c == word]
        if members:
            out.append(f"  classify {word}: " + " ".join(sorted(members, key=last)) + ";")
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
        value = f"digits {_quote(payload)}" if kind == "digits" else kind
        out.append(f"  constant: {value};")
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
    for decl in (*doc.universes, *doc.agents):
        if out:
            out.append("")
        if isinstance(decl, UniverseDecl):
            _serialize_universe(decl, out)
        else:
            _serialize_agent(decl, out)
    return "\n".join(out) + "\n"
