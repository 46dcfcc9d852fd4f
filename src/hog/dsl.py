"""Text format for declaring games, with a validating parser and a renderer.

The format is line-oriented; `#` starts a comment.  A document consists of
one `game` line, one `moves` line per player (their order fixes player
order), one `outcomes` line, one `outcome_fn` line, and one `player` line
per declared move set.  Newlines are soft inside braces and parentheses,
so outcome tables can span lines.  The text is read into statements in
one pass.  A table body with no brace outside its comments is one token,
and the table reader takes its entries with string splits when, comments
taken out, each is a well-formed entry, on one line or over several.  Any
other body is read token by token, and only that token walk diagnoses: a
document that fails is read again with no body token, so no diagnostic
depends on them.  `parse_game` never returns a partially valid game:
either every check passes or you get located diagnostics.  A statement
stops at its first syntax error but still counts as declared, so it adds
no follow-on "missing" errors.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple, Optional

from .core import (
    ArgmaxCoord,
    ArgmaxOrder,
    AtomOutcomes,
    Coord,
    Fix,
    FixProj,
    Lex,
    MoveSet,
    NonFix,
    NonFixProj,
    PreferenceOrder,
    ProductOutcomes,
    SelectionFunction,
    TargetCoord,
    VectorOutcomes,
)
from .engine import Game, OutcomeFunction, Player, _fmt_profile, game_problems
from .errors import HogError, RenderError


@dataclass(frozen=True)
class GameSource:
    """A document in the text format, plus an optional display name."""

    text: str
    name: Optional[str] = None


@dataclass(frozen=True)
class ParseDiagnostic:
    """One located problem; line and column are 1-based."""

    severity: str  # "error" or "warning"
    message: str
    line: int
    column: int
    code: str = "syntax"

    def __str__(self):
        return f"{self.line}:{self.column}: {self.severity}: {self.message}"


@dataclass(frozen=True)
class ParseResult:
    game: Optional[Game]
    diagnostics: tuple[ParseDiagnostic, ...]

    @property
    def ok(self) -> bool:
        return self.game is not None

    def errors(self) -> tuple[ParseDiagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.severity == "error")

    def warnings(self) -> tuple[ParseDiagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.severity == "warning")


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

_IDENT = r"[A-Za-z_][A-Za-z0-9_]*(?:-[A-Za-z0-9_]+)*"

#: One token per match; whitespace and comments match no group.
_PLAIN = (
    r"[ \t\r]+",
    r"\#[^\n]*",
    r"(?P<NEWLINE>\n)",
    r"(?P<ARROW>->)",
    r"(?P<NUMBER>-?\d+(?:/\d+)?)",
    rf"(?P<IDENT>{_IDENT})",
    r"(?P<PUNCT>[{}(),;:=<])",
    r"(?P<BAD>.)",
)

# A well-formed table entry, `(labels) -> value`, where the value is a label,
# a label tuple, or a tuple of numbers with nonzero denominators; its blanks
# may hold newlines.
_S = r"[ \t\r\n]*"
_LABELS = rf"\({_S}{_IDENT}(?:{_S},{_S}{_IDENT})*{_S}\)"
_RATIONAL = r"-?\d+(?:/0*[1-9]\d*)?"
_ENTRY = (
    rf"{_LABELS}{_S}->{_S}"
    rf"(?:{_IDENT}|{_LABELS}|\({_S}{_RATIONAL}(?:{_S},{_S}{_RATIONAL})*{_S}\))"
)

# A table body that may be read in one pass: a `{` whose first character
# past blanks and whole comment lines is `(`, then no brace outside a comment
# up to the `}`.  A comment ends at a newline, and the text outside comments
# is one character-class repeat, so each body matches one way only and keeps
# no backtracking state per entry.  (A lead of `{_S}{_COMMENTS}\(` would
# match many ways, and an unclosed body would take quadratic time.)
_COMMENTS = r"(?:\#[^\n]*\n[^{}#]*)*"
_TABLE = rf"(?P<TABLE>\{{(?:{_S}\#[^\n]*\n)*{_S}\([^{{}}#]*{_COMMENTS}\}})"
_NO_BLANKS = str.maketrans("", "", " \t\r\n")

# Patterns are compiled on first use through `re`'s cache, so importing the
# module compiles none of them.
_PLAIN_RE = "|".join(_PLAIN)
_BULK_RE = "|".join((_TABLE, _PLAIN_RE))


class _Token(NamedTuple):
    kind: str
    text: str
    line: int
    column: int


_BRACKETS = {"{": "}", "(": ")"}

#: Deepest nesting of selection constructors a player line may use; the
#: parser, the shape check and evaluation all recurse once per level.
MAX_SELECTION_DEPTH = 100


def _statements(text: str, diags: list, pattern: str) -> list[list[_Token]]:
    """The token lists of the statements in `text`, lexed by `pattern` in one pass.

    Whitespace and comments make no token.  With `_BULK_RE`, a table body
    candidate is one TABLE token, its newlines counted past.  A newline ends
    a statement only outside brackets.  A run of unexpected characters is
    reported once; inside brackets only the run is skipped, at top level the
    rest of its line.
    """
    stmts: list[list[_Token]] = []
    current: list[_Token] = []
    stack: list[_Token] = []
    line, line_start = 1, 0
    skipping, bad_end = False, -1
    for m in re.finditer(pattern, text):
        kind = m.lastgroup
        if kind is None:
            continue
        if kind == "NEWLINE":
            line += 1
            line_start = m.end()
            skipping = False
            if current and not stack:
                stmts.append(current)
                current = []
            continue
        if skipping:
            continue
        tok = _Token(kind, m.group(kind), line, m.start() - line_start + 1)
        if kind == "BAD":
            if m.start() != bad_end:  # one report per run of bad characters
                _err(diags, tok, f"unexpected character {tok.text!r}", "syntax")
            skipping, bad_end = not stack, m.end()
            continue
        if kind == "TABLE":
            newlines = tok.text.count("\n")
            if newlines:
                line += newlines
                line_start = text.rindex("\n", 0, m.end()) + 1
        elif kind == "PUNCT" and tok.text in "{(":
            stack.append(tok)
        elif kind == "PUNCT" and tok.text in "})":
            if stack and _BRACKETS[stack[-1].text] == tok.text:
                stack.pop()
            else:
                _err(diags, tok, f"unmatched {tok.text!r}", "syntax")
        current.append(tok)
    if stack:
        _err(diags, stack[-1], f"unclosed {stack[-1].text!r}", "syntax")
    if current:
        stmts.append(current)
    return stmts


class _Stop(Exception):
    """A diagnostic has been recorded; abandon the statement or table entry."""


class _Cursor:
    """Reads one statement's tokens.  A TABLE token is one token to every
    read, and only `_table` takes it."""

    def __init__(self, tokens: list[_Token], diags: list, numbers: Callable[[str], Fraction]):
        self.tokens = tokens
        self.i = 0
        self.diags = diags
        self.numbers = numbers

    def peek(self) -> Optional[_Token]:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def advance(self) -> Optional[_Token]:
        tok = self.peek()
        if tok is not None:
            self.i += 1
        return tok

    def at(self, kind: str, text: Optional[str] = None) -> bool:
        tok = self.peek()
        return tok is not None and tok.kind == kind and (text is None or tok.text == text)

    def take(self, kind: str, text: Optional[str] = None) -> Optional[_Token]:
        return self.advance() if self.at(kind, text) else None

    def anchor(self) -> tuple[int, int]:
        """Best location for an error at the cursor: the next token, or just
        past the last one."""
        tok = self.peek()
        if tok is not None:
            return tok.line, tok.column
        if self.tokens:
            last = self.tokens[-1]
            return last.line, last.column + len(last.text)
        return 1, 1

    def error(self, message: str, code: str = "syntax", tok: Optional[_Token] = None):
        """Record an error at `tok`, or at the cursor."""
        line, col = (tok.line, tok.column) if tok else self.anchor()
        self.diags.append(ParseDiagnostic("error", message, line, col, code))

    def fail(self, message: str, code: str = "syntax", tok: Optional[_Token] = None):
        self.error(message, code, tok)
        raise _Stop

    def expected(self, what: str):
        found = self.peek()
        self.fail(f"expected {what}" + (f", got {found.text!r}" if found else ""))

    def expect(self, what: str, kind: str, text: Optional[str] = None) -> _Token:
        return self.take(kind, text) or self.expected(what)

    def label(self, what: str) -> _Token:
        return self.take("IDENT") or self.fail(f"expected {what}")


def _items(cur: _Cursor, what: str, sep: str, close: str, kinds=("IDENT",)):
    """Yield the item tokens of `item (sep item)*`, stopping at (not past)
    the `close` token; an item is a token of one of `kinds`."""
    while True:
        tok = cur.peek()
        if tok is None or tok.kind not in kinds:
            cur.fail(f"expected {what}")
        yield cur.advance()
        if not cur.take("PUNCT", sep):
            break
    if not cur.at("PUNCT", close):
        cur.fail(f"expected '{sep}' or '{close}'")


def _label_set(cur: _Cursor, what: str) -> tuple[str, ...]:
    """`{ a, b, ... }`; a repeated label is reported and reading goes on."""
    cur.expect("'{'", "PUNCT", "{")
    toks = list(_items(cur, "a move label", ",", "}"))
    cur.advance()
    seen = set()
    for tok in toks:
        if tok.text in seen:
            cur.error(f"duplicate {what} label {tok.text!r}", "duplicate", tok)
        seen.add(tok.text)
    return tuple(tok.text for tok in toks)


def _positive(cur: _Cursor, what: str) -> int:
    tok = cur.take("NUMBER")
    if tok is None or not tok.text.isdigit() or int(tok.text) < 1:
        cur.fail(f"expected a positive {what}")
    return int(tok.text)


# ---------------------------------------------------------------------------
# Goals
# ---------------------------------------------------------------------------


def _read_order(cur: _Cursor) -> PreferenceOrder:
    labels = []
    for tok in _items(cur, "an outcome label in the order", "<", ")"):
        if tok.text in labels:
            cur.fail(f"label {tok.text!r} appears twice in the order", "duplicate", tok)
        labels.append(tok.text)
    # the source lists values worst-to-best; the order wants best first
    return PreferenceOrder(tuple(reversed(labels)))


def _write_order(order: PreferenceOrder) -> str:
    return " < ".join(
        _require_ident(v, "outcome value") for v in reversed(order.ranking)
    )


#: How each keyword argument of a goal is read and written.
_GOAL_ARGS = {
    "coord": (lambda cur: _positive(cur, "coordinate index"), str),
    "value": (
        lambda cur: cur.label("a move label as the target value").text,
        lambda value: _require_ident(value, "target value"),
    ),
    "order": (_read_order, _write_order),
}

#: The goal grammar: constructor name, keyword arguments in written order,
#: and the class they build.  `lex(e1, e2)` is the one form read on its own.
_GOALS = (
    ("fix", (), Fix),
    ("fix", ("coord",), FixProj),
    ("nonfix", (), NonFix),
    ("nonfix", ("coord",), NonFixProj),
    ("coord", (), Coord),
    ("argmax", ("order",), ArgmaxOrder),
    ("argmax", ("coord",), ArgmaxCoord),
    ("target", ("coord", "value"), TargetCoord),
)


def _goal(cur: _Cursor, depth: int = 1) -> SelectionFunction:
    if depth > MAX_SELECTION_DEPTH:
        cur.fail(
            f"selection expression nests deeper than {MAX_SELECTION_DEPTH} levels",
            "too-deep",
        )
    tok = cur.label("a selection expression")
    if tok.text == "lex":
        cur.expect("'('", "PUNCT", "(")
        first = _goal(cur, depth + 1)
        cur.expect("','", "PUNCT", ",")
        second = _goal(cur, depth + 1)
        cur.expect("')'", "PUNCT", ")")
        return Lex(first, second)
    # rows of this constructor, keyed by their first argument
    rows = {
        args[0] if args else None: (args, cls)
        for name, args, cls in _GOALS
        if name == tok.text
    }
    if not rows:
        cur.fail(
            f"unknown selection constructor {tok.text!r}", "unknown-constructor", tok
        )
    bare = rows.pop(None, None)
    if bare and not (rows and cur.at("PUNCT", "(")):
        return bare[1]()
    cur.expect("'('", "PUNCT", "(")
    key = cur.peek()
    if key is None or key.text not in rows:
        cur.expected(" or ".join(map(repr, rows)))
    args, cls = rows[key.text]
    values = []
    for i, arg in enumerate(args):
        if i:
            cur.expect("','", "PUNCT", ",")
        cur.expect(repr(arg), "IDENT", arg)
        cur.expect("':'", "PUNCT", ":")
        values.append(_GOAL_ARGS[arg][0](cur))
    cur.expect("')'", "PUNCT", ")")
    return cls(*values)


def _render_selexpr(sel: SelectionFunction) -> str:
    if isinstance(sel, Lex):
        return f"lex({_render_selexpr(sel.primary)}, {_render_selexpr(sel.secondary)})"
    for name, args, cls in _GOALS:
        if isinstance(sel, cls):
            if not args:
                return name
            written = (f"{arg}: {_GOAL_ARGS[arg][1](getattr(sel, arg))}" for arg in args)
            return f"{name}({', '.join(written)})"
    raise RenderError(f"{type(sel).__name__} has no textual form")


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


def _fraction(cur: _Cursor, tok: _Token) -> Fraction:
    try:
        return cur.numbers(tok.text)
    except ZeroDivisionError:
        cur.fail(f"{tok.text} has a zero denominator", tok=tok)


def _table_value(cur: _Cursor):
    """An outcome after '->': a bare label, a label tuple, or a payoff vector."""
    tok = cur.take("IDENT")
    if tok is not None:
        return tok.text
    cur.expect("an outcome value", "PUNCT", "(")
    items = list(
        _items(cur, "a label or a rational number", ",", ")", ("IDENT", "NUMBER"))
    )
    cur.advance()
    kinds = {t.kind for t in items}
    if kinds == {"IDENT"}:
        return tuple(t.text for t in items)
    if kinds == {"NUMBER"}:
        return tuple(_fraction(cur, t) for t in items)
    cur.fail("outcome value mixes labels and numbers")


def _table_entry(cur: _Cursor):
    """`(labels) -> value`, as (profile, value, its '(' token)."""
    head = cur.expect("'('", "PUNCT", "(")
    labels = _items(cur, "a move label in the profile", ",", ")")
    profile = tuple(t.text for t in labels)
    cur.advance()
    cur.expect("'->'", "ARROW")
    return profile, _table_value(cur), head


def _entry(text: str, numbers: Callable[[str], Fraction], head: _Token):
    """A well-formed entry with its blanks taken out, as (profile, value, head)."""
    profile, value = text.split("->")
    profile = tuple(profile[1:-1].split(","))
    if value[0] == "(":
        value = tuple(value[1:-1].split(","))
        if value[0][0] in "-0123456789":
            value = tuple(map(numbers, value))
    return profile, value, head


def _table(cur: _Cursor):
    """`{ entry ; ... }` as (entries, closing token).

    A TABLE token is read in one pass when, its comments taken out, each of
    its `;`-separated pieces is one well-formed entry with blanks around it
    (a trailing `;` allowed): its blanks are taken out and each piece is
    split into its entry, with the TABLE token as head and closing token.
    Any other TABLE token is an error, so the document is walked again
    without them.  Else the entries are read token by token.  A bad entry is
    reported and skipped up to the next ';' or '}', so later entries still
    get checked.
    """
    body = cur.take("TABLE")
    if body is not None:
        text = body.text[1:-1]
        if "#" in text:
            text = re.sub(r"\#[^\n]*", "", text)
        pieces = text.split(";")
        if re.fullmatch(_S, pieces[-1]):  # a trailing ';'
            pieces.pop()
        if not all(map(re.compile(_S + _ENTRY + _S).fullmatch, pieces)):
            cur.fail("table body left to the token walk")  # never shown
        pieces = ";".join(pieces).translate(_NO_BLANKS).split(";")
        return [_entry(piece, cur.numbers, body) for piece in pieces], body
    cur.expect("'{'", "PUNCT", "{")
    entries = []
    while not cur.at("PUNCT", "}"):
        try:
            entries.append(_table_entry(cur))
        except _Stop:
            depth = 0
            while True:
                tok = cur.peek()
                if tok is None:
                    raise
                if depth == 0 and tok.kind == "PUNCT" and tok.text in ";}":
                    break
                if tok.kind == "PUNCT" and tok.text == "(":
                    depth += 1
                elif tok.kind == "PUNCT" and tok.text == ")":
                    depth -= 1
                cur.advance()
        if cur.take("PUNCT", ";") or cur.at("PUNCT", "}"):
            continue
        cur.error("expected ';' or '}' after a table entry")
        if cur.advance() is None:  # skip one token so malformed input cannot loop
            raise _Stop
    return entries, cur.advance()


def _read_outcomes(cur: _Cursor):
    """"moves", a vector length, or the tuple of atom labels."""
    if cur.take("IDENT", "moves") or cur.take("IDENT", "product"):
        return "moves"
    if cur.take("IDENT", "vectors"):
        return _positive(cur, "vector length")
    if cur.at("PUNCT", "{"):
        return _label_set(cur, "outcome")
    cur.fail("expected 'moves', 'vectors <n>', or '{ ... }'")


def _read_outcome_fn(cur: _Cursor):
    """(kind, table entries, the table's closing token)."""
    kind = cur.label("'majority', 'identity', or 'table'")
    if kind.text in ("majority", "identity"):
        return kind.text, [], None
    if kind.text == "table":
        return ("table", *_table(cur))
    cur.fail(f"unknown outcome function {kind.text!r}", "unknown-constructor", kind)


#: statement keyword -> (what a second declaration is called, reader of what
#: follows the '='); `{}` marks the statements keyed by a player name, and
#: `game` is the one statement without a '='
_STATEMENTS = {
    "game": ("game name", lambda cur: cur.expect("a game name", "IDENT").text),
    "moves": ("moves for {}", lambda cur: _label_set(cur, "move")),
    "outcomes": ("outcomes", _read_outcomes),
    "outcome_fn": ("outcome_fn", _read_outcome_fn),
    "player": ("player {}", _goal),
}


def _statement(cur: _Cursor, decl: dict) -> None:
    """Read one statement into `decl[key] = [keyword token, value]`.

    The key is ("game",), ("moves", P), ("outcomes",), ("outcome_fn",) or
    ("player", P).  It is set as soon as the keyword and name are read, so
    a broken statement still counts as declared, with value None.
    """
    head = cur.advance()
    if head.kind != "IDENT":
        cur.fail(f"expected a statement keyword, got {head.text!r}", tok=head)
    if head.text not in _STATEMENTS:
        cur.fail(f"unknown statement {head.text!r}", tok=head)
    what, read = _STATEMENTS[head.text]
    key = (head.text,)
    if "{}" in what:
        key += (cur.expect("a player name", "IDENT").text,)
        what = what.format(key[1])
    entry = [head, None]
    if key in decl:
        cur.error(f"{what} declared twice", "duplicate", head)
    else:
        decl[key] = entry
    if key[0] != "game":
        cur.expect("'='", "PUNCT", "=")
    value = read(cur)
    tok = cur.peek()
    if tok is not None:
        cur.fail(f"unexpected {tok.text!r} after the end of the statement", tok=tok)
    entry[1] = value
    if key[0] == "player" and decl[key] is entry and ("moves", key[1]) not in decl:
        del decl[key]
        cur.error(
            f"moves for {key[1]} must be declared before its player line", "missing", head
        )


# ---------------------------------------------------------------------------
# Semantic pass
# ---------------------------------------------------------------------------


def _err(diags, tok, message, code):
    diags.append(ParseDiagnostic("error", message, tok.line, tok.column, code))


def parse_game(src) -> ParseResult:
    """Parse a document into a validated Game, or into error diagnostics.

    Never raises on bad input: every problem is a located diagnostic.
    """
    text = src.text if isinstance(src, GameSource) else src
    result = _parse(text, _BULK_RE)
    # only the token walk diagnoses: a document that fails is read again
    # without TABLE tokens, so each diagnostic, its location and order are the walk's
    return result if result.ok else _parse(text, _PLAIN_RE)


def _parse(text: str, pattern: str) -> ParseResult:
    """`parse_game` with the statements lexed by `pattern`."""
    diags: list[ParseDiagnostic] = []
    decl: dict = {}
    numbers = functools.cache(Fraction)  # number spelling -> its Fraction, once per parse
    for tokens in _statements(text, diags, pattern):
        try:
            _statement(_Cursor(tokens, diags, numbers), decl)
        except _Stop:
            pass

    def failed():
        return any(d.severity == "error" for d in diags)

    def finish(game=None):
        ordered = tuple(sorted(diags, key=lambda d: (d.line, d.column)))
        return ParseResult(game, ordered)

    top = _Token("IDENT", "", 1, 1)
    names = [key[1] for key in decl if key[0] == "moves"]
    if ("game",) not in decl:
        _err(diags, top, "missing game declaration", "missing")
    if not names:
        _err(diags, top, "no moves declared", "missing")
    if ("outcomes",) not in decl:
        _err(diags, top, "missing outcomes declaration", "missing")
    if ("outcome_fn",) not in decl:
        _err(diags, top, "missing outcome_fn declaration", "missing")
    for name in names:
        # a broken moves line may have swallowed its player line
        if decl["moves", name][1] is not None and ("player", name) not in decl:
            _err(
                diags, decl["moves", name][0], f"no player declaration for {name}", "missing"
            )
    if failed():
        return finish()

    move_sets = tuple(MoveSet(decl["moves", n][1]) for n in names)
    outcomes_tok, shape = decl["outcomes",]
    fn_tok, (kind, entries, close_tok) = decl["outcome_fn",]

    # pin down the outcome space (vector levels come from the table)
    if shape == "moves":
        outcomes = ProductOutcomes(move_sets)
    elif isinstance(shape, tuple):
        outcomes = AtomOutcomes(shape)
    elif kind != "table":
        _err(
            diags, fn_tok, "vector outcomes need an explicit outcome table", "type-mismatch"
        )
        return finish()
    else:
        for profile, value, head in entries:
            if isinstance(value, str) or isinstance(value[0], str) or len(value) != shape:
                _err(
                    diags,
                    head,
                    f"expected a payoff vector of {shape} rationals for {_fmt_profile(profile)}",
                    "type-mismatch",
                )
        if not entries:
            _err(
                diags, close_tok, "vector outcomes need at least one table entry", "arity"
            )
        if failed():
            return finish()
        outcomes = VectorOutcomes._from_table(shape, (value for _, value, _ in entries))

    # Game is the validator; its problems are only located here
    fn = OutcomeFunction(kind, tuple((profile, value) for profile, value, _ in entries))
    players = tuple(
        Player(n, ms, decl["player", n][1]) for n, ms in zip(names, move_sets)
    )
    try:
        game = Game(decl["game",][1], players, outcomes, fn)
    except (HogError, ValueError):
        anchors = {("game", None): fn_tok, ("table", None): close_tok}
        for i, n in enumerate(names):
            anchors["player", i] = decl["player", n][0]
        for k, (_, _, head) in enumerate(entries):
            anchors["entry", k] = head
        for problem in game_problems(players, outcomes, fn):
            _err(diags, anchors[problem.where], problem.message, problem.code)
        return finish()

    if isinstance(outcomes, AtomOutcomes):
        if kind == "table":
            reachable = {v for _, v in fn.entries}
        else:
            reachable = {label for ms in move_sets for label in ms}
        unreachable = [a for a in outcomes.labels if a not in reachable]
        if unreachable:
            diags.append(
                ParseDiagnostic(
                    "warning",
                    "outcome value(s) never produced by the outcome function: "
                    + ", ".join(unreachable),
                    outcomes_tok.line,
                    outcomes_tok.column,
                    "unreachable-outcome",
                )
            )
    return finish(game)


def parse_file(path) -> ParseResult:
    p = Path(path)
    return parse_game(GameSource(p.read_text(encoding="utf-8"), p.stem))


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def _require_ident(text: str, what: str) -> str:
    if not isinstance(text, str) or re.fullmatch(_IDENT, text) is None:
        raise RenderError(f"{what} {text!r} cannot be written in the text format")
    return text


def _render_value(value) -> str:
    """A label, a tuple of labels, or a payoff vector, as the table spells it."""
    if isinstance(value, str):
        return _require_ident(value, "outcome value")
    if isinstance(value, tuple):
        return "(%s)" % ", ".join(map(_render_value, value))
    return str(Fraction(value))  # one payoff


def render_game(g: Game) -> GameSource:
    """Write a game back out in the text format.

    Inverse to `parse_game` up to structural equality.  Raises RenderError
    for games the grammar cannot express: table-backed or lifted goals,
    orders over non-label values, labels that are not identifiers, product
    outcome spaces other than the players' own move product, and vector
    level sets not recoverable from the outcome table.
    """
    _require_ident(g.name, "game name")
    lines = [f"game {g.name}"]
    for p in g.players:
        _require_ident(p.name, "player name")
        labels = ", ".join(_require_ident(x, "move label") for x in p.moves)
        lines.append(f"moves {p.name} = {{ {labels} }}")

    if isinstance(g.outcomes, AtomOutcomes):
        labels = ", ".join(
            _require_ident(x, "outcome label") for x in g.outcomes.labels
        )
        lines.append(f"outcomes = {{ {labels} }}")
    elif isinstance(g.outcomes, ProductOutcomes):
        if g.outcomes.coords != tuple(p.moves for p in g.players):
            raise RenderError(
                "only the product of the players' own move sets can be written"
            )
        lines.append("outcomes = moves")
    else:
        if g.outcome_fn.kind != "table":
            raise RenderError("vector outcomes can only be written with a table")
        pays = (pay for _, pay in g.outcome_fn.entries)
        if VectorOutcomes._from_table(g.outcomes.dim, pays) != g.outcomes:
            raise RenderError(
                "payoff levels are not recoverable from the outcome table"
            )
        lines.append(f"outcomes = vectors {g.outcomes.dim}")

    if g.outcome_fn.kind == "table":
        lines.append("outcome_fn = table {")
        # a profile's labels are moves, each checked on its `moves` line
        rows = [
            f"  ({', '.join(profile)}) -> {_render_value(value)}"
            for profile, value in g.outcome_fn.entries
        ]
        lines.extend(row + " ;" for row in rows[:-1])
        lines.append(rows[-1])
        lines.append("}")
    else:
        lines.append(f"outcome_fn = {g.outcome_fn.kind}")

    for p in g.players:
        lines.append(f"player {p.name} = {_render_selexpr(p.selection)}")
    return GameSource("\n".join(lines) + "\n", g.name)
