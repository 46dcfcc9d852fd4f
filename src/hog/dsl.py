"""Text format for declaring games, with a validating parser and a renderer.

The format is line-oriented; `#` starts a comment.  A document consists of
one `game` line, one `moves` line per player (their order fixes player
order), one `outcomes` line, one `outcome_fn` line, and one `player` line
per declared move set.  Newlines are soft inside braces and parentheses,
so outcome tables can span lines.  `parse_game` never returns a partially
valid game: either every check passes or you get located diagnostics.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional

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
from .engine import (
    Game,
    Player,
    game_problems,
    identity_rule,
    majority_rule,
    outcome_table,
)
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
# Tokenizer
# ---------------------------------------------------------------------------

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*(?:-[A-Za-z0-9_]+)*")

_TOKEN_RE = re.compile(
    r"""(?P<COMMENT>\#[^\n]*)
      | (?P<NEWLINE>\n)
      | (?P<WS>[ \t\r]+)
      | (?P<ARROW>->)
      | (?P<NUMBER>-?\d+(?:/\d+)?)
      | (?P<IDENT>[A-Za-z_][A-Za-z0-9_]*(?:-[A-Za-z0-9_]+)*)
      | (?P<PUNCT>[{}(),;:=<])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    line: int
    column: int


def _tokenize(text: str, diags: list) -> list[_Token]:
    tokens = []
    pos, line, line_start = 0, 1, 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            col = pos - line_start + 1
            diags.append(
                ParseDiagnostic(
                    "error", f"unexpected character {text[pos]!r}", line, col
                )
            )
            nl = text.find("\n", pos)
            pos = len(text) if nl == -1 else nl
            continue
        kind = m.lastgroup
        tok_text = m.group()
        col = pos - line_start + 1
        pos = m.end()
        if kind == "NEWLINE":
            tokens.append(_Token("NEWLINE", "\n", line, col))
            line += 1
            line_start = pos
        elif kind not in ("COMMENT", "WS"):
            tokens.append(_Token(kind, tok_text, line, col))
    return tokens


_BRACKETS = {"{": "}", "(": ")"}

#: Deepest nesting of selection constructors a player line may use; the
#: parser, the shape check and evaluation all recurse once per level.
MAX_SELECTION_DEPTH = 100


def _split_statements(tokens: list[_Token], diags: list) -> list[list[_Token]]:
    """Group tokens into statements; newlines only count outside brackets."""
    stmts: list[list[_Token]] = []
    current: list[_Token] = []
    stack: list[_Token] = []
    for tok in tokens:
        if tok.kind == "NEWLINE":
            if not stack and current:
                stmts.append(current)
                current = []
            continue
        if tok.kind == "PUNCT" and tok.text in "{(":
            stack.append(tok)
        elif tok.kind == "PUNCT" and tok.text in "})":
            if stack and _BRACKETS[stack[-1].text] == tok.text:
                stack.pop()
            else:
                diags.append(
                    ParseDiagnostic(
                        "error", f"unmatched {tok.text!r}", tok.line, tok.column
                    )
                )
        current.append(tok)
    if stack:
        t = stack[-1]
        diags.append(
            ParseDiagnostic("error", f"unclosed {t.text!r}", t.line, t.column)
        )
    if current:
        stmts.append(current)
    return stmts


class _Cursor:
    def __init__(self, tokens: list[_Token], diags: list):
        self.tokens = tokens
        self.i = 0
        self.diags = diags

    def peek(self) -> Optional[_Token]:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def advance(self) -> Optional[_Token]:
        tok = self.peek()
        if tok is not None:
            self.i += 1
        return tok

    def at(self, kind: Optional[str] = None, text: Optional[str] = None) -> bool:
        tok = self.peek()
        if tok is None:
            return False
        if kind is not None and tok.kind != kind:
            return False
        if text is not None and tok.text != text:
            return False
        return True

    def take(self, kind: Optional[str] = None, text: Optional[str] = None):
        if self.at(kind, text):
            return self.advance()
        return None

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

    def error(self, message: str, code: str = "syntax") -> None:
        line, col = self.anchor()
        self.diags.append(ParseDiagnostic("error", message, line, col, code))

    def expect(self, what: str, kind: Optional[str] = None, text: Optional[str] = None):
        tok = self.take(kind, text)
        if tok is None:
            found = self.peek()
            got = f", got {found.text!r}" if found else ""
            self.error(f"expected {what}{got}")
        return tok


# ---------------------------------------------------------------------------
# Statement parsing
# ---------------------------------------------------------------------------
# Parsed statements are plain tuples tagged with their kind; the semantic
# pass below turns them into a Game.  Locations ride along for diagnostics.


def _parse_label_braces(cur: _Cursor) -> Optional[list[_Token]]:
    if cur.expect("'{'", "PUNCT", "{") is None:
        return None
    labels = []
    while True:
        tok = cur.take("IDENT")
        if tok is None:
            cur.error("expected a move label")
            return None
        labels.append(tok)
        if cur.take("PUNCT", ","):
            continue
        if cur.take("PUNCT", "}"):
            return labels
        cur.error("expected ',' or '}'")
        return None


def _parse_selexpr(cur: _Cursor, depth: int = 1) -> Optional[SelectionFunction]:
    if depth > MAX_SELECTION_DEPTH:
        cur.error(
            f"selection expression nests deeper than {MAX_SELECTION_DEPTH} levels",
            "too-deep",
        )
        return None
    tok = cur.take("IDENT")
    if tok is None:
        cur.error("expected a selection expression")
        return None
    name = tok.text
    if name in ("fix", "nonfix"):
        if cur.at("PUNCT", "("):
            n = _parse_coord_args(cur)
            if n is None:
                return None
            return FixProj(n) if name == "fix" else NonFixProj(n)
        return Fix() if name == "fix" else NonFix()
    if name == "coord":
        return Coord()
    if name == "argmax":
        return _parse_argmax(cur)
    if name == "target":
        return _parse_target(cur)
    if name == "lex":
        if cur.expect("'('", "PUNCT", "(") is None:
            return None
        first = _parse_selexpr(cur, depth + 1)
        if first is None:
            return None
        if cur.expect("','", "PUNCT", ",") is None:
            return None
        second = _parse_selexpr(cur, depth + 1)
        if second is None:
            return None
        if cur.expect("')'", "PUNCT", ")") is None:
            return None
        return Lex(first, second)
    cur.diags.append(
        ParseDiagnostic(
            "error",
            f"unknown selection constructor {name!r}",
            tok.line,
            tok.column,
            "unknown-constructor",
        )
    )
    return None


def _parse_coord_index(cur: _Cursor) -> Optional[int]:
    tok = cur.take("NUMBER")
    if tok is None or not tok.text.isdigit() or int(tok.text) < 1:
        cur.error("expected a positive coordinate index")
        return None
    return int(tok.text)


def _parse_coord_args(cur: _Cursor) -> Optional[int]:
    # the "(coord: i)" suffix shared by fix, nonfix and argmax
    if cur.expect("'('", "PUNCT", "(") is None:
        return None
    if cur.expect("'coord'", "IDENT", "coord") is None:
        return None
    if cur.expect("':'", "PUNCT", ":") is None:
        return None
    n = _parse_coord_index(cur)
    if n is None:
        return None
    if cur.expect("')'", "PUNCT", ")") is None:
        return None
    return n


def _parse_argmax(cur: _Cursor) -> Optional[SelectionFunction]:
    if cur.expect("'('", "PUNCT", "(") is None:
        return None
    key = cur.take("IDENT")
    if key is None or key.text not in ("order", "coord"):
        cur.error("expected 'order:' or 'coord:' inside argmax(...)")
        return None
    if cur.expect("':'", "PUNCT", ":") is None:
        return None
    if key.text == "coord":
        n = _parse_coord_index(cur)
        if n is None:
            return None
        if cur.expect("')'", "PUNCT", ")") is None:
            return None
        return ArgmaxCoord(n)
    labels = []
    while True:
        tok = cur.take("IDENT")
        if tok is None:
            cur.error("expected an outcome label in the order")
            return None
        if tok.text in labels:
            cur.diags.append(
                ParseDiagnostic(
                    "error",
                    f"label {tok.text!r} appears twice in the order",
                    tok.line,
                    tok.column,
                    "duplicate",
                )
            )
            return None
        labels.append(tok.text)
        if cur.take("PUNCT", "<"):
            continue
        if cur.take("PUNCT", ")"):
            # the source lists values worst-to-best; the order wants best first
            return ArgmaxOrder(PreferenceOrder(tuple(reversed(labels))))
        cur.error("expected '<' or ')'")
        return None


def _parse_target(cur: _Cursor) -> Optional[SelectionFunction]:
    if cur.expect("'('", "PUNCT", "(") is None:
        return None
    if cur.expect("'coord'", "IDENT", "coord") is None:
        return None
    if cur.expect("':'", "PUNCT", ":") is None:
        return None
    n = _parse_coord_index(cur)
    if n is None:
        return None
    if cur.expect("','", "PUNCT", ",") is None:
        return None
    if cur.expect("'value'", "IDENT", "value") is None:
        return None
    if cur.expect("':'", "PUNCT", ":") is None:
        return None
    value = cur.take("IDENT")
    if value is None:
        cur.error("expected a move label as the target value")
        return None
    if cur.expect("')'", "PUNCT", ")") is None:
        return None
    return TargetCoord(n, value.text)


def _parse_table_value(cur: _Cursor):
    """An outcome after '->': a bare label, a label tuple, or a payoff vector."""
    tok = cur.take("IDENT")
    if tok is not None:
        return ("atom", tok.text)
    if cur.expect("an outcome value", "PUNCT", "(") is None:
        return None
    items = []
    kinds = set()
    while True:
        item = cur.peek()
        if item is not None and item.kind in ("IDENT", "NUMBER"):
            cur.advance()
            items.append(item)
            kinds.add(item.kind)
        else:
            cur.error("expected a label or a rational number")
            return None
        if cur.take("PUNCT", ","):
            continue
        if cur.take("PUNCT", ")"):
            break
        cur.error("expected ',' or ')'")
        return None
    if kinds == {"IDENT"}:
        return ("labels", tuple(t.text for t in items))
    if kinds == {"NUMBER"}:
        return ("numbers", tuple(Fraction(t.text) for t in items))
    cur.error("outcome value mixes labels and numbers")
    return None


def _parse_table_entries(cur: _Cursor):
    """Entries of `table { ... }`; returns (entries, close_token) or None.

    Each entry is ((labels), value, its '(' token).  On a bad entry we skip
    to the next ';' so later entries still get checked.
    """
    if cur.expect("'{'", "PUNCT", "{") is None:
        return None
    entries = []
    while True:
        if cur.at("PUNCT", "}"):
            return entries, cur.advance()
        entry = _parse_table_entry(cur)
        if entry is not None:
            entries.append(entry)
        else:
            # resynchronize at the next separator or the closing brace
            depth = 0
            while True:
                tok = cur.peek()
                if tok is None:
                    return None
                if depth == 0 and tok.kind == "PUNCT" and tok.text in ";}":
                    break
                if tok.kind == "PUNCT" and tok.text == "(":
                    depth += 1
                elif tok.kind == "PUNCT" and tok.text == ")":
                    depth -= 1
                cur.advance()
        if cur.take("PUNCT", ";"):
            continue
        if cur.at("PUNCT", "}"):
            return entries, cur.advance()
        cur.error("expected ';' or '}' after a table entry")
        if cur.peek() is None:
            return None
        cur.advance()  # skip one token so malformed input cannot loop


def _parse_table_entry(cur: _Cursor):
    head = cur.peek()
    if cur.expect("'('", "PUNCT", "(") is None:
        return None
    profile = []
    while True:
        tok = cur.take("IDENT")
        if tok is None:
            cur.error("expected a move label in the profile")
            return None
        profile.append(tok.text)
        if cur.take("PUNCT", ","):
            continue
        if cur.take("PUNCT", ")"):
            break
        cur.error("expected ',' or ')'")
        return None
    if cur.expect("'->'", "ARROW") is None:
        return None
    value = _parse_table_value(cur)
    if value is None:
        return None
    return (tuple(profile), value, head)


def _parse_statement(tokens: list[_Token], diags: list):
    cur = _Cursor(tokens, diags)
    head = cur.advance()
    if head.kind != "IDENT":
        cur.diags.append(
            ParseDiagnostic(
                "error",
                f"expected a statement keyword, got {head.text!r}",
                head.line,
                head.column,
            )
        )
        return None
    stmt = declared = None
    if head.text == "game":
        name = cur.expect("a game name", "IDENT")
        if name is not None:
            stmt = ("game", name.text, head)
    elif head.text == "moves":
        name = cur.expect("a player name", "IDENT")
        if name is not None and cur.expect("'='", "PUNCT", "=") is not None:
            labels = _parse_label_braces(cur)
            if labels is not None:
                stmt = ("moves", name.text, labels, head)
    elif head.text == "outcomes":
        if cur.expect("'='", "PUNCT", "=") is not None:
            if cur.take("IDENT", "moves") or cur.take("IDENT", "product"):
                stmt = ("outcomes", ("moves",), head)
            elif cur.take("IDENT", "vectors"):
                tok = cur.take("NUMBER")
                if tok is None or not tok.text.isdigit() or int(tok.text) < 1:
                    cur.error("expected a positive vector length")
                else:
                    stmt = ("outcomes", ("vectors", int(tok.text)), head)
            elif cur.at("PUNCT", "{"):
                labels = _parse_label_braces(cur)
                if labels is not None:
                    stmt = ("outcomes", ("atoms", labels), head)
            else:
                cur.error("expected 'moves', 'vectors <n>', or '{ ... }'")
    elif head.text == "outcome_fn":
        if cur.expect("'='", "PUNCT", "=") is not None:
            kind = cur.take("IDENT")
            if kind is None:
                cur.error("expected 'majority', 'identity', or 'table'")
            elif kind.text in ("majority", "identity"):
                stmt = ("outcome_fn", kind.text, None, None, head)
            elif kind.text == "table":
                parsed = _parse_table_entries(cur)
                if parsed is not None:
                    entries, close = parsed
                    stmt = ("outcome_fn", "table", entries, close, head)
            else:
                cur.diags.append(
                    ParseDiagnostic(
                        "error",
                        f"unknown outcome function {kind.text!r}",
                        kind.line,
                        kind.column,
                        "unknown-constructor",
                    )
                )
    elif head.text == "player":
        name = cur.expect("a player name", "IDENT")
        if name is not None:
            # a named player line declares the player even when the rest of
            # it is broken; its own error says what is wrong
            declared = ("player", name.text, None, head)
            if cur.expect("'='", "PUNCT", "=") is not None:
                sel = _parse_selexpr(cur)
                if sel is not None:
                    stmt = ("player", name.text, sel, head)
    else:
        cur.diags.append(
            ParseDiagnostic(
                "error",
                f"unknown statement {head.text!r}",
                head.line,
                head.column,
            )
        )
        return None
    if stmt is not None and cur.peek() is not None:
        tok = cur.peek()
        cur.diags.append(
            ParseDiagnostic(
                "error",
                f"unexpected {tok.text!r} after the end of the statement",
                tok.line,
                tok.column,
            )
        )
        return declared
    return stmt or declared


# ---------------------------------------------------------------------------
# Semantic pass
# ---------------------------------------------------------------------------


def _err(diags, tok, message, code):
    diags.append(ParseDiagnostic("error", message, tok.line, tok.column, code))


def _warn(diags, tok, message, code="unreachable-outcome"):
    diags.append(ParseDiagnostic("warning", message, tok.line, tok.column, code))


def parse_game(src) -> ParseResult:
    """Parse a document into a validated Game, or into error diagnostics."""
    if isinstance(src, GameSource):
        text = src.text
    else:
        text = src
    diags: list[ParseDiagnostic] = []
    tokens = _tokenize(text, diags)
    statements = [
        s
        for s in (
            _parse_statement(st, diags) for st in _split_statements(tokens, diags)
        )
        if s is not None
    ]

    game_name = None
    moves_order: list[str] = []
    moves_by_name: dict[str, tuple[MoveSet, _Token]] = {}
    outcomes_decl = None
    fn_decl = None
    players: dict[str, tuple[Optional[SelectionFunction], _Token]] = {}

    for stmt in statements:
        tag = stmt[0]
        if tag == "game":
            _, name, tok = stmt
            if game_name is not None:
                _err(diags, tok, "game name declared twice", "duplicate")
            else:
                game_name = name
        elif tag == "moves":
            _, name, label_toks, tok = stmt
            if name in moves_by_name:
                _err(diags, tok, f"moves for {name} declared twice", "duplicate")
                continue
            seen = set()
            labels = []
            ok = True
            for lt in label_toks:
                if lt.text in seen:
                    _err(diags, lt, f"duplicate move label {lt.text!r}", "duplicate")
                    ok = False
                seen.add(lt.text)
                labels.append(lt.text)
            if ok:
                moves_by_name[name] = (MoveSet(tuple(labels)), tok)
                moves_order.append(name)
        elif tag == "outcomes":
            _, shape, tok = stmt
            if outcomes_decl is not None:
                _err(diags, tok, "outcomes declared twice", "duplicate")
            else:
                outcomes_decl = (shape, tok)
        elif tag == "outcome_fn":
            _, kind, entries, close, tok = stmt
            if fn_decl is not None:
                _err(diags, tok, "outcome_fn declared twice", "duplicate")
            else:
                fn_decl = (kind, entries, close, tok)
        elif tag == "player":
            _, name, sel, tok = stmt
            if name in players:
                _err(diags, tok, f"player {name} declared twice", "duplicate")
            elif name not in moves_by_name and sel is not None:
                _err(
                    diags,
                    tok,
                    f"moves for {name} must be declared before its player line",
                    "missing",
                )
            else:
                players[name] = (sel, tok)

    def finish(game=None):
        ordered = tuple(sorted(diags, key=lambda d: (d.line, d.column)))
        return ParseResult(game, ordered)

    top = _Token("IDENT", "", 1, 1)
    if game_name is None:
        _err(diags, top, "missing game declaration", "missing")
    if not moves_order:
        _err(diags, top, "no moves declared", "missing")
    if outcomes_decl is None:
        _err(diags, top, "missing outcomes declaration", "missing")
    if fn_decl is None:
        _err(diags, top, "missing outcome_fn declaration", "missing")
    for name in moves_order:
        if name not in players:
            _err(
                diags,
                moves_by_name[name][1],
                f"no player declaration for {name}",
                "missing",
            )
    if any(d.severity == "error" for d in diags):
        return finish()

    move_sets = tuple(moves_by_name[n][0] for n in moves_order)
    shape, outcomes_tok = outcomes_decl
    kind, raw_entries, close_tok, fn_tok = fn_decl

    # pin down the outcome space (vector levels come from the table)
    outcomes = None
    if shape[0] == "atoms":
        seen = set()
        labels = []
        for lt in shape[1]:
            if lt.text in seen:
                _err(diags, lt, f"duplicate outcome label {lt.text!r}", "duplicate")
            seen.add(lt.text)
            labels.append(lt.text)
        if not any(d.severity == "error" for d in diags):
            outcomes = AtomOutcomes(tuple(labels))
    elif shape[0] == "moves":
        outcomes = ProductOutcomes(move_sets)
    else:
        dim = shape[1]
        if kind != "table":
            _err(
                diags,
                fn_tok,
                "vector outcomes need an explicit outcome table",
                "type-mismatch",
            )
        else:
            levels = set()
            for profile, value, head in raw_entries:
                if value[0] != "numbers" or len(value[1]) != dim:
                    _err(
                        diags,
                        head,
                        f"expected a payoff vector of {dim} rationals for "
                        f"({', '.join(profile)})",
                        "type-mismatch",
                    )
                else:
                    levels.update(value[1])
            if not any(d.severity == "error" for d in diags):
                outcomes = VectorOutcomes(dim, tuple(sorted(levels)))
    if outcomes is None:
        return finish()

    # Game is the validator; its problems are only located here
    if kind == "majority":
        fn = majority_rule()
    elif kind == "identity":
        fn = identity_rule()
    else:
        fn = outcome_table(tuple((profile, value[1]) for profile, value, _ in raw_entries))
    game_players = tuple(
        Player(n, moves_by_name[n][0], players[n][0]) for n in moves_order
    )
    try:
        game = Game(game_name, game_players, outcomes, fn)
    except (HogError, ValueError):
        anchors = {("game", None): fn_tok, ("table", None): close_tok}
        for i, n in enumerate(moves_order):
            anchors["player", i] = players[n][1]
        for k, (_, _, head) in enumerate(raw_entries or ()):
            anchors["entry", k] = head
        for problem in game_problems(game_players, outcomes, fn):
            _err(diags, anchors[problem.where], problem.message, problem.code)
        return finish()

    if isinstance(outcomes, AtomOutcomes):
        if kind == "table":
            reachable = {v for _, v in fn.entries}
        else:
            reachable = {label for ms in move_sets for label in ms}
        unreachable = [a for a in outcomes.labels if a not in reachable]
        if unreachable:
            _warn(
                diags,
                outcomes_tok,
                "outcome value(s) never produced by the outcome function: "
                + ", ".join(unreachable),
            )
    return finish(game)


def parse_file(path) -> ParseResult:
    p = Path(path)
    return parse_game(GameSource(p.read_text(encoding="utf-8"), p.stem))


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def _require_ident(text: str, what: str) -> str:
    if not isinstance(text, str) or _IDENT_RE.fullmatch(text) is None:
        raise RenderError(f"{what} {text!r} cannot be written in the text format")
    return text


def _render_selexpr(sel: SelectionFunction) -> str:
    if isinstance(sel, ArgmaxOrder):
        # ranking is best-first; the text lists values ascending
        values = tuple(reversed(sel.order.ranking))
        return "argmax(order: %s)" % " < ".join(
            _require_ident(v, "outcome value") for v in values
        )
    if isinstance(sel, ArgmaxCoord):
        return f"argmax(coord: {sel.coord})"
    if isinstance(sel, Fix):
        return "fix"
    if isinstance(sel, NonFix):
        return "nonfix"
    if isinstance(sel, FixProj):
        return f"fix(coord: {sel.coord})"
    if isinstance(sel, NonFixProj):
        return f"nonfix(coord: {sel.coord})"
    if isinstance(sel, Coord):
        return "coord"
    if isinstance(sel, TargetCoord):
        value = _require_ident(sel.value, "target value")
        return f"target(coord: {sel.coord}, value: {value})"
    if isinstance(sel, Lex):
        return f"lex({_render_selexpr(sel.primary)}, {_render_selexpr(sel.secondary)})"
    raise RenderError(f"{type(sel).__name__} has no textual form")


def _render_value(value) -> str:
    if isinstance(value, str):
        return _require_ident(value, "outcome value")
    parts = []
    for v in value:
        if isinstance(v, str):
            parts.append(_require_ident(v, "outcome value"))
        else:
            parts.append(str(Fraction(v)))
    return "(%s)" % ", ".join(parts)


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
        used = {v for _, pay in g.outcome_fn.entries for v in pay}
        if used != set(g.outcomes.levels):
            raise RenderError(
                "payoff levels are not recoverable from the outcome table"
            )
        lines.append(f"outcomes = vectors {g.outcomes.dim}")

    if g.outcome_fn.kind == "table":
        lines.append("outcome_fn = table {")
        rows = [
            "  (%s) -> %s"
            % (
                ", ".join(_require_ident(x, "move label") for x in profile),
                _render_value(value),
            )
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
