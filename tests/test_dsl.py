"""Parsing, validation diagnostics, and rendering of the text format."""

import gc
import re
import tempfile
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from io import StringIO
from itertools import product
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from hog import (
    ArgmaxCoord,
    ArgmaxOrder,
    AtomOutcomes,
    Coord,
    Fix,
    FixProj,
    Game,
    GameSource,
    HogError,
    MoveSet,
    PayoffMatrix,
    Player,
    PreferenceOrder,
    ProductOutcomes,
    RenderError,
    TargetCoord,
    VectorOutcomes,
    builtin,
    builtin_names,
    classical_game,
    enumerate_equilibria,
    identity_rule,
    majority_rule,
    outcome_table,
    parse_game,
    payoff_matrix,
    payoff_matrix_names,
    render_game,
    tabulate,
)
from hog import dsl
from hog.cli import main
from hog.dsl import MAX_SELECTION_DEPTH
import parity
from parity import LEXER_EDITS, lexer_text
from test_engine import _majority_games

KEYNES_TEXT = """\
# three voters, the first wants A to win, the others vote with the crowd
game voting-keynes

moves J1 = { A, B }
moves J2 = {A,B}
moves J3 = {
    A,  # conform
    B
}
outcomes = { A, B }
outcome_fn = majority

player J1 = argmax(order: B < A)
player J2 = fix
player J3 = fix
"""


def errors(result):
    return [(d.code, d.line, d.message) for d in result.errors()]


def test_formatting_noise_does_not_change_the_game():
    result = parse_game(KEYNES_TEXT)
    assert result.ok and not result.diagnostics
    assert result.game == builtin("voting-keynes")


@pytest.mark.parametrize("name", builtin_names())
def test_render_then_parse_round_trips(name):
    g = builtin(name)
    result = parse_game(render_game(g))
    assert result.ok and not result.diagnostics
    assert result.game == g


def test_product_is_an_alias_for_moves_outcomes():
    canonical = render_game(builtin("meeting-ny")).text
    aliased = canonical.replace("outcomes = moves", "outcomes = product")
    assert aliased != canonical
    result = parse_game(aliased)
    assert result.ok and result.game == builtin("meeting-ny")


def test_parse_file_names_the_game_after_the_file(tmp_path):
    path = tmp_path / "scratch.hog"
    path.write_text(render_game(builtin("meeting-ny")).text)
    from hog import parse_file

    result = parse_file(path)
    assert result.ok
    assert result.game.name == "meeting-ny"


def test_vector_payoffs_pool_levels_and_stay_exact():
    text = """\
game tiny
moves P1 = { H, T }
moves P2 = { H, T }
outcomes = vectors 2
outcome_fn = table {
  (H, H) -> (1/2, 1) ;
  (H, T) -> (-1, -1) ;
  (T, H) -> (-1, -1) ;
  (T, T) -> (1, 1/2)
}
player P1 = argmax(coord: 1)
player P2 = argmax(coord: 2)
"""
    result = parse_game(text)
    assert result.ok, errors(result)
    g = result.game
    assert g.outcomes == VectorOutcomes(
        2, (Fraction(-1), Fraction(1, 2), Fraction(1))
    )
    assert g.outcome(("H", "H")) == (Fraction(1, 2), Fraction(1))
    report = enumerate_equilibria(g)
    assert report.selection_equilibria() == (("H", "H"), ("T", "T"))
    assert report.quantifier_equilibria() == (("H", "H"), ("T", "T"))


def test_a_payoff_is_one_level_however_it_is_written():
    ms = MoveSet(("x", "y"))
    payoffs = {
        ("x", "x"): (1, Fraction(1)),
        ("x", "y"): (Fraction(2, 2), 0),
        ("y", "x"): (0, 1),
        ("y", "y"): (Fraction(1), Fraction(2, 2)),
    }
    matrix = PayoffMatrix("m", ("P1", "P2"), (ms, ms), payoffs)
    assert classical_game(matrix).outcomes.levels == (Fraction(0), Fraction(1))
    text = (
        "game g\nmoves P1 = { x, y }\noutcomes = vectors 2\n"
        "outcome_fn = table { (x) -> (1, 2/2) ; (y) -> (2/2, 1) }\n"
        "player P1 = argmax(coord: 1)\n"
    )
    result = parse_game(text)
    assert result.ok, errors(result)
    assert result.game.outcomes.levels == (Fraction(1),)


def test_diagnostics_render_with_position_and_severity():
    result = parse_game("game x\nmoves P1 = { A, A }\n")
    texts = [str(d) for d in result.diagnostics]
    assert "2:17: error: duplicate move label 'A'" in texts


# ---------------------------------------------------------------------------
# structural errors
# ---------------------------------------------------------------------------


def test_empty_document_reports_every_missing_section():
    result = parse_game("# nothing here\n")
    assert not result.ok
    messages = [d.message for d in result.errors()]
    assert "missing game declaration" in messages
    assert "no moves declared" in messages
    assert "missing outcomes declaration" in messages
    assert "missing outcome_fn declaration" in messages
    assert {d.code for d in result.errors()} == {"missing"}


def test_player_line_must_follow_its_moves():
    text = "game g\nplayer P1 = fix\nmoves P1 = { A, B }\noutcomes = { A, B }\noutcome_fn = majority\n"
    result = parse_game(text)
    assert any(
        d.message == "moves for P1 must be declared before its player line"
        and d.line == 2
        for d in result.errors()
    )


def test_moves_without_player_is_an_error():
    text = "game g\nmoves P1 = { A, B }\noutcomes = { A, B }\noutcome_fn = majority\n"
    result = parse_game(text)
    assert any(
        d.message == "no player declaration for P1" and d.line == 2 and d.code == "missing"
        for d in result.errors()
    )


def test_a_broken_player_line_still_declares_its_player():
    text = (
        "game g\nmoves P1 = { A, B }\noutcomes = { A, B }\noutcome_fn = majority\n"
        "player P1 = lex(fix fix)\n"
    )
    result = parse_game(text)
    assert [(d.line, d.column) for d in result.diagnostics] == [(5, 21)]
    assert result.errors()[0].message == "expected ',', got 'fix'"


def test_duplicate_sections_are_flagged():
    text = (
        "game g\ngame h\n"
        "moves P1 = { A, B }\nmoves P1 = { A, B }\n"
        "outcomes = { A, B }\noutcomes = { A, B }\n"
        "outcome_fn = majority\noutcome_fn = majority\n"
        "player P1 = fix\nplayer P1 = fix\n"
    )
    result = parse_game(text)
    codes = [d.code for d in result.errors()]
    assert codes.count("duplicate") == 5
    assert {d.message for d in result.errors() if d.code == "duplicate"} == {
        "game name declared twice",
        "moves for P1 declared twice",
        "outcomes declared twice",
        "outcome_fn declared twice",
        "player P1 declared twice",
    }


def test_unknown_selection_constructor():
    text = (
        "game g\nmoves P1 = { A, B }\nmoves P2 = { A, B }\nmoves P3 = { A, B }\n"
        "outcomes = { A, B }\noutcome_fn = majority\n"
        "player P1 = minimax\nplayer P2 = fix\nplayer P3 = fix\n"
    )
    result = parse_game(text)
    assert any(d.code == "unknown-constructor" for d in result.errors())


WORD_ERRORS = {
    "unknown-outcome-fn": (
        "plurality", "fix",
        ("6:14: error: unknown outcome function 'plurality'", "unknown-constructor"),
    ),
    "unknown-goal": (
        "majority", "minimax",
        ("7:13: error: unknown selection constructor 'minimax'", "unknown-constructor"),
    ),
    "order-repeats-a-label": (
        "majority", "argmax(order: B < A < B)",
        ("7:35: error: label 'B' appears twice in the order", "duplicate"),
    ),
}


@pytest.mark.parametrize("case", WORD_ERRORS)
def test_bad_words_in_a_statement_are_located(case):
    fn, goal, expected = WORD_ERRORS[case]
    text = (
        "game g\nmoves P1 = { A, B }\nmoves P2 = { A, B }\nmoves P3 = { A, B }\n"
        f"outcomes = {{ A, B }}\noutcome_fn = {fn}\n"
        f"player P1 = {goal}\nplayer P2 = fix\nplayer P3 = fix\n"
    )
    result = parse_game(text)
    assert [(str(d), d.code) for d in result.diagnostics] == [expected]


def test_selection_nesting_is_bounded():
    def text(depth):
        goal = "fix"
        for _ in range(depth - 1):
            goal = f"lex({goal}, fix)"
        return (
            "game g\nmoves P1 = { A, B }\noutcomes = { A, B }\n"
            f"outcome_fn = majority\nplayer P1 = {goal}\n"
        )

    deepest = parse_game(text(MAX_SELECTION_DEPTH))
    assert deepest.ok and not deepest.diagnostics
    assert enumerate_equilibria(deepest.game).selection_equilibria() == (("A",), ("B",))
    too_deep = parse_game(text(MAX_SELECTION_DEPTH + 1))
    assert not too_deep.ok
    deep = [(d.line, d.column) for d in too_deep.errors() if d.code == "too-deep"]
    assert deep == [(5, 13 + 4 * MAX_SELECTION_DEPTH)]


def test_diagnostics_come_out_sorted_and_parsing_recovers():
    text = (
        "game g\n"
        "moves P1 = { A, A }\n"
        "moves P2 = { B, }\n"
        "outcomes = { A, B }\n"
        "outcome_fn = majority\n"
        "player P1 = fix\n"
        "player P2 = argmax(order: )\n"
    )
    result = parse_game(text)
    errs = result.errors()
    assert len(errs) >= 3
    positions = [(d.line, d.column) for d in result.diagnostics]
    assert positions == sorted(positions)


def test_a_broken_moves_line_reports_only_its_own_errors():
    text = (
        "game g\n"
        "moves P1 = { A, A }\n"
        "moves P2 = { B, }\n"
        "outcomes = { A, B }\n"
        "outcome_fn = majority\n"
        "player P1 = fix\n"
        "player P2 = fix\n"
    )
    assert [str(d) for d in parse_game(text).diagnostics] == [
        "2:17: error: duplicate move label 'A'",
        "3:17: error: expected a move label",
    ]


def test_a_broken_statement_still_counts_as_declared():
    body = (
        "moves P1 = { A, B }\noutcomes = { A, B }\noutcome_fn = majority\n"
        "player P1 = fix\n"
    )
    result = parse_game("game g extra\n" + body)
    assert [str(d) for d in result.diagnostics] == [
        "1:8: error: unexpected 'extra' after the end of the statement"
    ]
    broken = ("game g\n" + body).replace("outcomes = { A, B }", "outcomes = { A B }")
    assert errors(parse_game(broken)) == [("syntax", 3, "expected ',' or '}'")]


#: lexer case -> its diagnostics; `parity.lexer_text` writes each document
LEXER_CASES = {
    "at-mid-line": [("1:8: error: unexpected character '@'", "syntax")],
    "dollar-in-entry": [("7:17: error: unexpected character '$'", "syntax")],
    "runs-in-entry": [
        ("7:14: error: unexpected character '$'", "syntax"),
        ("7:20: error: unexpected character '~'", "syntax"),
    ],
    "stray-paren": [
        ("11:19: error: unmatched ')'", "syntax"),
        ("11:19: error: unexpected ')' after the end of the statement", "syntax"),
    ],
    "stray-brace": [
        ("4:12: error: unmatched '}'", "syntax"),
        ("4:12: error: expected 'moves', 'vectors <n>', or '{ ... }'", "syntax"),
    ],
    "unclosed-across-lines": [
        ("2:1: error: no player declaration for P1", "missing"),
        ("3:1: error: no player declaration for P2", "missing"),
        ("9:13: error: unclosed '('", "syntax"),
        ("10:8: error: expected ',' or ')'", "syntax"),
    ],
    "unclosed-brace": [
        ("1:1: error: missing outcomes declaration", "missing"),
        ("1:1: error: missing outcome_fn declaration", "missing"),
        ("2:1: error: no player declaration for P1", "missing"),
        ("3:12: error: unclosed '{'", "syntax"),
        ("4:10: error: expected ',' or '}'", "syntax"),
    ],
    "crlf": [("3:17: error: duplicate move label 'A'", "duplicate")],
    "comment-in-table": [],
    "tab": [("2:17: error: duplicate move label 'A'", "duplicate")],
}


@pytest.mark.parametrize("case", LEXER_CASES)
def test_lexer_diagnostics_are_located(case):
    assert LEXER_CASES.keys() == LEXER_EDITS.keys()
    expected = LEXER_CASES[case]
    result = parse_game(lexer_text(case))
    assert [(str(d), d.code) for d in result.diagnostics] == expected
    assert result.ok == (not expected)


# ---------------------------------------------------------------------------
# outcome function validation
# ---------------------------------------------------------------------------

MAJORITY_STUB = "game g\nmoves P1 = {{ A, B }}\nmoves P2 = {{ A, B }}\nmoves P3 = {{ A, B }}\noutcomes = {outcomes}\noutcome_fn = {fn}\nplayer P1 = fix\nplayer P2 = fix\nplayer P3 = fix\n"


def test_majority_needs_an_odd_crowd():
    text = (
        "game g\nmoves P1 = { A, B }\nmoves P2 = { A, B }\n"
        "outcomes = { A, B }\noutcome_fn = majority\n"
        "player P1 = fix\nplayer P2 = fix\n"
    )
    result = parse_game(text)
    assert result.ok and not result.diagnostics
    ab = MoveSet(("A", "B"))
    players = (Player("P1", ab, Fix()), Player("P2", ab, Fix()))
    assert result.game == Game("g", players, AtomOutcomes(("A", "B")), majority_rule())
    report = enumerate_equilibria(result.game)
    assert report.selection_equilibria() == (("A", "A"), ("B", "B"))


def test_majority_needs_two_shared_moves():
    text = (
        "game g\nmoves P1 = { A, B, C }\nmoves P2 = { C, A, B }\nmoves P3 = { A, B, C }\n"
        "outcomes = { A, B, C }\noutcome_fn = majority\n"
        "player P1 = fix\nplayer P2 = fix\nplayer P3 = fix\n"
    )
    result = parse_game(text)
    assert result.ok and not result.diagnostics
    assert result.game.outcome(("A", "B", "C")) == "A"
    different = text.replace("moves P2 = { C, A, B }", "moves P2 = { A, B }").replace(
        "player P2 = fix", "player P2 = argmax(order: C < B < A)"
    )
    assert errors(parse_game(different)) == [
        ("type-mismatch", 6, "majority rule needs every player to share one move set")
    ]
    players = (
        Player("P1", MoveSet(("A", "B", "C")), Fix()),
        Player("P2", MoveSet(("A", "B")), ArgmaxOrder(PreferenceOrder(("A", "B", "C")))),
        Player("P3", MoveSet(("A", "B", "C")), Fix()),
    )
    with pytest.raises(ValueError, match="share one move set"):
        Game("g", players, AtomOutcomes(("A", "B", "C")), majority_rule())


def test_identity_needs_product_outcomes():
    text = (
        "game g\nmoves P1 = { A, B }\nmoves P2 = { A, B }\nmoves P3 = { A, B }\n"
        "outcomes = { A, B }\noutcome_fn = identity\n"
        "player P1 = fix\nplayer P2 = fix\nplayer P3 = fix\n"
    )
    result = parse_game(text)
    assert any(
        "identity outcome function needs `outcomes = moves`" == d.message
        for d in result.errors()
    )


def test_vector_outcomes_need_a_table():
    text = (
        "game g\nmoves P1 = { A, B }\nmoves P2 = { A, B }\n"
        "outcomes = vectors 2\noutcome_fn = identity\n"
        "player P1 = argmax(coord: 1)\nplayer P2 = argmax(coord: 2)\n"
    )
    result = parse_game(text)
    assert errors(result) == [
        ("type-mismatch", 5, "vector outcomes need an explicit outcome table")
    ]


def test_vector_entries_must_match_the_declared_length():
    text = """\
game g
moves P1 = { H, T }
moves P2 = { H, T }
outcomes = vectors 2
outcome_fn = table {
  (H, H) -> (1, -1, 0) ;
  (H, T) -> (-1, 1) ;
  (T, H) -> (-1, 1) ;
  (T, T) -> (1, -1)
}
player P1 = argmax(coord: 1)
player P2 = argmax(coord: 2)
"""
    result = parse_game(text)
    assert any(
        d.message == "expected a payoff vector of 2 rationals for (H, H)"
        and d.line == 6
        for d in result.errors()
    )


def test_an_empty_vector_table_is_a_located_error():
    text = (
        "game g\nmoves P1 = { A }\noutcomes = vectors 1\n"
        "outcome_fn = table {\n}\nplayer P1 = argmax(coord: 1)\n"
    )
    result = parse_game(text)
    assert [(d.code, d.line, d.column) for d in result.errors()] == [("arity", 5, 1)]


@pytest.mark.parametrize("number", ["1/0", "0/0", "-3/00"])
def test_a_zero_denominator_is_a_located_error(number):
    text = (
        "game g\nmoves P1 = { A }\noutcomes = vectors 1\n"
        f"outcome_fn = table {{ (A) -> ({number}) }}\nplayer P1 = argmax(coord: 1)\n"
    )
    result = parse_game(text)
    assert [(d.line, d.column, d.message) for d in result.errors()] == [
        (4, 30, f"{number} has a zero denominator")
    ]


def test_mixed_outcome_values_are_rejected():
    text = """\
game g
moves P1 = { H, T }
moves P2 = { H, T }
outcomes = vectors 2
outcome_fn = table {
  (H, H) -> (1, T)
}
player P1 = argmax(coord: 1)
player P2 = argmax(coord: 2)
"""
    result = parse_game(text)
    assert any(
        "outcome value mixes labels and numbers" == d.message
        for d in result.errors()
    )


def test_partial_table_is_reported_at_its_closing_brace():
    text = """\
game g
moves P1 = { A, B }
moves P2 = { A, B }
outcomes = moves
outcome_fn = table {
  (A, A) -> (A, A) ;
  (A, B) -> (A, A)
}
player P1 = coord
player P2 = coord
"""
    result = parse_game(text)
    assert errors(result) == [
        ("arity", 8, "outcome table misses 2 profile(s), e.g. (B, A)")
    ]


def test_table_profiles_must_match_the_move_sets():
    text = """\
game g
moves P1 = { A, B }
moves P2 = { A, B }
outcomes = moves
outcome_fn = table {
  (A, A, A) -> (A, A) ;
  (A, A) -> (A, A) ;
  (A, A) -> (A, B) ;
  (A, B) -> (C, C)
}
player P1 = coord
player P2 = coord
"""
    result = parse_game(text)
    msgs = [d.message for d in result.errors()]
    assert "profile (A, A, A) does not match the move sets" in msgs
    assert "profile (A, A) listed twice" in msgs
    assert "outcome for (A, B) lies outside the outcome space" in msgs


# ---------------------------------------------------------------------------
# player goal validation
# ---------------------------------------------------------------------------


def test_bare_target_goal_is_rejected_with_a_hint():
    text = (
        "game g\nmoves W = { B, F }\nmoves H = { B, F }\n"
        "outcomes = moves\noutcome_fn = identity\n"
        "player W = target(coord: 1, value: B)\nplayer H = coord\n"
    )
    result = parse_game(text)
    assert errors(result) == [
        (
            "type-mismatch",
            6,
            "player W: this goal can reject every move; "
            "give it a fallback inside lex(...)",
        )
    ]


def test_shape_errors_name_the_player():
    text = (
        "game g\nmoves J1 = { A, B }\nmoves J2 = { A, B }\nmoves J3 = { A, B }\n"
        "outcomes = { A, B }\noutcome_fn = majority\n"
        "player J1 = argmax(order: A)\nplayer J2 = fix\nplayer J3 = coord\n"
    )
    result = parse_game(text)
    errs = result.errors()
    assert all(d.code == "type-mismatch" for d in errs)
    assert any(d.message.startswith("player J1: order leaves") for d in errs)
    assert any(d.message.startswith("player J3:") and d.line == 9 for d in errs)


def test_unreachable_outcome_warning_still_yields_a_game():
    text = (
        "game g\nmoves J1 = { A, B }\nmoves J2 = { A, B }\nmoves J3 = { A, B }\n"
        "outcomes = { A, B, C }\noutcome_fn = majority\n"
        "player J1 = argmax(order: C < B < A)\n"
        "player J2 = argmax(order: C < B < A)\n"
        "player J3 = argmax(order: C < B < A)\n"
    )
    result = parse_game(text)
    assert result.ok
    assert [d.code for d in result.warnings()] == ["unreachable-outcome"]
    w = result.warnings()[0]
    assert w.line == 5
    assert w.message.endswith(": C")
    assert result.game.outcome(("B", "B", "A")) == "B"


def test_unreachable_outcome_warning_reads_a_table_by_its_values():
    # B is a move, so a majority would reach it; this table never yields it
    text = (
        "game g\nmoves P1 = { A, B }\nmoves P2 = { A, B }\n"
        "  outcomes = { A, B, C }\n"
        "outcome_fn = table {\n"
        "  (A, A) -> A ; (A, B) -> C ; (B, A) -> C ; (B, B) -> A\n"
        "}\n"
        "player P1 = argmax(order: B < C < A)\nplayer P2 = argmax(order: B < C < A)\n"
    )
    result = parse_game(text)
    assert result.ok
    [w] = result.warnings()
    assert (w.code, w.line, w.column) == ("unreachable-outcome", 4, 3)
    assert w.message == "outcome value(s) never produced by the outcome function: B"


# ---------------------------------------------------------------------------
# rendering limits
# ---------------------------------------------------------------------------


def _identity_game(labels):
    ms = MoveSet(labels)
    space = ProductOutcomes((ms, ms))
    players = (Player("P1", ms, FixProj(1)), Player("P2", ms, FixProj(2)))
    return Game("g", players, space, identity_rule())


def test_rendering_rejects_labels_the_grammar_cannot_spell():
    g = _identity_game(("left", "far right"))
    with pytest.raises(RenderError):
        render_game(g)


def test_rendering_rejects_tabulated_goals():
    g = builtin("voting-keynes")
    j1 = g.players[0]
    table = tabulate(j1.selection, j1.moves, g.outcomes)
    patched = Game(
        g.name, (Player("J1", j1.moves, table),) + g.players[1:], g.outcomes, g.outcome_fn
    )
    with pytest.raises(RenderError):
        render_game(patched)


def test_rendering_rejects_orders_over_unspellable_values():
    ms = MoveSet(("x", "y"))
    space = VectorOutcomes(2, (0, 1))
    order = PreferenceOrder(space.all_outcomes())
    players = (
        Player("P1", ms, ArgmaxOrder(order)),
        Player("P2", ms, ArgmaxOrder(order)),
    )
    entries = [(s, (0, 1)) for s in [("x", "x"), ("x", "y"), ("y", "x"), ("y", "y")]]
    g = Game("g", players, space, outcome_table(entries))
    with pytest.raises(RenderError):
        render_game(g)


def _argmax_pair(levels, payoff):
    ms = MoveSet(("x", "y"))
    players = (Player("P1", ms, ArgmaxCoord(1)), Player("P2", ms, ArgmaxCoord(2)))
    table = outcome_table([(s, payoff(s)) for s in product(ms, ms)])
    return Game("g", players, VectorOutcomes(2, levels), table)


def _without_a_table():
    game = _argmax_pair((0, 1), lambda s: (int(s[0] == "x"), 1))
    # Game admits no such game; forge one to reach render_game's own guard
    object.__setattr__(game, "outcome_fn", identity_rule())
    return game


def _foreign_product():
    ms, wide = MoveSet(("x", "y")), MoveSet(("x", "y", "z"))
    players = (Player("P1", ms, Coord()), Player("P2", ms, Coord()))
    table = outcome_table([(s, s) for s in product(ms, ms)])
    return Game("g", players, ProductOutcomes((wide, wide)), table)


UNWRITABLE_SPACES = {
    "unused-level": (
        lambda: _argmax_pair((0, 1, 2), lambda s: (int(s[0] == "x"), 1)),
        "payoff levels are not recoverable from the outcome table",
    ),
    "no-table": (_without_a_table, "vector outcomes can only be written with a table"),
    "foreign-product": (
        _foreign_product, "only the product of the players' own move sets can be written"
    ),
}


@pytest.mark.parametrize("case", UNWRITABLE_SPACES)
def test_rendering_rejects_outcome_spaces_it_cannot_write(case):
    build, message = UNWRITABLE_SPACES[case]
    with pytest.raises(RenderError) as raised:
        render_game(build())
    assert str(raised.value) == message


def test_rendering_writes_a_level_once_however_the_table_spells_it():
    game = _argmax_pair((0, 1), lambda s: (Fraction(2, 2) if s[0] == "x" else 0, 1))
    assert game.outcome(("x", "x")) == (Fraction(1), 1)
    assert parse_game(render_game(game)).game == game


def test_game_source_text_survives_a_round_trip():
    src = render_game(builtin("bos-agreement"))
    assert isinstance(src, GameSource)
    again = render_game(parse_game(src).game)
    assert again.text == src.text


# ---------------------------------------------------------------------------
# one validator: Game decides, the parser only locates
# ---------------------------------------------------------------------------


@given(case=_majority_games())
def test_majority_games_round_trip_through_the_text_format(case):
    game = case[0]
    result = parse_game(render_game(game))
    assert result.ok and not result.diagnostics
    assert result.game == game


_AB = MoveSet(("A", "B"))
_ABC = MoveSet(("A", "B", "C"))
_ORDER = ArgmaxOrder(PreferenceOrder(("A", "B", "C")))
_BF = MoveSet(("B", "F"))

# (text, Game parts, line of the one error, its message)
INVALID_GAMES = [
    (
        "game g\nmoves P1 = { A, B }\nmoves P2 = { A, B }\nmoves P3 = { A, C }\n"
        "outcomes = { A, B, C }\noutcome_fn = majority\n"
        "player P1 = argmax(order: C < B < A)\nplayer P2 = argmax(order: C < B < A)\n"
        "player P3 = argmax(order: C < B < A)\n",
        (
            (Player("P1", _AB, _ORDER), Player("P2", _AB, _ORDER),
             Player("P3", MoveSet(("A", "C")), _ORDER)),
            AtomOutcomes(("A", "B", "C")), majority_rule(),
        ),
        6, "majority rule needs every player to share one move set",
    ),
    (
        "game g\nmoves P1 = { A, B, C }\nmoves P2 = { A, B, C }\n"
        "outcomes = { A, B }\noutcome_fn = majority\n"
        "player P1 = argmax(order: B < A)\nplayer P2 = argmax(order: B < A)\n",
        (
            tuple(Player(n, _ABC, ArgmaxOrder(PreferenceOrder(("A", "B"))))
                  for n in ("P1", "P2")),
            AtomOutcomes(("A", "B")), majority_rule(),
        ),
        5, "majority winners would fall outside the outcome space",
    ),
    (
        "game g\nmoves P1 = { A, B }\nmoves P2 = { A, B }\n"
        "outcomes = { A, B }\noutcome_fn = identity\n"
        "player P1 = fix\nplayer P2 = fix\n",
        (
            (Player("P1", _AB, Fix()), Player("P2", _AB, Fix())),
            AtomOutcomes(("A", "B")), identity_rule(),
        ),
        5, "identity outcome function needs `outcomes = moves`",
    ),
    (
        "game g\nmoves P1 = { A, B }\nmoves P2 = { A, B }\noutcomes = moves\n"
        "outcome_fn = table {\n  (A, A) -> (A, A) ;\n  (A, B) -> (A, A)\n}\n"
        "player P1 = coord\nplayer P2 = coord\n",
        (
            (Player("P1", _AB, Coord()), Player("P2", _AB, Coord())),
            ProductOutcomes((_AB, _AB)),
            outcome_table([(("A", "A"), ("A", "A")), (("A", "B"), ("A", "A"))]),
        ),
        8, "outcome table misses 2 profile(s), e.g. (B, A)",
    ),
    (
        "game g\nmoves P1 = { A, B }\noutcomes = { A, B }\noutcome_fn = table {\n"
        "  (A) -> A ;\n  (B) -> B ;\n  (A) -> B\n}\nplayer P1 = fix\n",
        (
            (Player("P1", _AB, Fix()),),
            AtomOutcomes(("A", "B")),
            outcome_table([(("A",), "A"), (("B",), "B"), (("A",), "B")]),
        ),
        7, "profile (A) listed twice",
    ),
    (
        "game g\nmoves W = { B, F }\nmoves H = { B, F }\n"
        "outcomes = moves\noutcome_fn = identity\n"
        "player W = target(coord: 1, value: B)\nplayer H = coord\n",
        (
            (Player("W", _BF, TargetCoord(1, "B")), Player("H", _BF, Coord())),
            ProductOutcomes((_BF, _BF)), identity_rule(),
        ),
        6, "player W: this goal can reject every move; give it a fallback inside lex(...)",
    ),
    (
        "game g\nmoves P1 = { A, B }\nmoves P2 = { A, B }\nmoves P3 = { A, B }\n"
        "outcomes = moves\noutcome_fn = majority\n"
        "player P1 = coord\nplayer P2 = coord\nplayer P3 = coord\n",
        (
            tuple(Player(n, _AB, Coord()) for n in ("P1", "P2", "P3")),
            ProductOutcomes((_AB, _AB, _AB)), majority_rule(),
        ),
        6, "majority rule needs atom outcomes",
    ),
]


@pytest.mark.parametrize(
    "text, parts, line, message",
    INVALID_GAMES,
    ids=[
        "voter-AC", "winner-outside", "identity-atoms", "partial", "duplicate",
        "bare-target", "majority-moves",
    ],
)
def test_game_and_parser_reject_alike(text, parts, line, message):
    with pytest.raises((HogError, ValueError)) as raised:
        Game("g", *parts)
    assert str(raised.value) == message
    result = parse_game(text)
    assert [(d.line, d.message) for d in result.errors()] == [(line, message)]
    assert "syntax" not in {d.code for d in result.errors()}


# ---------------------------------------------------------------------------
# fuzzing: bad input is always a diagnostic, never an exception
# ---------------------------------------------------------------------------

_WORDS = (
    "game moves outcomes outcome_fn player g P1 P2 A B C majority identity "
    "table vectors product fix nonfix coord argmax target lex order value "
    "1 2 0 -1 1/2 1/0 0/0 { } ( ) , ; : = < -> @ $ -"
).split() + ["\n", "# note\n", "\r", "\t"]
_LINES = [
    "game g\n", "moves P1 = { A, B }\n", "moves P2 = { A, B }\n",
    "outcomes = { A, B }\n", "outcomes = moves\n", "outcomes = vectors 2\n",
    "outcome_fn = majority\n", "outcome_fn = identity\n",
    "outcome_fn = table { (A, A) -> (1, 0) ; (A, B) -> (0, 1) ; "
    "(B, A) -> (1/2, 1) ; (B, B) -> (1, -1) }\n",
    "player P1 = fix\n", "player P2 = argmax(coord: 2)\n",
    "player P2 = lex(target(coord: 1, value: A), fix)\n",
]
_TOKEN = re.compile(r"#[^\n]*|\n|->|-?\d+(?:/\d+)?|[A-Za-z_][\w-]*|\S")

_from_the_grammar = st.lists(st.sampled_from(_WORDS + _LINES), max_size=40).map(" ".join)


_RENDERED = [render_game(builtin(n)).text for n in builtin_names()] + [
    render_game(classical_game(payoff_matrix(n))).text for n in payoff_matrix_names()
]


@st.composite
def _edited_builtins(draw):
    tokens = _TOKEN.findall(draw(st.sampled_from(_RENDERED)))
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(tokens) - 1))
        edit = draw(st.sampled_from(["delete", "duplicate", "replace", "swap"]))
        if edit == "delete":
            del tokens[i]
        elif edit == "duplicate":
            tokens.insert(i, tokens[i])
        elif edit == "replace":
            tokens[i] = draw(st.sampled_from(_WORDS))
        elif i + 1 < len(tokens):
            tokens[i], tokens[i + 1] = tokens[i + 1], tokens[i]
    return " ".join(tokens)


_documents = st.one_of(_from_the_grammar, _edited_builtins())


@settings(max_examples=500, deadline=None)
@given(text=_documents)
def test_parse_game_never_raises_and_reports_consistently(text):
    result = parse_game(text)
    assert result.ok == (not result.errors())
    positions = [(d.line, d.column) for d in result.diagnostics]
    assert positions == sorted(positions)
    lines = text.split("\n")
    assert all(1 <= d.line <= len(lines) for d in result.diagnostics)
    assert all(1 <= d.column <= len(lines[d.line - 1]) + 1 for d in result.diagnostics)
    if result.ok:
        try:
            again = render_game(result.game)
        except RenderError:
            return
        assert parse_game(again).game == result.game


@settings(max_examples=150, deadline=None)
@given(text=_documents)
def test_the_cli_maps_any_document_to_exit_0_2_or_3(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.hog"
        path.write_text(text)
        with redirect_stdout(StringIO()), redirect_stderr(StringIO()) as err:
            code = main(["solve", str(path), "--max-profiles", "1000"])
    assert code in (0, 2, 3), err.getvalue()


# ---------------------------------------------------------------------------
# drawn table documents, read in bulk, against the plain token walk
# ---------------------------------------------------------------------------

_ENTRY_GAPS = ["", "  ", "\t", "\r", "\n", " # note\n", "\n\n  "]
_ENTRY_CELLS = ["1", "0", "-1", "1/2", "2/4", "-3/4", "007", "1/02"]
_ENTRY_ZEROS = ["1/0", "-3/00", "0/0"]
_ENTRY_EDITS = ["(", ")", "->", ";", "#", "1/0", "\n", "(a, b) -> c", "(a) -> b", "$"]
_ENTRY_FRAGMENTS = ["(a) -> b", "(a, b) -> (1, 2)", "(a, b) -> (a, b)"]
_ENTRY_SHAPES = {
    "atoms": ("{ a, b }", ["fix", "argmax(order: a < b)", "nonfix"]),
    "moves": ("moves", ["coord", "fix(coord: 1)", "lex(target(coord: 2, value: b), coord)"]),
    "vectors": ("vectors 2", ["argmax(coord: 1)", "argmax(coord: 2)"]),
}


@st.composite
def _table_documents(draw):
    """A two-player table game over {a, b}, its entries written on one line
    or over several, bent by comments, zero denominators, mixed values,
    missing ';', unknown labels, entry fragments outside the table, and
    token edits.  Each bend is drawn with a set chance, so that about a
    third of the documents still parse."""

    def pick(choices):
        return draw(st.sampled_from(choices))

    def chance(percent):
        return draw(st.integers(0, 99)) < percent

    shape = pick(list(_ENTRY_SHAPES))
    parts = ["game g", "\n", "moves P1 = { a, b }", "\n", "moves P2 = { a, b }", "\n"]
    parts += [f"outcomes = {_ENTRY_SHAPES[shape][0]}", "\n", "outcome_fn = table {", "\n"]
    for k, profile in enumerate([("a", "a"), ("a", "b"), ("b", "a"), ("b", "b")]):
        if chance(5):
            profile = draw(st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=3))
        kind = pick(list(_ENTRY_SHAPES) + ["mixed"]) if chance(8) else shape
        if kind == "atoms":
            value = [pick(["a", "b", "c"]) if chance(10) else pick(["a", "b"])]
        elif kind == "moves":
            value = ["(", pick(["a", "b"]), ",", pick(["a", "b", "c"]) if chance(10) else "b", ")"]
        else:
            cells = [pick(_ENTRY_ZEROS) if chance(4) else pick(_ENTRY_CELLS)
                     for _ in range(pick([1, 3]) if chance(5) else 2)]
            if kind == "mixed":
                cells[draw(st.integers(0, len(cells) - 1))] = "a"
            value = ["(", *" , ".join(cells).split(), ")"]
        if k:
            parts += ["" if chance(5) else pick([" ;", ";", " ; # note"]), "\n  "]
        bent = chance(20)
        for tok in ["(", *" , ".join(profile).split(), ")", "->", *value]:
            parts += [tok, pick(_ENTRY_GAPS) if bent and chance(30) else " "]
    parts += ["\n", "}", "\n"]
    for name in ("P1", "P2"):
        parts += [f"player {name} = {pick(_ENTRY_SHAPES[shape][1])}", "\n"]
    if chance(15):
        # a fragment after, or in place of, a goal or a moves line, or on its own line
        fragment = pick(_ENTRY_FRAGMENTS)
        where = pick(["after", "instead", "line"])
        i = pick([2, 4, len(parts) - 4, len(parts) - 2])
        if where == "after":
            parts[i] += " " + fragment
        elif where == "instead":
            parts[i] = parts[i].split("=")[0] + "= " + fragment
        else:
            parts.insert(i, fragment + "\n")
    for _ in range(pick([1, 2]) if chance(25) else 0):
        i = draw(st.integers(0, len(parts) - 1))
        edit = pick(["insert", "delete", "replace"])
        if edit == "delete":
            del parts[i]
        elif edit == "insert":
            parts.insert(i, pick(_ENTRY_EDITS))
        else:
            parts[i] = pick(_ENTRY_EDITS)
    return "".join(parts)


@settings(max_examples=300, deadline=None)
@given(text=_table_documents())
def test_one_token_entries_parse_as_their_plain_tokens_do(text):
    result = parse_game(text)
    with mock.patch.object(dsl, "_BULK_RE", dsl._PLAIN_RE):
        plain = parse_game(text)
    assert result.diagnostics == plain.diagnostics
    assert result.game == plain.game


# ---------------------------------------------------------------------------
# whole table bodies read in bulk against the token walk
# ---------------------------------------------------------------------------

_BULK_LEADS = ["", " ", "\n  ", "\n\n\t"]
_BULK_SEPARATORS = [";", " ;", " ;\n  ", ";\n", "\t;\t", "\n  ;\n  ", " ;\n\n  "]
_BULK_ENDS = [
    "", " ", "\n", " ;", " ;\n", ";\n\n", " # last\n", " ; # last; (a) -> b }\n",
    " ;\x0c", ";\xa0\n", "\x0b",
]
#: characters that `str.strip` takes as blanks but the grammar rejects
_ODD_BLANKS = set("\x0b\x0c\xa0")
_BULK_GAPS = ["", " ", "\t", "  "]
_BULK_CELLS = _ENTRY_CELLS + ["-7/3", "12/5", "-0"]
#: bends that keep the document valid and its body one bulk read
_CLEAN_BENDS = {
    "crlf", "outcomes-after", "unreachable", "comment", "split", "lead-comment",
    "brace-comment",
}
_BENDS = [
    "crlf", "outcomes-after", "unreachable", "comment", "split", "lead-comment",
    "brace-comment", "zero", "stray", "empty-piece", "no-separator", "unknown-label", "drop",
    "duplicate", "mixed", "brace", "empty-body",
]


@st.composite
def _bulk_documents(draw):
    """A two-player table game over {a, b, c}, its body written as one-line
    entries between `;`s with blanks, newlines and tabs, and a trailing `;`
    or not, some ends holding a comment or a blank the grammar rejects; then
    bent with a set chance in ways that keep the bulk read, that leave the
    body to the token walk, or that make the document fail.  Returns the
    text and whether it must be read in one pass."""

    def pick(choices):
        return draw(st.sampled_from(choices))

    def gap():
        return pick(_BULK_GAPS)

    bends = {b for b in _BENDS if draw(st.integers(0, 99)) < 8}
    shape = pick(["atoms", "moves", "vectors"])
    # bends that need a shape
    bends -= {"atoms": {"zero", "mixed"}, "moves": {"zero", "unreachable"},
              "vectors": {"unreachable"}}[shape]
    labels = "a, b, c, d" if "unreachable" in bends else "a, b, c"
    outcomes = {"atoms": f"{{ {labels} }}", "moves": "moves", "vectors": "vectors 2"}[shape]
    entries = []
    for p1, p2 in product("abc", repeat=2):
        if shape == "atoms":
            value = pick("abc")
        else:
            cells = [pick("abc") for _ in "12"] if shape == "moves" else [
                pick(_BULK_CELLS) for _ in "12"]
            value = f"({gap()}{cells[0]}{gap()},{gap()}{cells[1]}{gap()})"
        entries.append(f"({gap()}{p1}{gap()},{gap()}{p2}{gap()}){gap()}->{gap()}{value}")
    k = draw(st.integers(0, len(entries) - 1))
    if "unknown-label" in bends:
        entries[k] = "(z, a) -> " + entries[k].split("->")[1].strip()
    if "zero" in bends:
        entries[k] = entries[k].split("->")[0] + "-> (1/0, 1)"
    if "mixed" in bends:
        entries[k] = entries[k].split("->")[0] + "-> (a, 1)"
    if "split" in bends:
        entries[k] = entries[k].replace("->", "->\n   ", 1)
    if "stray" in bends:
        entries[k] = entries[k].replace(")", " $)", 1)
    if "duplicate" in bends:
        entries.insert(k, entries[k])
    if "drop" in bends:
        del entries[k]
    separators = [pick(_BULK_SEPARATORS) for _ in entries[1:]]
    if separators:
        j = draw(st.integers(0, len(separators) - 1))
        if "comment" in bends:
            separators[j] += " # note\n  "
        if "brace-comment" in bends:
            separators[j] += pick([" # { (a) -> b ; }\n  ", "\n  # }\n  "])
        if "empty-piece" in bends:
            separators[j] += " ;"
        if "no-separator" in bends:
            separators[j] = " "
        if "brace" in bends:
            separators[j] += pick(["{", "}"])
    end = pick(_BULK_ENDS)
    body = pick(_BULK_LEADS) + "".join(
        e + sep for e, sep in zip(entries, separators + [""])) + end
    if "lead-comment" in bends:
        body = pick([" # P1 picks the row\n", "\n  # a; (b) -> c {\n  # two\n"]) + body
    if "empty-body" in bends:
        body = " "
    goal = {"atoms": f"argmax(order: {labels.replace(', ', ' < ')})",
            "moves": "coord", "vectors": "argmax(coord: 1)"}[shape]
    lines = ["game g", "moves P1 = { a, b, c }", "moves P2 = { a, b, c }",
             f"outcome_fn = table {{{body}}}", f"player P1 = {goal}",
             f"player P2 = {goal.replace('coord: 1', 'coord: 2')}"]
    lines.insert(4 if "outcomes-after" in bends else 3, f"outcomes = {outcomes}")
    text = "\n".join(lines) + "\n"
    if "crlf" in bends:
        text = text.replace("\n", "\r\n")
    return text, bends <= _CLEAN_BENDS and not _ODD_BLANKS & set(end)


def _read(text):
    """parse_game(text), the number of `_parse` calls it made, and whether
    every table entry it read had a TABLE token as its head."""
    with mock.patch.object(dsl, "_parse", wraps=dsl._parse) as parse, \
            mock.patch.object(dsl, "_entry", wraps=dsl._entry) as entry:
        result = parse_game(text)
    heads = [c.args[2].kind for c in entry.call_args_list]
    return result, parse.call_count, bool(heads) and set(heads) == {"TABLE"}


@settings(max_examples=300, deadline=None)
@given(drawn=_bulk_documents())
def test_table_bodies_read_in_bulk_parse_as_the_token_walk_does(drawn):
    text, clean = drawn
    result, passes, bulk = _read(text)
    walk = dsl._parse(text, dsl._PLAIN_RE)
    assert result.diagnostics == walk.diagnostics
    assert result.game == walk.game
    if clean:
        assert result.ok and passes == 1 and bulk


#: parity document -> is its table read in one pass, with no second parse?
_BULK_PATHS = {
    "heavy": True,
    "heavy-crlf-trailing-semicolon": True,
    "matrix": True,
    "matrix-trailing-semicolon": True,
    "matrix-crlf-and-tabs": True,
    "vectors-1000": True,
    "matrix-comment-between-entries": True,
    "matrix-profile-over-two-lines": True,
    "matrix-comment-before-first-entry": True,
    "matrix-comment-with-punctuation": True,
    "matrix-comment-before-the-closing-brace": True,
    "matrix-crlf-comment-between-entries": True,
    "heavy-comment-every-10th-entry": True,
    "lexer-comment-in-table": True,
    "heavy-unclosed-with-comments": False,  # no '}': no TABLE token
    "matrix-empty-table": False,
    "matrix-bad-entry-mid-table": False,
    "matrix-zero-denominator-mid-table": False,
    "heavy-stray-character-mid-table": False,
    "heavy-unknown-value-mid-table": False,  # read in bulk, then walked to diagnose
    "heavy-form-feed-after-a-trailing-semicolon": False,  # a blank the grammar rejects
    "heavy-no-break-space-after-a-trailing-semicolon": False,
}


@pytest.mark.parametrize("name", _BULK_PATHS)
def test_edge_bodies_take_their_path_and_parse_as_the_token_walk_does(name):
    text = parity._table_documents()[name]
    result, passes, bulk = _read(text)
    walk = dsl._parse(text, dsl._PLAIN_RE)
    assert (result.diagnostics, result.game) == (walk.diagnostics, walk.game)
    assert (passes == 1 and bulk) == _BULK_PATHS[name]


#: table entry -> is it read in bulk?  Only a well-formed entry is, on one
#: line or over several, and the walk reads the rest.
_ENTRY_READS = {
    "(a) -> b": True, "(a,b)->(a, b)": True, "(a, b) -> (-1, 1/2, 007)": True,
    "(a)\t->\r(1/02)": True, "(a) ->\nb": True, "(a, # note\n b) -> c": True,
    "(a) -> (1/0)": False, "(a) -> (-3/00, 1)": False, "(a) -> (1, b)": False,
    "(a) -> (b, 1)": False, "(a, 1) -> b": False, "(a) -> ()": False, "(a) -> $": False,
    "(a -> b": False,
}


@pytest.mark.parametrize("entry", _ENTRY_READS)
def test_an_entry_is_read_in_bulk_only_when_well_formed(entry):
    text = ("game g\nmoves P1 = { a, b }\noutcomes = { a, b, c }\n"
            f"outcome_fn = table {{\n  {entry} ;\n  (b) -> a\n}}\nplayer P1 = fix\n")
    result, _, bulk = _read(text)
    walk = dsl._parse(text, dsl._PLAIN_RE)
    assert (result.diagnostics, result.game) == (walk.diagnostics, walk.game)
    assert bulk == _ENTRY_READS[entry]


def test_lines_after_a_bulk_body_are_counted():
    lines = ["game g", "moves P1 = { a, b }", "outcome_fn = table {",
             "  (a) -> a ;\r", "  (b) -> a", "}", "outcomes = { a, b }", "player P1 = fix"]
    text = "\n".join(lines) + "\n"
    result, passes, bulk = _read(text)
    assert passes == 1 and bulk
    assert [str(d) for d in result.diagnostics] == [
        "7:1: warning: outcome value(s) never produced by the outcome function: b"
    ]


def test_a_one_line_table_is_read_with_no_token_per_entry(monkeypatch):
    text = parity._heavy_text().replace("\n}", " ;\n}")  # a trailing ';' too
    made, walked = [], []
    token, table_entry = dsl._Token, dsl._table_entry
    monkeypatch.setattr(dsl, "_Token", lambda *a: made.append(a) or token(*a))
    monkeypatch.setattr(dsl, "_table_entry", lambda cur: walked.append(cur) or table_entry(cur))
    result = parse_game(text)
    assert result.ok and len(result.game.outcome_fn.entries) == 1000
    assert walked == [] and len(made) < 200


def test_a_one_line_table_parses_in_no_more_memory_than_the_token_walk():
    def peak(parse, text):
        gc.collect()
        tracemalloc.start()
        try:
            assert parse(text).ok
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def walk(t):
        return dsl._parse(t, dsl._PLAIN_RE)

    heavy = parity._heavy_text()
    for text in (heavy, parity._commented(heavy)):
        peak(parse_game, text), peak(walk, text)  # compile the patterns outside the measure
        assert peak(parse_game, text) <= peak(walk, text)


def test_an_unclosed_commented_body_is_lexed_in_linear_time():
    # a comment line first and after every entry, and no '}': the TABLE
    # alternative fails at the '{', and must fail in time linear in the body
    def text(n):
        entries = "".join(f"  (a{k}) -> b ;\n  # entry {k}; (c) -> d\n" for k in range(n))
        return f"game g\noutcome_fn = table {{\n  # the entries\n{entries}player P1 = fix\n"

    def seconds(t):
        start = time.perf_counter()
        assert not parse_game(t).ok
        return time.perf_counter() - start

    small, large = text(250), text(2000)
    seconds(small)  # compile the patterns outside the measure
    # each ratio from two runs side by side, so that a slow spell of the host
    # weighs on both; linear time gives about 8, quadratic about 64
    assert min(seconds(large) / seconds(small) for _ in range(5)) < 16
