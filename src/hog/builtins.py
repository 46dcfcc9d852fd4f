"""Preset games: the catalog behind `--builtin` and the golden fixtures.

Each entry pairs a ready-made Game with a one-line note saying what the
game is about.  The payoff-matrix forms of the games that have one are
kept alongside, so the classical bridge can be exercised against known
matrices and not only random ones.
"""

from __future__ import annotations

from itertools import product as cartesian

from .core import (
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
    TargetCoord,
)
from .engine import (
    Game,
    PayoffMatrix,
    Player,
    identity_rule,
    majority_rule,
    outcome_table,
)
from .errors import UnknownBuiltinError

_prefers_a = ArgmaxOrder(PreferenceOrder(("A", "B")))
_prefers_b = ArgmaxOrder(PreferenceOrder(("B", "A")))


def _majority_game(name: str, s1, s2, s3) -> Game:
    moves = MoveSet(("A", "B"))
    players = (
        Player("J1", moves, s1),
        Player("J2", moves, s2),
        Player("J3", moves, s3),
    )
    return Game(name, players, AtomOutcomes(("A", "B")), majority_rule())


def _two_player_identity(name: str, labels, p1, p2) -> Game:
    moves = MoveSet(labels)
    players = (Player("P1", moves, p1), Player("P2", moves, p2))
    return Game(name, players, ProductOutcomes((moves, moves)), identity_rule())


def _bos_cast():
    moves = MoveSet(("B", "F"))
    wife = Player("W", moves, Lex(Coord(), TargetCoord(1, "B")))
    husband = Player("H", moves, Lex(Coord(), TargetCoord(2, "F")))
    return moves, (wife, husband)


def _bos_lex() -> Game:
    moves, players = _bos_cast()
    return Game("bos-lex", players, ProductOutcomes((moves, moves)), identity_rule())


def _bos_agreement() -> Game:
    # same players as bos-lex; the pact rewrites (B, F) to (B, B)
    moves, players = _bos_cast()

    def pact(s):
        return (s[0], "B") if s == ("B", "F") else s

    entries = tuple((s, pact(s)) for s in cartesian(moves.labels, repeat=2))
    return Game(
        "bos-agreement", players, ProductOutcomes((moves, moves)), outcome_table(entries)
    )


CATALOG: dict[str, tuple[Game, str]] = {
    "voting-intro": (
        _majority_game("voting-intro", _prefers_a, Fix(), Fix()),
        "Three judges vote A or B, majority wins; J1 wants A elected, "
        "J2 and J3 want to have voted for the winner.",
    ),
    "voting-classical": (
        _majority_game("voting-classical", _prefers_a, _prefers_a, _prefers_b),
        "Majority vote where every judge cares only about who wins: "
        "J1 and J2 back A, J3 backs B.",
    ),
    "voting-keynes": (
        _majority_game("voting-keynes", _prefers_a, Fix(), Fix()),
        "Majority vote; J1 wants A to win while J2 and J3 just want to "
        "side with whoever wins.",
    ),
    "voting-allfix": (
        _majority_game("voting-allfix", Fix(), Fix(), Fix()),
        "Majority vote where all three judges want to have voted for the winner.",
    ),
    "voting-allpunk": (
        _majority_game("voting-allpunk", NonFix(), NonFix(), NonFix()),
        "Majority vote where all three judges want to have voted against the winner.",
    ),
    "meeting-ny": (
        _two_player_identity("meeting-ny", ("E", "G"), FixProj(2), FixProj(1)),
        "Two friends pick the Empire State Building or Grand Central; "
        "each just wants to be where the other is.",
    ),
    "matching-pennies": (
        _two_player_identity("matching-pennies", ("H", "T"), FixProj(2), NonFixProj(1)),
        "Heads or tails; P1 wants the coins to match, P2 wants them to differ.",
    ),
    "bos-lex": (
        _bos_lex(),
        "Ballet or football; wife and husband want to be together first and "
        "only then prefer their own venue.",
    ),
    "bos-agreement": (
        _bos_agreement(),
        "Ballet or football with a pact: a husband alone at the football "
        "match goes to the ballet instead.",
    ),
}


def builtin_names() -> tuple[str, ...]:
    return tuple(CATALOG)


def _find(table: dict, name: str, what: str):
    try:
        return table[name]
    except KeyError:
        raise UnknownBuiltinError(
            f"no {what} named {name!r}; available: {', '.join(table)}"
        ) from None


def builtin(name: str) -> Game:
    return _find(CATALOG, name, "builtin")[0]


def builtin_note(name: str) -> str:
    return _find(CATALOG, name, "builtin")[1]


# ---------------------------------------------------------------------------
# Payoff-matrix forms
# ---------------------------------------------------------------------------


def _matrix(name, players, move_sets, payoff) -> PayoffMatrix:
    entries = tuple(
        (s, payoff(s)) for s in cartesian(*(m.labels for m in move_sets))
    )
    return PayoffMatrix(name, players, move_sets, entries)


def _build_matrices() -> dict[str, PayoffMatrix]:
    winner = majority_rule()  # the rule the voting games are played under
    ab = MoveSet(("A", "B"))
    judges = ("J1", "J2", "J3")
    eg = MoveSet(("E", "G"))
    ht = MoveSet(("H", "T"))
    bf = MoveSet(("B", "F"))
    bos = {
        ("B", "B"): (3, 2),
        ("B", "F"): (1, 1),
        ("F", "B"): (0, 0),
        ("F", "F"): (2, 3),
    }
    matrices = (
        _matrix(
            "voting-intro",
            judges,
            (ab, ab, ab),
            lambda s: (
                int(winner(s) == "A"),
                int(s[1] == winner(s)),
                int(s[2] == winner(s)),
            ),
        ),
        _matrix(
            "voting-classical",
            judges,
            (ab, ab, ab),
            lambda s: (
                int(winner(s) == "A"),
                int(winner(s) == "A"),
                int(winner(s) == "B"),
            ),
        ),
        _matrix(
            "voting-allfix",
            judges,
            (ab, ab, ab),
            lambda s: tuple(int(x == winner(s)) for x in s),
        ),
        _matrix(
            "voting-allpunk",
            judges,
            (ab, ab, ab),
            lambda s: tuple(int(x != winner(s)) for x in s),
        ),
        _matrix(
            "meeting-ny",
            ("P1", "P2"),
            (eg, eg),
            lambda s: (1, 1) if s[0] == s[1] else (0, 0),
        ),
        _matrix(
            "matching-pennies",
            ("P1", "P2"),
            (ht, ht),
            lambda s: (1, -1) if s[0] == s[1] else (-1, 1),
        ),
        _matrix("bos-classic", ("W", "H"), (bf, bf), lambda s: bos[s]),
    )
    return {m.name: m for m in matrices}


PAYOFF_MATRICES: dict[str, PayoffMatrix] = _build_matrices()


def payoff_matrix_names() -> tuple[str, ...]:
    return tuple(PAYOFF_MATRICES)


def payoff_matrix(name: str) -> PayoffMatrix:
    return _find(PAYOFF_MATRICES, name, "payoff matrix")
