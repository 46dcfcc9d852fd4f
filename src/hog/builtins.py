"""Preset games: the catalog behind `--builtin` and the golden fixtures.

Each entry pairs a ready-made Game with a one-line note saying what the
game is about.  The payoff-matrix forms of the games that have one are
kept alongside, so the classical bridge can be exercised against known
matrices and not only random ones.  A voting game and its payoff twin are
both built from one list of judges, so the two cannot drift apart.
"""

from __future__ import annotations

from operator import eq, ne

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

# A voting judge is their goal in the voting games paired with
# `met(vote, winner)`, which says whether their own vote and the majority
# winner meet that goal; the payoff twin pays 1 where it is met, else 0.
_ELECTS_A = (ArgmaxOrder(PreferenceOrder(("A", "B"))), lambda vote, winner: winner == "A")
_ELECTS_B = (ArgmaxOrder(PreferenceOrder(("B", "A"))), lambda vote, winner: winner == "B")
_SIDES_WITH_WINNER = (Fix(), eq)
_DEFIES_WINNER = (NonFix(), ne)

_JUDGES = {
    "voting-intro": (_ELECTS_A, _SIDES_WITH_WINNER, _SIDES_WITH_WINNER),
    "voting-classical": (_ELECTS_A, _ELECTS_A, _ELECTS_B),
    "voting-keynes": (_ELECTS_A, _SIDES_WITH_WINNER, _SIDES_WITH_WINNER),
    "voting-allfix": (_SIDES_WITH_WINNER,) * 3,
    "voting-allpunk": (_DEFIES_WINNER,) * 3,
}
_VOTES = MoveSet(("A", "B"))
_JUDGE_NAMES = ("J1", "J2", "J3")


def _voting_game(name: str) -> Game:
    players = [Player(j, _VOTES, goal) for j, (goal, _) in zip(_JUDGE_NAMES, _JUDGES[name])]
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
    profiles = ProductOutcomes((moves, moves))

    def pact(s):
        return (s[0], "B") if s == ("B", "F") else s

    entries = tuple((s, pact(s)) for s in profiles.iter_outcomes())
    return Game("bos-agreement", players, profiles, outcome_table(entries))


CATALOG: dict[str, tuple[Game, str]] = {
    "voting-intro": (
        _voting_game("voting-intro"),
        "Three judges vote A or B, majority wins; J1 wants A elected, "
        "J2 and J3 want to have voted for the winner.",
    ),
    "voting-classical": (
        _voting_game("voting-classical"),
        "Majority vote where every judge cares only about who wins: "
        "J1 and J2 back A, J3 backs B.",
    ),
    "voting-keynes": (
        _voting_game("voting-keynes"),
        "Majority vote; J1 wants A to win while J2 and J3 just want to "
        "side with whoever wins.",
    ),
    "voting-allfix": (
        _voting_game("voting-allfix"),
        "Majority vote where all three judges want to have voted for the winner.",
    ),
    "voting-allpunk": (
        _voting_game("voting-allpunk"),
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
    entries = tuple((s, payoff(s)) for s in ProductOutcomes(move_sets).iter_outcomes())
    return PayoffMatrix(name, players, move_sets, entries)


def _voting_twin(name: str) -> PayoffMatrix:
    judges, winner = _JUDGES[name], majority_rule()

    def payoff(s):
        return tuple(int(met(vote, winner(s))) for vote, (_, met) in zip(s, judges))

    return _matrix(name, _JUDGE_NAMES, (_VOTES,) * 3, payoff)


def _build_matrices() -> dict[str, PayoffMatrix]:
    eg = MoveSet(("E", "G"))
    ht = MoveSet(("H", "T"))
    bf = MoveSet(("B", "F"))
    bos = {
        ("B", "B"): (3, 2),
        ("B", "F"): (1, 1),
        ("F", "B"): (0, 0),
        ("F", "F"): (2, 3),
    }
    voting = ("voting-intro", "voting-classical", "voting-allfix", "voting-allpunk")
    matrices = (
        *map(_voting_twin, voting),
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
