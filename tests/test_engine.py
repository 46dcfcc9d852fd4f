"""Games, unilateral contexts, equilibrium sweeps, and the classical bridge."""

import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import permutations, product
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

import hog
from hog import (
    DEFAULT_PROFILE_BUDGET,
    ArgmaxCoord,
    ArgmaxOrder,
    AtomOutcomes,
    BudgetExceededError,
    Coord,
    Fix,
    FixProj,
    Game,
    GameContext,
    IncompleteOrderError,
    InvalidProfileError,
    Lex,
    MoveSet,
    NonFix,
    NonFixProj,
    OutcomeFunction,
    PayoffMatrix,
    Player,
    PlayerOutOfRangeError,
    PreferenceOrder,
    ProfileResult,
    ProductOutcomes,
    SelectionFunction,
    TableSelection,
    TargetCoord,
    TypeMismatchError,
    VectorOutcomes,
    brute_force_nash,
    builtin,
    builtin_names,
    check_shape,
    classical_game,
    closure_of,
    enumerate_contexts,
    enumerate_equilibria,
    evaluate_profile,
    identity_rule,
    is_quantifier_equilibrium,
    is_selection_equilibrium,
    majority_rule,
    outcome_table,
    payoff_matrix,
    payoff_matrix_names,
    tabulate,
    unilateral_context,
)
from oracles import (
    argmax_coord_sel,
    argmax_order_sel,
    brute_equilibria,
    brute_nash,
    coord_sel,
    fix_sel,
    fixproj_sel,
    lex_sel,
    majority,
    nonfix_sel,
    nonfixproj_sel,
    target_sel,
)
from test_tables import _counted

AB = MoveSet(("A", "B"))

KEYNES = builtin("voting-keynes")
CLASSICAL = builtin("voting-classical")
NY = builtin("meeting-ny")


def test_majority_outcome():
    assert KEYNES.outcome(("B", "B", "B")) == "B"
    assert KEYNES.outcome(("A", "A", "B")) == "A"
    assert KEYNES.outcome(("B", "A", "B")) == "B"


def test_identity_outcome():
    assert NY.outcome(("E", "G")) == ("E", "G")
    assert NY.outcome(("G", "G")) == ("G", "G")


def test_outcome_checks_profile():
    with pytest.raises(InvalidProfileError):
        KEYNES.outcome(("A", "A"))
    with pytest.raises(InvalidProfileError):
        KEYNES.outcome(("A", "A", "Z"))


def test_profiles_enumerate_in_declaration_order():
    got = list(NY.profiles())
    assert got == [("E", "E"), ("E", "G"), ("G", "E"), ("G", "G")]
    assert NY.profile_count() == 4


# ---------------------------------------------------------------------------
# unilateral contexts
# ---------------------------------------------------------------------------


def test_unilateral_context_can_be_constant():
    # the other two already agree, so the first voter cannot move the result
    u = unilateral_context(CLASSICAL, ("B", "B", "B"), 1)
    assert u.as_dict() == {"A": "B", "B": "B"}


def test_unilateral_context_can_be_decisive():
    # the other two split, so the first voter picks the winner outright
    u = unilateral_context(CLASSICAL, ("B", "B", "A"), 1)
    assert u.as_dict() == {"A": "A", "B": "B"}


def test_unilateral_context_for_last_player():
    u = unilateral_context(KEYNES, ("A", "A", "B"), 3)
    assert u.as_dict() == {"A": "A", "B": "A"}


def test_unilateral_context_fixes_everyone_else():
    u = unilateral_context(NY, ("E", "G"), 2)
    assert u.as_dict() == {"E": ("E", "E"), "G": ("E", "G")}


def test_unilateral_context_validates_arguments():
    with pytest.raises(PlayerOutOfRangeError):
        unilateral_context(KEYNES, ("A", "A", "A"), 0)
    with pytest.raises(PlayerOutOfRangeError):
        unilateral_context(KEYNES, ("A", "A", "A"), 4)
    with pytest.raises(InvalidProfileError):
        unilateral_context(KEYNES, ("A", "A"), 1)


def test_playing_the_profile_move_yields_the_profile_outcome():
    for g in (KEYNES, CLASSICAL, NY, builtin("bos-agreement")):
        for s in g.profiles():
            q = g.outcome(s)
            for i in range(1, g.n + 1):
                u = unilateral_context(g, s, i)
                assert u(s[i - 1]) == q


# ---------------------------------------------------------------------------
# equilibrium checks
# ---------------------------------------------------------------------------


def test_equilibrium_membership_with_defectors():
    ok, defectors = is_quantifier_equilibrium(KEYNES, ("B", "A", "B"))
    assert not ok and defectors == ("J1",)
    ok, defectors = is_selection_equilibrium(KEYNES, ("B", "A", "B"))
    assert not ok and defectors == ("J1", "J2")
    ok, defectors = is_selection_equilibrium(KEYNES, ("A", "A", "A"))
    assert ok and defectors == ()


def test_report_rows_agree_with_membership_checks():
    report = enumerate_equilibria(KEYNES)
    for row in report.rows:
        assert row.quantifier_eq == (not row.quantifier_defectors)
        assert row.selection_eq == (not row.selection_defectors)
        assert row.quantifier_eq == is_quantifier_equilibrium(KEYNES, row.profile)[0]
        assert row.selection_eq == is_selection_equilibrium(KEYNES, row.profile)[0]
        assert row.outcome == KEYNES.outcome(row.profile)
        if row.selection_eq:
            assert row.quantifier_eq


def test_report_accessors():
    report = enumerate_equilibria(KEYNES)
    assert report.game is KEYNES
    assert [r.profile for r in report.rows] == list(KEYNES.profiles())
    assert report.row(("B", "A", "B")).outcome == "B"
    assert ("A", "A", "A") in report.selection_equilibria()
    assert set(report.selection_equilibria()) <= set(report.quantifier_equilibria())


def test_evaluate_profile_matches_report_row():
    report = enumerate_equilibria(NY)
    for s in NY.profiles():
        assert evaluate_profile(NY, s) == report.row(s)


@pytest.mark.parametrize("name", builtin_names())
def test_report_row_is_found_by_index(name):
    report = enumerate_equilibria(builtin(name))
    for k, r in enumerate(report.rows):
        assert report.row(list(r.profile)) is report.rows[k]


@pytest.mark.parametrize(
    "profile",
    [("B", "A"), ("B", "A", "B", "A"), ("B", "Z", "B"), (None, "A", "B"), (["B"], "A", "B")],
)
def test_report_row_rejects_profiles_it_does_not_list(profile):
    report = enumerate_equilibria(KEYNES)
    with pytest.raises(InvalidProfileError) as e:
        report.row(profile)
    assert str(e.value) == f"no row for profile {profile!r}"


# oracle-side reconstructions of every builtin, written against plain dicts
_prefer_a = argmax_order_sel(("A", "B"))
_bos_wife = lex_sel(coord_sel, target_sel(1, "B"))
_bos_husband = lex_sel(coord_sel, target_sel(2, "F"))

ORACLE_GAMES = {
    "voting-intro": ([_prefer_a, fix_sel, fix_sel], majority),
    "voting-classical": (
        [_prefer_a, _prefer_a, argmax_order_sel(("B", "A"))],
        majority,
    ),
    "voting-keynes": ([_prefer_a, fix_sel, fix_sel], majority),
    "voting-allfix": ([fix_sel] * 3, majority),
    "voting-allpunk": ([nonfix_sel] * 3, majority),
    "meeting-ny": ([fixproj_sel(2), fixproj_sel(1)], lambda s: s),
    "matching-pennies": ([fixproj_sel(2), nonfixproj_sel(1)], lambda s: s),
    "bos-lex": ([_bos_wife, _bos_husband], lambda s: s),
    "bos-agreement": (
        [_bos_wife, _bos_husband],
        lambda s: ("B", "B") if s == ("B", "F") else s,
    ),
}


@pytest.mark.parametrize("name", builtin_names())
def test_every_builtin_matches_the_brute_force_oracle(name):
    g = builtin(name)
    oracle_sels, oracle_fn = ORACLE_GAMES[name]
    move_sets = [list(p.moves) for p in g.players]
    expected = brute_equilibria(move_sets, oracle_fn, oracle_sels)
    report = enumerate_equilibria(g)
    assert len(report.rows) == len(expected)
    names = [p.name for p in g.players]
    for row in report.rows:
        outcome, q_eq, q_def, s_eq, s_def = expected[row.profile]
        assert row.outcome == outcome
        assert row.quantifier_eq == q_eq
        assert row.selection_eq == s_eq
        assert row.quantifier_defectors == tuple(names[i] for i in q_def)
        assert row.selection_defectors == tuple(names[i] for i in s_def)


_SWEEP_15 = """
import resource
from hog import AtomOutcomes, Fix, Game, MoveSet, Player, enumerate_equilibria, majority_rule
ab = MoveSet(("A", "B"))
voters = tuple(Player(f"V{i}", ab, Fix()) for i in range(1, 16))
game = Game("vote15", voters, AtomOutcomes(("A", "B")), majority_rule())
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, game.profile_count())
enumerate_equilibria(game)
"""

_PEAK_OF_CHILD = """
import resource, subprocess, sys
done = subprocess.run([sys.executable, "-c", sys.argv[1]], capture_output=True, text=True)
sys.stderr.write(done.stderr)
print(done.stdout, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
sys.exit(done.returncode)
"""


def test_a_sweep_at_the_default_budget_peaks_under_2_gib():
    # A process's ru_maxrss starts at the peak of the process that launched
    # it, so the sweep runs under a bare interpreter, whose peak lies below
    # the sweep's baseline, and not straight under the test process.
    src = str(Path(hog.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-c", _PEAK_OF_CHILD, _SWEEP_15],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    baseline, profiles, peak = map(int, done.stdout.split())
    assert profiles == 2**15
    unit = 1 if sys.platform == "darwin" else 1024  # ru_maxrss: bytes there, KiB elsewhere
    per_profile = (peak - baseline) * unit / profiles
    assert per_profile > 0
    assert per_profile * DEFAULT_PROFILE_BUDGET < 2 * 2**30


def test_profile_budget_is_enforced():
    with pytest.raises(BudgetExceededError):
        enumerate_equilibria(KEYNES, max_profiles=7)
    assert len(enumerate_equilibria(KEYNES, max_profiles=8).rows) == 8


# ---------------------------------------------------------------------------
# the line-sweep kernel against the oracle
# ---------------------------------------------------------------------------
# Goals are drawn as plain specs and built twice: once from hog's
# constructors, once from the oracle's closures over dicts.


def _hog_goal(spec):
    kind, *args = spec
    if kind == "lex":
        return Lex(_hog_goal(args[0]), _hog_goal(args[1]))
    if kind == "order":
        return ArgmaxOrder(PreferenceOrder(args[0]))
    ctor = {"fix": Fix, "nonfix": NonFix, "fixproj": FixProj,
            "nonfixproj": NonFixProj, "coord": Coord, "target": TargetCoord,
            "argmaxcoord": ArgmaxCoord}
    return ctor[kind](*args)


def _oracle_goal(spec):
    kind, *args = spec
    if kind == "lex":
        return lex_sel(_oracle_goal(args[0]), _oracle_goal(args[1]))
    if kind == "order":
        return argmax_order_sel(args[0])
    ctor = {"fix": lambda: fix_sel, "nonfix": lambda: nonfix_sel,
            "fixproj": fixproj_sel, "nonfixproj": nonfixproj_sel,
            "coord": lambda: coord_sel, "target": target_sel,
            "argmaxcoord": argmax_coord_sel}
    return ctor[kind](*args)


def _goals(leaves, secondaries=None):
    leaves = st.sampled_from(leaves)
    extra = st.sampled_from(secondaries) if secondaries else st.nothing()
    return st.recursive(
        leaves,
        lambda inner: st.tuples(st.just("lex"), inner, inner | extra),
        max_leaves=3,
    )


def _profiles(move_sets):
    return list(product(*(m.labels for m in move_sets)))


def _game_of(move_sets, outcomes, fn, oracle_fn, specs):
    players = tuple(
        Player(f"P{i}", m, _hog_goal(g))
        for i, (m, g) in enumerate(zip(move_sets, specs), start=1)
    )
    game = Game("random", players, outcomes, fn)
    return game, oracle_fn, [_oracle_goal(g) for g in specs]


@st.composite
def _majority_games(draw):
    labels = draw(st.sampled_from([("A", "B"), ("A", "B", "C")]))
    n = draw(st.integers(1, 5))
    move_sets = [MoveSet(draw(st.permutations(labels))) for _ in range(n)]
    leaves = [("fix",), ("nonfix",)] + [("order", o) for o in permutations(labels)]
    specs = [draw(_goals(leaves)) for _ in range(n)]
    return _game_of(
        move_sets, AtomOutcomes(labels), majority_rule(),
        lambda s: max(sorted(set(s)), key=s.count), specs,
    )


@st.composite
def _identity_games(draw):
    n = draw(st.integers(2, 3))
    move_sets = [MoveSet(("E", "G", "H")[: draw(st.integers(1, 3))]) for _ in range(n)]
    leaves = [(k, j) for k in ("fixproj", "nonfixproj") for j in range(1, n + 1)]
    if n == 2:
        leaves.append(("coord",))
    targets = [("target", j, x) for j, m in enumerate(move_sets, start=1) for x in m]
    specs = [draw(_goals(leaves, targets)) for _ in range(n)]
    return _game_of(
        move_sets, ProductOutcomes(move_sets), identity_rule(), lambda s: s, specs
    )


@st.composite
def _table_games(draw):
    # mixed radix: up to 4 players of 1-4 moves each, so some players' lines
    # have more blocks than offsets and others fewer
    labels = ("A", "B", "C", "D")[: draw(st.integers(1, 4))]
    n = draw(st.integers(1, 4))
    move_sets = [
        MoveSet(draw(st.permutations(("A", "B", "C", "D")[: draw(st.integers(1, 4))])))
        for _ in range(n)
    ]
    table = {s: draw(st.sampled_from(labels)) for s in _profiles(move_sets)}
    orders = [("order", o) for o in permutations(labels)]
    # fixpoint goals need the moves to be the outcome atoms
    specs = [
        draw(_goals(orders + [("fix",), ("nonfix",)] if set(m) == set(labels) else orders))
        for m in move_sets
    ]
    return _game_of(
        move_sets, AtomOutcomes(labels), outcome_table(table), table.get, specs
    )


@st.composite
def _payoff_games(draw):
    n = draw(st.integers(1, 3))
    move_sets = [MoveSet(("a", "b", "c")[: draw(st.integers(1, 3))]) for _ in range(n)]
    pay = st.tuples(*[st.integers(-2, 2)] * n)
    entries = {s: draw(pay) for s in _profiles(move_sets)}
    matrix = PayoffMatrix("random", [f"P{i}" for i in range(1, n + 1)], move_sets, entries)
    return (
        classical_game(matrix),
        matrix.payoff,
        [argmax_coord_sel(i) for i in range(1, n + 1)],
    )


@settings(deadline=None)
@given(case=st.one_of(_majority_games(), _identity_games(), _table_games(), _payoff_games()))
def test_kernel_agrees_with_the_oracle_row_for_row(case):
    game, oracle_fn, oracle_sels = case
    expected = brute_equilibria(
        [list(p.moves) for p in game.players], oracle_fn, oracle_sels
    )
    report = enumerate_equilibria(game)
    assert [r.profile for r in report.rows] == list(expected)
    names = [p.name for p in game.players]
    for row in report.rows:
        outcome, q_eq, q_def, s_eq, s_def = expected[row.profile]
        assert row == ProfileResult(
            row.profile,
            outcome,
            q_eq,
            tuple(names[i] for i in q_def),
            s_eq,
            tuple(names[i] for i in s_def),
        )
        assert evaluate_profile(game, row.profile) == row


@dataclass(frozen=True)
class _Counted(SelectionFunction):
    """Wraps a goal and records every context it is asked about."""

    inner: SelectionFunction
    seen: list = field(default_factory=list, compare=False)

    def __call__(self, p):
        self.seen.append(p)
        return self.inner(p)


def _counted_vote(n):
    goals = [ArgmaxOrder(PreferenceOrder(("A", "B")))] + [Fix()] * (n - 1)
    players = tuple(Player(f"V{i}", AB, _Counted(g)) for i, g in enumerate(goals, 1))
    return Game(f"vote{n}", players, AtomOutcomes(("A", "B")), majority_rule())


@pytest.fixture
def outcome_calls(monkeypatch):
    calls = []
    call = OutcomeFunction.__call__

    def counting(self, profile):
        calls.append(profile)
        return call(self, profile)

    monkeypatch.setattr(OutcomeFunction, "__call__", counting)
    return calls


def test_sweep_tabulates_once_and_runs_each_goal_once_per_context(outcome_calls):
    game = _counted_vote(13)
    report = enumerate_equilibria(game)
    assert len(report.rows) == 2**13
    # majority outcomes come from vote counts: no call per profile or line
    assert outcome_calls == []
    for p in game.players:
        # the others' votes leave the voter three contexts: A wins, B wins,
        # or the voter decides
        assert len(p.selection.seen) <= 3
        assert len(set(p.selection.seen)) == len(p.selection.seen)


def test_sweep_calls_a_table_once_per_profile(outcome_calls):
    game = builtin("meeting-ny")
    table = Game(
        game.name, game.players, game.outcomes,
        outcome_table({s: game.outcome(s) for s in game.profiles()}),
    )
    outcome_calls.clear()
    report = enumerate_equilibria(table)
    assert outcome_calls == list(table.profiles())
    assert report.rows == enumerate_equilibria(game).rows


def test_single_profile_is_checked_once(monkeypatch):
    game = _counted_vote(25)
    calls = []
    check = Game.check_profile
    monkeypatch.setattr(Game, "check_profile", lambda g, s: calls.append(s) or check(g, s))
    row = evaluate_profile(game, ["A"] * 25)
    assert len(calls) == 1
    # the contexts come from the checked tuple, not from the argument
    assert row == evaluate_profile(game, iter(("A",) * 25))
    assert row.profile == ("A",) * 25


def test_single_profile_walks_only_its_own_lines(outcome_calls):
    game = _counted_vote(25)
    row = evaluate_profile(game, ("A",) * 25)
    assert row.selection_eq and row.quantifier_eq
    assert len(outcome_calls) <= 2 * 25 + 1
    with pytest.raises(BudgetExceededError):
        enumerate_equilibria(game)
    assert len(outcome_calls) <= 2 * 25 + 1


def test_budget_is_checked_before_tabulating(monkeypatch):
    tabulated = []
    tabulate = OutcomeFunction._tabulate

    def recording(self, move_sets):
        tabulated.append(move_sets)
        return tabulate(self, move_sets)

    monkeypatch.setattr(OutcomeFunction, "_tabulate", recording)
    game = _counted_vote(25)
    with pytest.raises(BudgetExceededError):
        enumerate_equilibria(game)
    assert tabulated == []
    enumerate_equilibria(_counted_vote(3))
    assert tabulated == [(AB,) * 3]


@st.composite
def _shuffled_majority_games(draw):
    """1-7 voters over 1-4 shared labels, each voter listing them in its own
    order; even crowds tie."""
    labels = ("A", "B", "C", "D")[: draw(st.integers(1, 4))]
    n = draw(st.integers(1, 7))
    goals = st.sampled_from([Fix(), NonFix(), ArgmaxOrder(PreferenceOrder(labels))])
    players = tuple(
        Player(f"V{i}", MoveSet(draw(st.permutations(labels))), draw(goals))
        for i in range(1, n + 1)
    )
    return Game("shuffled", players, AtomOutcomes(labels), majority_rule())


def _tabulation_agrees_with_calls(game):
    fn = game.outcome_fn
    tabulated = fn._tabulate(tuple(p.moves for p in game.players))
    assert tabulated == [fn(s) for s in game.profiles()]
    for row in enumerate_equilibria(game).rows:
        assert row.outcome == game.outcome(row.profile)


@settings(deadline=None, max_examples=60)
@given(game=_shuffled_majority_games())
def test_majority_tabulation_agrees_with_the_outcome_function(game):
    _tabulation_agrees_with_calls(game)


def test_majority_builtins_tabulate_as_they_are_called():
    names = [n for n in builtin_names() if builtin(n).outcome_fn.kind == "majority"]
    assert len(names) == 5
    for name in names:
        _tabulation_agrees_with_calls(builtin(name))


@pytest.mark.parametrize(
    "voters, width, by_votes",
    [(1, 31, True), (1, 32, False), (2, 31, True), (2, 32, False),
     (3, 20, True), (3, 21, False)],
)
def test_majority_keys_by_votes_only_while_a_key_fits_62_bits(
    outcome_calls, voters, width, by_votes
):
    # a key has one digit, base voters + 1, per label
    labels = tuple(f"L{i:02d}" for i in range(width))
    move_sets = tuple(
        MoveSet(labels[::-1] if i % 2 else labels) for i in range(voters)
    )
    fn = majority_rule()
    tabulated = fn._tabulate(move_sets)
    calls = len(outcome_calls)
    assert calls == (0 if by_votes else width**voters)
    assert tabulated == [fn(s) for s in product(*(ms.labels for ms in move_sets))]


def test_many_labels_tabulate_as_fast_as_they_are_called():
    # keyed by votes, 3000 labels would make 3000-digit keys and decode
    # each with 3000 big-int divisions (about 30 s); called, it takes ms
    moves = MoveSet(tuple(f"L{i:04d}" for i in range(3000)))
    fn = majority_rule()
    start = time.perf_counter()
    tabulated = fn._tabulate((moves,))
    assert time.perf_counter() - start < 2.0
    assert tabulated == [fn((x,)) for x in moves.labels]


def test_majority_ties_go_to_the_label_that_sorts_first():
    moves = MoveSet(("C", "B", "A"))
    players = tuple(Player(f"V{i}", moves, Fix()) for i in range(4))
    game = Game("ties", players, AtomOutcomes(("A", "B", "C")), majority_rule())
    table = dict(zip(game.profiles(), game.outcome_fn._tabulate((moves,) * 4)))
    assert table[("C", "C", "B", "B")] == "B"
    assert table[("C", "A", "B", "B")] == "B"
    assert table[("C", "A", "C", "A")] == "A"
    assert table[("A", "B", "C", "C")] == "C"


def _counted_game(game):
    players = tuple(Player(p.name, p.moves, _Counted(p.selection)) for p in game.players)
    return Game(game.name, players, game.outcomes, game.outcome_fn)


def _line_walk(game, i):
    """The profile where player i plays their first move, on each of
    player i's deviation lines (0-based i): block by block, then offset by
    offset."""
    move_sets = [p.moves.labels for p in game.players]
    first = move_sets[i][0]
    for head in product(*move_sets[:i]):
        for tail in product(*move_sets[i + 1 :]):
            yield head + (first,) + tail


def _contexts_in_line_order(game, i):
    walk = (unilateral_context(game, s, i + 1).table for s in _line_walk(game, i))
    return list(dict.fromkeys(walk))


def _mixed_radix_game(goals):
    """Players of 2, 3 and 4 moves over three atom outcomes; the table
    repeats often enough that lines share contexts."""
    move_sets = [MoveSet(("a", "b")), MoveSet(("x", "y", "z")), MoveSet(("p", "q", "r", "s"))]
    labels = ("A", "B", "C")
    table = {s: labels[k % 5 % 3] for k, s in enumerate(_profiles(move_sets))}
    players = tuple(
        Player(f"P{i}", m, g) for i, (m, g) in enumerate(zip(move_sets, goals), start=1)
    )
    return Game("mixed-radix", players, AtomOutcomes(labels), outcome_table(table))


_ABC = PreferenceOrder(("A", "B", "C"))


def test_goals_meet_their_contexts_in_line_order():
    game = _mixed_radix_game([_Counted(ArgmaxOrder(_ABC)) for _ in range(3)])
    enumerate_equilibria(game)
    for i, p in enumerate(game.players):
        assert 1 < len(p.selection.seen) < game.profile_count() // len(p.moves)
    _assert_one_goal_call_per_context(game)


@dataclass(frozen=True)
class _FailsOnSecondContext(SelectionFunction):
    """Wraps a goal and raises when asked about a second distinct context."""

    inner: SelectionFunction
    seen: list = field(default_factory=list, compare=False)

    def __call__(self, p):
        if p.table not in self.seen:
            self.seen.append(p.table)
        if len(self.seen) == 2:
            raise RuntimeError(f"second context {p.table}")
        return self.inner(p)


@pytest.mark.parametrize("i", range(3))
def test_a_failing_goal_fails_where_a_line_walk_would(i):
    goals = [ArgmaxOrder(_ABC)] * 3
    goals[i] = _FailsOnSecondContext(ArgmaxOrder(_ABC))
    game = _mixed_radix_game(goals)
    walker = _FailsOnSecondContext(ArgmaxOrder(_ABC))
    with pytest.raises(RuntimeError) as by_walk:
        for s in _line_walk(game, i):
            walker(unilateral_context(game, s, i + 1))
    with pytest.raises(RuntimeError) as by_sweep:
        enumerate_equilibria(game)
    assert str(by_sweep.value) == str(by_walk.value)


def _assert_one_goal_call_per_context(game):
    # every distinct line context once, in the order a walk over the lines
    # meets them
    for i, p in enumerate(game.players):
        tables = [ctx.table for ctx in p.selection.seen]
        assert tables == _contexts_in_line_order(game, i)


def test_each_goal_runs_once_per_distinct_context_by_value():
    # payoffs from two levels, so many lines show equal contexts
    move_sets = [("a", "b", "c"), ("x", "y"), ("p", "q", "r")]
    entries = {
        s: tuple((k * 7 + j * 3) % 5 // 3 for j in range(3))
        for k, s in enumerate(product(*move_sets))
    }
    matrix = PayoffMatrix("two-levels", ["P1", "P2", "P3"], move_sets, entries)
    game = _counted_game(classical_game(matrix))
    report = enumerate_equilibria(game)
    # 6 + 9 + 6 deviation lines, fewer distinct contexts
    assert sum(len(p.selection.seen) for p in game.players) < 6 + 9 + 6
    _assert_one_goal_call_per_context(game)
    assert set(report.selection_equilibria()) == set(brute_force_nash(matrix))


def test_equal_int_and_fraction_outcomes_share_a_context():
    one, zero = Fraction(1), Fraction(0)
    table = {
        ("A", "A"): (1, 0), ("A", "B"): (one, zero), ("A", "C"): (0, 1),
        ("B", "A"): (one, zero), ("B", "B"): (1, 0), ("B", "C"): (zero, one),
    }
    players = (
        Player("P1", AB, _Counted(ArgmaxCoord(1))),
        Player("P2", MoveSet(("A", "B", "C")), _Counted(ArgmaxCoord(2))),
    )
    game = Game("mixed", players, VectorOutcomes(2, (0, 1)), outcome_table(table))
    report = enumerate_equilibria(game)
    # by value, P1's three lines show two contexts and P2's two lines one
    assert [len(p.selection.seen) for p in players] == [2, 1]
    _assert_one_goal_call_per_context(game)
    for row in report.rows:
        assert row.outcome is game.outcome_fn(row.profile)
        assert evaluate_profile(game, row.profile) == report.row(row.profile)
    assert report.selection_equilibria() == (("A", "C"), ("B", "C"))


# ---------------------------------------------------------------------------
# byte-keyed lines: one byte per line while D**k <= 256 and the lines
# outnumber the D**k possible keys, tuples otherwise
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _FirstBest(SelectionFunction):
    """A user goal that is not closed: only the first of the best moves."""

    order: PreferenceOrder

    def __call__(self, p):
        return ArgmaxOrder(self.order)(p)[:1]


@st.composite
def _atom_tables(draw):
    """A table game of 2-4 players over 1-4 moves each, its outcomes drawn
    from 1 to 40 labels, so that D (the distinct outcomes) and D**k (a
    player's possible line keys, over k moves) fall on both sides of 256
    and of the player's line count; every goal is a counted user goal."""
    n = draw(st.integers(2, 4))
    move_sets = [MoveSet(("a", "b", "c", "d")[: draw(st.integers(1, 4))]) for _ in range(n)]
    labels = tuple(f"o{i}" for i in range(draw(st.sampled_from([1, 2, 2, 3, 4, 16, 17, 40]))))
    table = {s: draw(st.sampled_from(labels)) for s in _profiles(move_sets)}
    order = st.permutations(labels).map(PreferenceOrder)
    goal = st.one_of(
        order.map(ArgmaxOrder),
        st.builds(Lex, order.map(ArgmaxOrder), order.map(ArgmaxOrder)),
        order.map(_FirstBest),
    )
    players = tuple(
        Player(f"P{i}", m, _Counted(draw(goal))) for i, m in enumerate(move_sets, start=1)
    )
    return Game("atoms", players, AtomOutcomes(labels), outcome_table(table))


def _judged_line_by_line(game):
    """Check the sweep of `game` (counted goals) call for call against a line
    walk and row for row against `evaluate_profile`, and that it keys a
    player's lines by bytes exactly when D**k <= 256 and the player has more
    lines than D**k."""
    byte_keyed = []
    by_bytes = hog.engine._byte_keyed_flags

    def spy(columns, d, judge):
        byte_keyed.append((len(columns), d))
        return by_bytes(columns, d, judge)

    with patch.object(hog.engine, "_byte_keyed_flags", spy):
        report = enumerate_equilibria(game)
    _assert_one_goal_call_per_context(game)
    d = len(set(game.outcome_fn._table.values()))
    lines = [(game.profile_count() // len(p.moves), len(p.moves)) for p in game.players]
    assert byte_keyed == [(k, d) for n, k in lines if d**k < min(257, n)]
    for row in report.rows:
        assert evaluate_profile(game, row.profile) == row


@settings(deadline=None)
@given(game=_atom_tables())
def test_byte_keyed_lines_agree_with_a_line_walk(game):
    _judged_line_by_line(game)


@pytest.mark.parametrize(
    "widths, outcomes", [((17, 17), 17 * 17), ((300, 1), 256), ((2, 300), 16)]
)
def test_line_keys_fit_a_byte_up_to_256(widths, outcomes):
    # 289 outcomes: the ids stay a list, and every line is keyed by a tuple;
    # 256 outcomes and one move, or 16 outcomes and two moves, make line
    # keys up to 255: that player's 300 lines are keyed by one byte each
    move_sets = [MoveSet(tuple(f"m{i:03d}" for i in range(w))) for w in widths]
    labels = tuple(f"o{i}" for i in range(outcomes))
    table = {s: labels[k * 7 % outcomes] for k, s in enumerate(_profiles(move_sets))}
    goals = [ArgmaxOrder(PreferenceOrder(labels)), _FirstBest(PreferenceOrder(labels[::-1]))]
    players = tuple(
        Player(f"P{i}", m, _Counted(g)) for i, (m, g) in enumerate(zip(move_sets, goals), 1)
    )
    _judged_line_by_line(Game("wide", players, AtomOutcomes(labels), outcome_table(table)))


# ---------------------------------------------------------------------------
# argmax-coordinate players: judged by score columns, not by goal calls
# ---------------------------------------------------------------------------
# A goal that is exactly ArgmaxCoord skips the memo; `_counted_game` wraps
# each goal in _Counted, a user goal, which puts it back on the memo path:
# the reference here.

# 1 and Fraction(1) are one level: equal payoffs written both ways
_PAYOFF_POOL = (-2, Fraction(-3, 4), 0, Fraction(1, 3), 1, Fraction(1), Fraction(5, 2))


@st.composite
def _argmax_mixes(draw):
    """A payoff table of 1-4 players over 1-4 moves each, and one goal per
    player over its vector space: an exact ArgmaxCoord, a Lex of two, or a
    user goal wrapping one, each on any coordinate."""
    n = draw(st.integers(1, 4))
    move_sets = [MoveSet(("a", "b", "c", "d")[: draw(st.integers(1, 4))]) for _ in range(n)]
    pay = st.tuples(*[st.sampled_from(_PAYOFF_POOL)] * n)
    table = {s: draw(pay) for s in _profiles(move_sets)}
    coord = st.integers(1, n).map(ArgmaxCoord)
    goal = st.one_of(
        coord,
        st.builds(Lex, coord, coord),
        coord.map(_Counted),
    )
    goals = [draw(goal) for _ in range(n)]
    return move_sets, table, goals


def _judged_both_ways(names, move_sets, goals, table):
    """The report of a game over `table`, checked row for row against the
    memo path and against `evaluate_profile`."""
    players = tuple(map(Player, names, move_sets, goals))
    space = VectorOutcomes(len(names), tuple(set(_PAYOFF_POOL)))
    game = Game("m", players, space, outcome_table(table))
    report = enumerate_equilibria(game)
    assert report.rows == enumerate_equilibria(_counted_game(game)).rows
    for row in report.rows:
        assert row.outcome is table[row.profile]
        assert evaluate_profile(game, row.profile) == row
    return report


@settings(deadline=None)
@given(case=_argmax_mixes())
def test_score_columns_agree_with_the_memo_path(case):
    move_sets, table, goals = case
    names = [f"P{i}" for i in range(1, len(move_sets) + 1)]
    _judged_both_ways(names, move_sets, goals, table)
    classical = [ArgmaxCoord(i) for i in range(1, len(names) + 1)]
    report = _judged_both_ways(names, move_sets, classical, table)
    nash = brute_force_nash(PayoffMatrix("m", names, move_sets, table))
    assert report.quantifier_equilibria() == report.selection_equilibria() == nash


@dataclass(frozen=True)
class _ArgmaxCoordSubclass(ArgmaxCoord):
    pass


def test_only_exact_argmax_coord_goals_skip_the_goal_call(monkeypatch):
    calls = []
    call = ArgmaxCoord.__call__

    def recording(self, p):
        calls.append((self.coord, p.table))
        return call(self, p)

    monkeypatch.setattr(ArgmaxCoord, "__call__", recording)
    # payoffs from two levels, so many lines show equal contexts
    move_sets = [("a", "b", "c"), ("x", "y"), ("p", "q", "r")]
    entries = {
        s: tuple((k * 7 + j * 3) % 5 // 3 for j in range(3))
        for k, s in enumerate(product(*move_sets))
    }
    matrix = PayoffMatrix("two-levels", ["P1", "P2", "P3"], move_sets, entries)
    game = classical_game(matrix)
    report = enumerate_equilibria(game)
    assert calls == []
    assert report.selection_equilibria() == brute_force_nash(matrix)

    # a subclass keeps the memo path: one call per distinct context, in
    # line order
    players = tuple(
        Player(p.name, p.moves, _ArgmaxCoordSubclass(p.selection.coord))
        for p in game.players
    )
    sub = Game(game.name, players, game.outcomes, game.outcome_fn)
    assert enumerate_equilibria(sub).rows == report.rows
    for i in range(sub.n):
        seen = [table for coord, table in calls if coord == i + 1]
        assert seen == _contexts_in_line_order(sub, i)

    # and so does a single profile, whatever the goal
    calls.clear()
    evaluate_profile(game, next(game.profiles()))
    assert [coord for coord, _ in calls] == [1, 2, 3]


@dataclass(frozen=True)
class _PicksNonMove(SelectionFunction):
    def __call__(self, p):
        return ("Z",)


def test_a_goal_that_picks_a_non_move_is_a_value_error():
    players = (Player("P1", AB, _PicksNonMove()), Player("P2", AB, Fix()), Player("P3", AB, Fix()))
    game = Game("bad-goal", players, AtomOutcomes(("A", "B")), majority_rule())
    message = r"^tuple\.index\(x\): x not in tuple$"
    with pytest.raises(ValueError, match=message):
        enumerate_equilibria(game)
    with pytest.raises(ValueError, match=message):
        evaluate_profile(game, ("A", "A", "A"))


def test_hand_built_contexts_are_still_validated():
    with pytest.raises(ValueError, match="outside the outcome space"):
        GameContext(AB, AtomOutcomes(("A", "B")), ("A", "C"))
    with pytest.raises(ValueError, match="outside the outcome space"):
        GameContext(AB, VectorOutcomes(1, (0, 1)), ((0,), (2,)))
    # two values outside: the message names the first
    with pytest.raises(ValueError, match=r"^context value 'D' lies outside the outcome space$"):
        GameContext(AB, AtomOutcomes(("A", "B")), ("D", "C"))


def test_valid_inputs_ask_membership_once_per_sequence(monkeypatch):
    # each space is asked about a whole ranking, table row, set of winners,
    # context or profile at once, by `_contains_all`; `in` walks only a fault
    calls = {}
    for cls in (AtomOutcomes, MoveSet):
        _counted(monkeypatch, cls, "__contains__", calls)
    atoms = AtomOutcomes(("A", "B"))
    goals = (ArgmaxOrder(PreferenceOrder(("B", "A"))), tabulate(Fix(), AB, atoms), NonFix())
    voters = tuple(Player(f"V{i}", AB, goals[i % 3]) for i in range(25))
    game = Game("vote25", voters, atoms, majority_rule())
    GameContext(AB, atoms, ("B", "A"))
    r = evaluate_profile(game, ("A", "B") * 12 + ("A",))
    assert r.outcome == "A" and calls == {}


# ---------------------------------------------------------------------------
# game validation
# ---------------------------------------------------------------------------


def _atoms_players():
    return (
        Player("P1", AB, Fix()),
        Player("P2", AB, Fix()),
        Player("P3", AB, Fix()),
    )


def test_game_rejects_duplicate_player_names():
    players = (Player("P1", AB, Fix()), Player("P1", AB, Fix()), Player("P3", AB, Fix()))
    with pytest.raises(ValueError, match="duplicate player name"):
        Game("g", players, AtomOutcomes(("A", "B")), majority_rule())


def test_game_rejects_bare_target():
    players = (
        Player("P1", MoveSet(("B", "F")), TargetCoord(1, "B")),
        Player("P2", MoveSet(("B", "F")), Coord()),
    )
    space = ProductOutcomes((MoveSet(("B", "F")), MoveSet(("B", "F"))))
    with pytest.raises(ValueError, match="can reject every move"):
        Game("g", players, space, identity_rule())


def test_game_rejects_a_lifted_target_and_accepts_one_with_a_fallback():
    bf = MoveSet(("B", "F"))
    space = ProductOutcomes((bf, bf))
    bare = (Player("W", bf, closure_of(TargetCoord(2, "B"))), Player("H", bf, Coord()))
    with pytest.raises(ValueError, match="can reject every move"):
        Game("g", bare, space, identity_rule())
    fallback = closure_of(Lex(Coord(), TargetCoord(2, "B")))
    Game("g", (Player("W", bf, fallback), Player("H", bf, Coord())), space, identity_rule())


def test_game_rejects_a_table_selection_that_misses_contexts():
    bf = MoveSet(("B", "F"))
    space = ProductOutcomes((bf, bf))
    first = next(enumerate_contexts(bf, space))
    players = (Player("W", bf, TableSelection(((first, ("B",)),))), Player("H", bf, Coord()))
    with pytest.raises(TypeMismatchError, match="rows for 1 of 16 contexts"):
        Game("g", players, space, identity_rule())


def test_game_rejects_selection_shaped_for_another_space():
    players = (
        Player("P1", AB, FixProj(1)),
        Player("P2", AB, Fix()),
        Player("P3", AB, Fix()),
    )
    with pytest.raises(TypeMismatchError):
        Game("g", players, AtomOutcomes(("A", "B")), majority_rule())


def test_game_rejects_incomplete_preference_order():
    players = (
        Player("P1", AB, ArgmaxOrder(PreferenceOrder(("A",)))),
        Player("P2", AB, Fix()),
        Player("P3", AB, Fix()),
    )
    with pytest.raises(IncompleteOrderError):
        Game("g", players, AtomOutcomes(("A", "B")), majority_rule())


class _CountedLabel(str):
    """A label that counts the `==` tests made on it; it hashes as a str."""

    eqs = 0

    def __eq__(self, other):
        type(self).eqs += 1
        return str.__eq__(self, other)

    __hash__ = str.__hash__


def test_label_lookups_are_linear_in_the_labels():
    # a membership test that scans the labels makes about n**2 / 2 `==` tests
    # here; one that looks the label up by hash makes a handful per label
    n = 2000
    moves = tuple(map(_CountedLabel, (f"m{i}" for i in range(n))))
    entries = [((m,), "AB"[i % 2]) for i, m in enumerate(moves)]
    _CountedLabel.eqs = 0
    Game(
        "g", (Player("P1", MoveSet(moves), ArgmaxOrder(PreferenceOrder(("A", "B")))),),
        AtomOutcomes(("A", "B")), outcome_table(entries),
    )
    assert _CountedLabel.eqs <= 3 * n
    # a table with a fault is walked entry by entry, each profile looked up
    _CountedLabel.eqs = 0
    with pytest.raises(ValueError, match="listed twice"):
        Game(
            "g", (Player("P1", MoveSet(moves), ArgmaxOrder(PreferenceOrder(("A", "B")))),),
            AtomOutcomes(("A", "B")), outcome_table(entries + entries[-1:]),
        )
    assert _CountedLabel.eqs <= 3 * n
    atoms = tuple(map(_CountedLabel, (f"a{i}" for i in range(n))))
    ranking = tuple(map(_CountedLabel, reversed(atoms)))  # equal, not the same objects
    _CountedLabel.eqs = 0
    check_shape(ArgmaxOrder(PreferenceOrder(ranking)), AB, AtomOutcomes(atoms))
    assert _CountedLabel.eqs <= 3 * n


def test_game_rejects_partial_outcome_table():
    entries = [(("A", "A"), "A")]
    players = (Player("P1", AB, Fix()), Player("P2", AB, Fix()))
    with pytest.raises(ValueError, match=r"misses 3 profile\(s\), e\.g\. \(A, B\)"):
        Game("g", players, AtomOutcomes(("A", "B")), outcome_table(entries))


def test_game_rejects_identity_on_mismatched_space():
    players = (Player("P1", AB, FixProj(1)), Player("P2", AB, FixProj(2)))
    space = ProductOutcomes((AB, MoveSet(("A", "B", "C"))))
    with pytest.raises(ValueError, match="identity"):
        Game("g", players, space, identity_rule())


MALFORMED_PARTS = {
    "unknown-kind": (
        lambda: OutcomeFunction("plurality"),
        ValueError, "unknown outcome function kind 'plurality'",
    ),
    "entries-off-table": (
        lambda: OutcomeFunction("majority", [(("A",), "A")]),
        ValueError, "majority outcome functions take no entries",
    ),
    "unlisted-profile": (
        lambda: outcome_table([(("A",), "A")])(("B",)),
        InvalidProfileError, "no outcome listed for profile ('B',)",
    ),
    "no-players": (
        lambda: Game("g", (), AtomOutcomes(("A", "B")), majority_rule()),
        ValueError, "a game needs at least one player",
    ),
    "matrix-move-sets": (
        lambda: PayoffMatrix("m", ("P1", "P2"), (("a", "b"),), []),
        ValueError, "one move set per player, please",
    ),
    "matrix-names": (
        lambda: PayoffMatrix("m", ("P1", "P1"), (("a",), ("b",)), []),
        ValueError, "duplicate player names in ('P1', 'P1')",
    ),
    "matrix-payoff": (
        lambda: payoff_matrix("meeting-ny").payoff(("E", "X")),
        InvalidProfileError, "no payoffs for profile ('E', 'X')",
    ),
    # a label that cannot hash is no move, wherever a profile is checked
    "table-unhashable-label": (
        lambda: Game(
            "g", (Player("P1", AB, Fix()),), AtomOutcomes(("A", "B")),
            outcome_table([((["A"],), "A"), (("A",), "A"), (("B",), "B")]),
        ),
        InvalidProfileError, "profile (['A']) does not match the move sets",
    ),
    "matrix-unhashable-label": (
        lambda: PayoffMatrix("m", ("P1",), (("a",),), [((["a"],), (1,))]),
        InvalidProfileError, "profile (['a']) does not match the move sets",
    ),
    "evaluate-unhashable-label": (
        lambda: evaluate_profile(KEYNES, (["A"], "A", "B")),
        InvalidProfileError, "['A'] is not a move of player J1",
    ),
    # two non-moves: the message names the first
    "evaluate-two-non-moves": (
        lambda: evaluate_profile(KEYNES, ("A", "C", "D")),
        InvalidProfileError, "'C' is not a move of player J2",
    ),
    # its profiles are a `ProductOutcomes`, which needs a coordinate
    "matrix-no-players": (
        lambda: PayoffMatrix("m", (), (), [((), ())]),
        ValueError, "a product outcome space needs at least one coordinate",
    ),
}


@pytest.mark.parametrize("case", MALFORMED_PARTS)
def test_malformed_parts_are_rejected_with_their_own_message(case):
    build, error, message = MALFORMED_PARTS[case]
    with pytest.raises(Exception) as raised:
        build()
    assert (type(raised.value), str(raised.value)) == (error, message)


def test_outcome_table_entries_are_canonicalized():
    space = AtomOutcomes(("A", "B"))
    players = (Player("P1", AB, Fix()), Player("P2", AB, Fix()))
    scrambled = [
        (("B", "A"), "B"),
        (("A", "A"), "A"),
        (("B", "B"), "B"),
        (("A", "B"), "A"),
    ]
    ordered = sorted(scrambled, key=lambda kv: kv[0])
    g1 = Game("g", players, space, outcome_table(scrambled))
    g2 = Game("g", players, space, outcome_table(ordered))
    assert g1 == g2
    assert [prof for prof, _ in g1.outcome_fn.entries] == list(g1.profiles())


# ---------------------------------------------------------------------------
# classical bridge
# ---------------------------------------------------------------------------


def test_nash_on_a_one_player_matrix():
    m = PayoffMatrix("solo", ("P1",), (("a", "b"),), [(("a",), (0,)), (("b",), (1,))])
    assert brute_force_nash(m) == (("b",),)


def test_nash_with_constant_payoffs_is_everything():
    m = payoff_matrix("meeting-ny")
    flat = PayoffMatrix(
        "flat",
        m.players,
        m.move_sets,
        [(prof, (1, 1)) for prof in m.profiles()],
    )
    assert brute_force_nash(flat) == tuple(flat.profiles())


class _Third(Fraction):
    """A `Fraction` subclass, which a payoff matrix stores as a `Fraction`."""


def test_payoff_matrix_values_are_exact():
    m = payoff_matrix("matching-pennies")
    assert m.payoff(("H", "H")) == (Fraction(1), Fraction(-1))
    assert m.payoff(("H", "T")) == (Fraction(-1), Fraction(1))
    given = (2, "1/2", 0.25, Fraction(3, 4), _Third(1, 3))
    names = tuple(f"P{i}" for i in range(1, len(given) + 1))
    mixed = PayoffMatrix("mixed", names, (("a",),) * len(given), [(("a",) * len(given), given)])
    payoffs = mixed.payoff(("a",) * len(given))
    assert payoffs == (2, Fraction(1, 2), Fraction(1, 4), Fraction(3, 4), Fraction(1, 3))
    assert [type(v) for v in payoffs] == [Fraction] * len(given)
    assert payoffs[3] is given[3]  # an exact Fraction is kept as given
    # payoffs given as an iterator
    made = (x / 4 for x in range(5))
    fresh = PayoffMatrix("fresh", names, mixed.move_sets, [(("a",) * 5, made)])
    assert fresh.payoff(("a",) * 5) == tuple(Fraction(x, 4) for x in range(5))


def test_payoff_matrix_rejects_partial_tables():
    with pytest.raises(ValueError, match=r"misses 1 profile\(s\), e\.g\. \(b\)"):
        PayoffMatrix("bad", ("P1",), (("a", "b"),), [(("a",), (0,))])


_MATRIX_MOVES = (("a", "b"), ("x", "y"))
_FULL_MATRIX = [(profile, (0, 1)) for profile in product(*_MATRIX_MOVES)]

MATRIX_FAULTS = {
    "wrong-length": _FULL_MATRIX + [(("a",), (1, 0))],
    "unknown-move": _FULL_MATRIX[:1] + [(("a", "z"), (1, 0))] + _FULL_MATRIX[1:],
    "repeated": _FULL_MATRIX + [(("b", "x"), (1, 1))],
    "missing": _FULL_MATRIX[:-1],
}


@pytest.mark.parametrize("fault", MATRIX_FAULTS)
def test_payoff_matrix_and_game_reject_table_faults_alike(fault):
    entries = MATRIX_FAULTS[fault]
    with pytest.raises(Exception) as by_matrix:
        PayoffMatrix("m", ("P1", "P2"), _MATRIX_MOVES, entries)
    players = tuple(
        Player(f"P{i}", MoveSet(ms), ArgmaxCoord(i))
        for i, ms in enumerate(_MATRIX_MOVES, start=1)
    )
    outcomes = VectorOutcomes(2, (Fraction(0), Fraction(1)))
    table = outcome_table([(p, tuple(map(Fraction, pay))) for p, pay in entries])
    with pytest.raises(Exception) as by_game:
        Game("m", players, outcomes, table)
    assert type(by_matrix.value) is type(by_game.value)
    assert str(by_matrix.value) == str(by_game.value)


def test_payoff_matrix_needs_one_payoff_per_player():
    entries = [(p, (0, 1, 1) if p == ("b", "x") else pay) for p, pay in _FULL_MATRIX]
    with pytest.raises(ValueError) as raised:
        PayoffMatrix("m", ("P1", "P2"), _MATRIX_MOVES, entries)
    assert type(raised.value) is ValueError
    assert str(raised.value) == "outcome for (b, x) needs 2 payoffs"


@pytest.mark.parametrize("name", payoff_matrix_names())
def test_classical_games_recover_pure_nash(name):
    m = payoff_matrix(name)
    g = classical_game(m)
    report = enumerate_equilibria(g)
    nash = brute_force_nash(m)
    assert report.quantifier_equilibria() == nash
    assert report.selection_equilibria() == nash
    oracle_nash = brute_nash([list(ms) for ms in m.move_sets], m.payoff)
    assert set(nash) == oracle_nash


def test_classical_game_uses_payoff_vectors():
    g = classical_game(payoff_matrix("bos-classic"))
    assert g.outcome(("B", "B")) == (Fraction(3), Fraction(2))
    assert all(isinstance(p.selection, ArgmaxCoord) for p in g.players)


def test_the_agreement_coincidence():
    # independently computed Nash profiles of the payoff matrix land exactly
    # on the selection equilibria of the non-classical fixpoint voting game
    nash = set(brute_force_nash(payoff_matrix("voting-intro")))
    report = enumerate_equilibria(builtin("voting-keynes"))
    assert nash == set(report.selection_equilibria())
