"""Games, unilateral contexts, equilibrium sweeps, and the classical bridge."""

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from hog import (
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
    "profile", [("B", "A"), ("B", "A", "B", "A"), ("B", "Z", "B"), (None, "A", "B")]
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
    labels = draw(st.sampled_from([("A",), ("A", "B"), ("A", "B", "C")]))
    n = draw(st.integers(1, 3))
    move_sets = [MoveSet(draw(st.permutations(labels))) for _ in range(n)]
    table = {s: draw(st.sampled_from(labels)) for s in _profiles(move_sets)}
    leaves = [("fix",), ("nonfix",)] + [("order", o) for o in permutations(labels)]
    specs = [draw(_goals(leaves)) for _ in range(n)]
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
    assert len(outcome_calls) == 2**13
    for p in game.players:
        # the others' votes leave the voter three contexts: A wins, B wins,
        # or the voter decides
        assert len(p.selection.seen) <= 3
        assert len(set(p.selection.seen)) == len(p.selection.seen)


def test_single_profile_walks_only_its_own_lines(outcome_calls):
    game = _counted_vote(25)
    row = evaluate_profile(game, ("A",) * 25)
    assert row.selection_eq and row.quantifier_eq
    assert len(outcome_calls) <= 2 * 25 + 1
    with pytest.raises(BudgetExceededError):
        enumerate_equilibria(game)
    assert len(outcome_calls) <= 2 * 25 + 1


def _counted_game(game):
    players = tuple(Player(p.name, p.moves, _Counted(p.selection)) for p in game.players)
    return Game(game.name, players, game.outcomes, game.outcome_fn)


def _line_contexts(game, i):
    """Player i's context on every deviation line, as value tuples (0-based i)."""
    moves = game.players[i].moves
    return {
        tuple(game.outcome(s[:i] + (x,) + s[i + 1 :]) for x in moves)
        for s in game.profiles()
    }


def _assert_one_goal_call_per_context(game):
    for i, p in enumerate(game.players):
        tables = [ctx.table for ctx in p.selection.seen]
        assert len(set(tables)) == len(tables)
        assert set(tables) == _line_contexts(game, i)


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


def test_payoff_matrix_values_are_exact():
    m = payoff_matrix("matching-pennies")
    assert m.payoff(("H", "H")) == (Fraction(1), Fraction(-1))
    assert m.payoff(("H", "T")) == (Fraction(-1), Fraction(1))


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
