"""Built-in goals and the law sweeps against references that compare values.

The goals choose moves by position and compare payoffs by level index, and
`is_closed` compares outcomes by their index in the codomain.  The
references here compare the values themselves, over atom, product and
vector spaces whose levels are negative, fractional, or integral ints and
`Fraction`s mixed.
"""

from fractions import Fraction
from itertools import product

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
    GameContext,
    Lifted,
    MoveSet,
    NonFix,
    NonFixProj,
    PreferenceOrder,
    Preimage,
    ProductOutcomes,
    SelectionFunction,
    TargetCoord,
    VectorOutcomes,
    attains,
    closure_of,
    enumerate_contexts,
    is_closed,
)
from oracles import argmax_coord_sel, attains_brute, closed_brute
from test_engine import _hog_goal, _oracle_goal
from test_laws import _Delegate, _digest, _oracle_digest

F = Fraction
LEVEL_POOL = (F(-3), F(-3, 2), F(-1, 3), F(0), F(1, 4), F(1), F(5, 3), F(2))


def _reference(goal, domain, table):
    """The moves `goal` picks on `table`, found by comparing values."""
    labels = domain.labels
    pairs = list(zip(labels, table))
    fallback = lambda chosen: tuple(chosen) or labels
    if isinstance(goal, ArgmaxOrder):
        ranking = goal.order.ranking
        best = min(ranking.index(v) for v in table)
        return tuple(x for x, v in pairs if v == ranking[best])
    if isinstance(goal, ArgmaxCoord):
        top = max(v[goal.coord - 1] for v in table)
        return tuple(x for x, v in pairs if v[goal.coord - 1] == top)
    if isinstance(goal, Fix):
        return fallback(x for x, v in pairs if v == x)
    if isinstance(goal, NonFix):
        return fallback(x for x, v in pairs if v != x)
    if isinstance(goal, FixProj):
        return fallback(x for x, v in pairs if v[goal.coord - 1] == x)
    if isinstance(goal, NonFixProj):
        return fallback(x for x, v in pairs if v[goal.coord - 1] != x)
    if isinstance(goal, TargetCoord):
        return tuple(x for x, v in pairs if v[goal.coord - 1] == goal.value)
    if isinstance(goal, Coord):
        return fallback(x for x, v in pairs if all(c == v[0] for c in v))
    if isinstance(goal, Preimage):
        inner = goal.quantifier.selection
        good = [v for x, v in pairs if x in _reference(inner, domain, table)]
        return tuple(x for x, v in pairs if v in good)
    raise AssertionError(goal)


def _as_written(level):
    """An integral level as a plain int, which the space must accept as is."""
    return int(level) if level.denominator == 1 else level


@st.composite
def _atom_cases(draw):
    values = draw(st.sampled_from([("A",), ("A", "B"), ("A", "B", "C")]))
    moves = MoveSet(draw(st.permutations(values)))
    space = AtomOutcomes(values)
    goals = [Fix(), NonFix(), ArgmaxOrder(PreferenceOrder(draw(st.permutations(values))))]
    table = tuple(draw(st.lists(st.sampled_from(values), min_size=len(moves),
                                max_size=len(moves))))
    return moves, space, goals, table


@st.composite
def _product_cases(draw):
    moves = MoveSet(("E", "G", "H")[: draw(st.integers(1, 3))])
    pick = st.sampled_from([("E",), ("E", "G"), ("G", "H"), ("E", "G", "H")])
    coords = [MoveSet(draw(pick)) for _ in range(draw(st.integers(1, 3)))]
    space = ProductOutcomes(coords)
    goals = [k(j) for k in (FixProj, NonFixProj) for j in range(1, len(coords) + 1)]
    goals += [TargetCoord(j, draw(st.sampled_from(c.labels)))
              for j, c in enumerate(coords, start=1)]
    if len(coords) >= 2:
        goals.append(Coord())
    values = list(space.iter_outcomes())
    goals.append(ArgmaxOrder(PreferenceOrder(draw(st.permutations(values)))))
    table = tuple(draw(st.lists(st.sampled_from(values), min_size=len(moves),
                                max_size=len(moves))))
    return moves, space, goals, table


@st.composite
def _vector_cases(draw):
    moves = MoveSet(("a", "b", "c", "d")[: draw(st.integers(1, 4))])
    dim = draw(st.integers(1, 3))
    levels = draw(st.lists(st.sampled_from(LEVEL_POOL), min_size=1, max_size=4, unique=True))
    # the space is built from ints where a level is integral, the context too
    space = VectorOutcomes(dim, tuple(draw(st.sampled_from([lv, _as_written(lv)]))
                                      for lv in levels))
    payoff = st.sampled_from(levels).flatmap(lambda lv: st.sampled_from([lv, _as_written(lv)]))
    table = tuple(tuple(draw(payoff) for _ in range(dim)) for _ in range(len(moves)))
    goals = [ArgmaxCoord(j) for j in range(1, dim + 1)]
    if space.size() <= 8:
        ranking = draw(st.permutations(list(space.iter_outcomes())))
        goals.append(ArgmaxOrder(PreferenceOrder(ranking)))
    return moves, space, goals, table


@settings(deadline=None, max_examples=300)
@given(case=st.one_of(_atom_cases(), _product_cases(), _vector_cases()))
def test_built_in_goals_pick_what_comparing_values_picks(case):
    moves, space, goals, table = case
    p = GameContext(moves, space, table)  # the public, validating constructor
    assert p.table == table
    for goal in goals + [closure_of(g) for g in goals]:
        assert goal(p) == _reference(goal, moves, table), goal


def test_a_payoff_written_as_an_int_scores_as_its_fraction_level():
    space = VectorOutcomes(2, (F(-1, 2), F(0), F(1), F(3, 2)))
    xs = MoveSet(("x", "y", "z"))
    # `1` and `F(1)` are the same level, and ties with it
    p = GameContext(xs, space, ((1, F(0)), (F(1), 1), (F(3, 2), F(-1, 2))))
    assert ArgmaxCoord(1)(p) == ("z",)
    assert ArgmaxCoord(2)(p) == ("y",)
    q = GameContext(xs, space, ((1, 0), (F(1), F(-1, 2)), (F(-1, 2), 0)))
    assert ArgmaxCoord(1)(q) == ("x", "y")
    assert ArgmaxCoord(2)(q) == ("x", "z")
    assert space.rank((1, 0)) == space.rank((F(1), F(0))) == 9
    assert (1, 0) in space and (F(1, 3), 0) not in space
    with pytest.raises(KeyError):
        space.rank((F(1, 3), 0))


# ---------------------------------------------------------------------------
# law sweeps over vector spaces with fractional levels
# ---------------------------------------------------------------------------


class _FirstBest(SelectionFunction):
    """The first move maximising coordinate `coord`: open wherever two
    moves tie for the best payoff."""

    def __init__(self, coord):
        self.coord = coord

    def __call__(self, p):
        return ArgmaxCoord(self.coord)(p)[:1]


def _first_best_brute(domain, coord):
    sel = argmax_coord_sel(coord)
    return lambda p: {min(sel(p), key=domain.index)}


@st.composite
def _vector_law_cases(draw):
    """(moves, space, its values in enumeration order, goal e, oracle e,
    goal f, oracle f), with goals drawn over fractional levels."""
    moves = MoveSet(("a", "b", "c")[: draw(st.integers(1, 3))])
    dim = draw(st.integers(1, 2))
    levels = sorted(draw(st.lists(st.sampled_from(LEVEL_POOL), min_size=1,
                                  max_size=3 if dim == 1 else 2, unique=True)))
    space = VectorOutcomes(dim, tuple(_as_written(lv) for lv in levels))
    values = tuple(product(levels, repeat=dim))
    domain = list(moves)

    def goal():
        spec = draw(st.sampled_from(
            [("argmaxcoord", j) for j in range(1, dim + 1)]
            + [("order", tuple(draw(st.permutations(values))))]
            + [("firstbest", j) for j in range(1, dim + 1)]
        ))
        if spec[0] == "firstbest":
            return _FirstBest(spec[1]), _first_best_brute(domain, spec[1])
        return _hog_goal(spec), _oracle_goal(spec)

    return (moves, space, values) + goal() + goal()


@settings(deadline=None, max_examples=150)
@given(case=_vector_law_cases())
def test_law_sweeps_over_fractional_levels_agree_with_the_oracle(case):
    moves, space, values, e, e_brute, f, f_brute = case
    domain = list(moves)
    assert _digest(is_closed(e, moves, space)) == _oracle_digest(
        domain, closed_brute(domain, values, e_brute)
    )
    lifted_e = lambda p: {p[x] for x in e_brute(p)}
    lifted_f = lambda p: {p[x] for x in f_brute(p)}
    for quantifier, brute in (
        (Lifted(e), lifted_e),
        (Lifted(f), lifted_f),
        (_Delegate(Lifted(f)), lifted_f),
    ):
        assert _digest(attains(e, quantifier, moves, space)) == _oracle_digest(
            domain, attains_brute(domain, values, e_brute, brute)
        )


def test_an_open_goal_over_fractional_levels_gives_the_first_witness():
    xs = MoveSet(("a", "b", "c"))
    space = VectorOutcomes(1, (F(-3, 2), 0, F(1, 4)))
    result = is_closed(_FirstBest(1), xs, space)
    assert not result
    w = result.witness
    assert (w.context.table, w.good_move, w.excluded_move) == (
        ((F(-3, 2),), (F(-3, 2),), (F(-3, 2),)), "a", "b"
    )


# ---------------------------------------------------------------------------
# one goal call per context; a non-move still raises
# ---------------------------------------------------------------------------


class _Counted(SelectionFunction):
    """A user goal that counts its calls and answers as `inner` does."""

    def __init__(self, inner):
        self.inner, self.calls = inner, 0

    def __call__(self, p):
        self.calls += 1
        return self.inner(p)


_SPACES = [
    (MoveSet(("A", "B", "C")), AtomOutcomes(("A", "B", "C")),
     ArgmaxOrder(PreferenceOrder(("C", "A", "B")))),
    (MoveSet(("E", "G")), ProductOutcomes((MoveSet(("E", "G")), MoveSet(("G", "H")))),
     closure_of(FixProj(1))),
    (MoveSet(("a", "b", "c")), VectorOutcomes(2, (F(-1, 2), 1, F(5, 3))), ArgmaxCoord(2)),
]


@pytest.mark.parametrize("moves, space, inner", _SPACES, ids=["atoms", "product", "vectors"])
def test_each_law_sweep_calls_a_user_goal_once_per_context(moves, space, inner):
    contexts = space.size() ** len(moves)
    assert contexts == sum(1 for _ in enumerate_contexts(moves, space))
    sweeps = [
        lambda e: is_closed(e, moves, space),
        lambda e: attains(e, Lifted(e), moves, space),
        lambda e: attains(e, _Delegate(Lifted(inner)), moves, space),
    ]
    for sweep in sweeps:
        e = _Counted(inner)
        assert sweep(e).holds  # a closed goal: no witness cuts a sweep short
        assert e.calls == contexts


class _AddsANonMove(SelectionFunction):
    """A user goal that answers as `inner` does, then names a non-move."""

    def __init__(self, inner):
        self.inner = inner

    def __call__(self, p):
        return self.inner(p) + ("nope",)


@pytest.mark.parametrize("moves, space, inner", _SPACES, ids=["atoms", "product", "vectors"])
def test_a_non_move_from_a_user_goal_raises_from_both_law_sweeps(moves, space, inner):
    e = _AddsANonMove(inner)
    with pytest.raises(ValueError):
        is_closed(e, moves, space)
    with pytest.raises(ValueError):
        attains(e, Lifted(e), moves, space)


def test_is_closed_checks_the_budget_before_it_indexes_the_codomain():
    # 10**12 outcomes: a pool of their indices would not fit in memory
    space = VectorOutcomes(12, tuple(range(10)))
    with pytest.raises(BudgetExceededError):
        is_closed(ArgmaxCoord(1), MoveSet(("a", "b")), space)
