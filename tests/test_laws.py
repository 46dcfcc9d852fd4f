"""Lift, closure, and attainment laws, checked over entire small spaces.

The battery below pairs every selection and quantifier constructor with a
space it is compatible with; each law is then checked on every context of
that space, so a pass here is a proof for those spaces, not a sample.
Hypothesis adds randomized lexicographic combinations on top.
"""

from itertools import permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from hog import (
    ArgmaxCoord,
    ArgmaxOrder,
    AtomOutcomes,
    ClosednessWitness,
    Coord,
    Fix,
    FixProj,
    FixQuantifier,
    GameContext,
    Lex,
    Lifted,
    MaxCoord,
    MaxOrder,
    MoveSet,
    NonFix,
    NonFixProj,
    PreferenceOrder,
    ProductOutcomes,
    TargetCoord,
    VectorOutcomes,
    attains,
    closure_of,
    enumerate_contexts,
    is_closed,
    lift_quantifier,
    lift_selection,
    tabulate,
)
from oracles import attains_brute, closed_brute
from test_engine import _goals, _hog_goal, _oracle_goal

AB = MoveSet(("A", "B"))
ABC = MoveSet(("A", "B", "C"))
ATOMS_AB = AtomOutcomes(("A", "B"))
ATOMS_ABC = AtomOutcomes(("A", "B", "C"))
BF = MoveSet(("B", "F"))
PROD_BF = ProductOutcomes((BF, BF))
PROD3_AB = ProductOutcomes((AB, AB, AB))
XY = MoveSet(("x", "y"))
VEC2 = VectorOutcomes(2, (0, 1))
VEC3 = VectorOutcomes(3, (0, 1))

PREFER_A = PreferenceOrder(("A", "B"))
PREFER_B = PreferenceOrder(("B", "A"))

SELECTIONS = [
    (AB, ATOMS_AB, ArgmaxOrder(PREFER_A)),
    (AB, ATOMS_AB, ArgmaxOrder(PREFER_B)),
    (AB, ATOMS_AB, Fix()),
    (AB, ATOMS_AB, NonFix()),
    (AB, ATOMS_AB, Lex(Fix(), NonFix())),
    (AB, ATOMS_AB, Lex(ArgmaxOrder(PREFER_A), Fix())),
    (AB, ATOMS_AB, tabulate(Fix(), AB, ATOMS_AB)),
    (AB, ATOMS_AB, closure_of(Fix())),
    (AB, ATOMS_AB, lift_quantifier(FixQuantifier())),
    (ABC, ATOMS_ABC, Fix()),
    (ABC, ATOMS_ABC, NonFix()),
    (ABC, ATOMS_ABC, ArgmaxOrder(PreferenceOrder(("B", "C", "A")))),
    (ABC, ATOMS_ABC, Lex(NonFix(), Fix())),
    (BF, PROD_BF, FixProj(1)),
    (BF, PROD_BF, FixProj(2)),
    (BF, PROD_BF, NonFixProj(1)),
    (BF, PROD_BF, NonFixProj(2)),
    (BF, PROD_BF, Coord()),
    (BF, PROD_BF, TargetCoord(1, "B")),
    (BF, PROD_BF, TargetCoord(2, "F")),
    (BF, PROD_BF, Lex(Coord(), TargetCoord(1, "B"))),
    (BF, PROD_BF, Lex(Coord(), TargetCoord(2, "F"))),
    (AB, PROD3_AB, FixProj(3)),
    (AB, PROD3_AB, NonFixProj(3)),
    (AB, PROD3_AB, Coord()),
    (AB, PROD3_AB, Lex(FixProj(3), TargetCoord(3, "A"))),
    (XY, VEC2, ArgmaxCoord(1)),
    (XY, VEC2, ArgmaxCoord(2)),
    (XY, VEC2, Lex(ArgmaxCoord(1), ArgmaxCoord(2))),
    (XY, VEC2, ArgmaxOrder(PreferenceOrder(VEC2.all_outcomes()))),
    (XY, VEC3, ArgmaxCoord(3)),
]

# MaxOrder, MaxCoord and FixQuantifier build Lifted goals, so each case
# carries the name it was built with for its test id
QUANTIFIERS = [
    ("MaxOrder", AB, ATOMS_AB, MaxOrder(PREFER_A)),
    ("MaxOrder", AB, ATOMS_AB, MaxOrder(PREFER_B)),
    ("FixQuantifier", AB, ATOMS_AB, FixQuantifier()),
    ("Lifted", AB, ATOMS_AB, Lifted(Fix())),
    ("Lifted", AB, ATOMS_AB, Lifted(NonFix())),
    ("FixQuantifier", ABC, ATOMS_ABC, FixQuantifier()),
    ("MaxOrder", ABC, ATOMS_ABC, MaxOrder(PreferenceOrder(("C", "A", "B")))),
    ("Lifted", BF, PROD_BF, Lifted(Coord())),
    ("Lifted", BF, PROD_BF, Lifted(TargetCoord(1, "B"))),
    ("MaxCoord", XY, VEC2, MaxCoord(1)),
    ("MaxCoord", XY, VEC2, MaxCoord(2)),
    ("MaxOrder", XY, VEC2, MaxOrder(PreferenceOrder(VEC2.all_outcomes()))),
    ("MaxCoord", XY, VEC3, MaxCoord(3)),
]


def _sel_id(case):
    domain, codomain, e = case
    return f"{type(e).__name__}-{type(codomain).__name__}{len(domain)}"


@pytest.mark.parametrize("case", SELECTIONS, ids=_sel_id)
def test_extensivity(case):
    domain, codomain, e = case
    closed_e = closure_of(e)
    for p in enumerate_contexts(domain, codomain):
        assert set(e(p)) <= set(closed_e(p))


@pytest.mark.parametrize("case", SELECTIONS, ids=_sel_id)
def test_closure_is_idempotent(case):
    domain, codomain, e = case
    once = closure_of(e)
    twice = closure_of(once)
    for p in enumerate_contexts(domain, codomain):
        assert once(p) == twice(p)


@pytest.mark.parametrize("case", SELECTIONS, ids=_sel_id)
def test_closedness_means_closure_changes_nothing(case):
    domain, codomain, e = case
    closed_e = closure_of(e)
    pointwise_equal = all(
        e(p) == closed_e(p) for p in enumerate_contexts(domain, codomain)
    )
    assert is_closed(e, domain, codomain).holds == pointwise_equal


@pytest.mark.parametrize("case", SELECTIONS, ids=_sel_id)
def test_chosen_moves_attain_the_lift(case):
    domain, codomain, e = case
    lifted = lift_selection(e)
    for p in enumerate_contexts(domain, codomain):
        good = set(lifted(p))
        for x in e(p):
            assert p(x) in good


def _quant_id(case):
    name, domain, codomain, _ = case
    return f"{name}-{type(codomain).__name__}{len(domain)}"


@pytest.mark.parametrize("case", QUANTIFIERS, ids=_quant_id)
def test_quantifier_survives_the_double_lift(case):
    _, domain, codomain, f = case
    back = lift_selection(lift_quantifier(f))
    for p in enumerate_contexts(domain, codomain):
        assert back(p) == f(p)


# ---------------------------------------------------------------------------
# randomized lexicographic combinations
# ---------------------------------------------------------------------------

_atom_leaves = st.sampled_from(
    [Fix(), NonFix(), ArgmaxOrder(PREFER_A), ArgmaxOrder(PREFER_B)]
)
_atom_sels = st.recursive(
    _atom_leaves, lambda inner: st.builds(Lex, inner, inner), max_leaves=4
)
_atom_contexts = st.builds(
    lambda a, b: GameContext(AB, ATOMS_AB, (a, b)),
    st.sampled_from("AB"),
    st.sampled_from("AB"),
)

_pair_values = st.tuples(st.sampled_from("BF"), st.sampled_from("BF"))
_prod_leaves = st.sampled_from(
    [FixProj(1), FixProj(2), NonFixProj(1), NonFixProj(2), Coord(),
     TargetCoord(1, "B"), TargetCoord(2, "F")]
)
_prod_sels = st.recursive(
    _prod_leaves, lambda inner: st.builds(Lex, inner, inner), max_leaves=4
)
_prod_contexts = st.builds(
    lambda a, b: GameContext(BF, PROD_BF, (a, b)), _pair_values, _pair_values
)


@given(e=_atom_sels, p=_atom_contexts)
def test_random_atom_goals_obey_the_laws(e, p):
    closed_e = closure_of(e)
    assert set(e(p)) <= set(closed_e(p))
    good = set(lift_selection(e)(p))
    assert all(p(x) in good for x in e(p))
    assert closed_e(p) == closure_of(closed_e)(p)


@given(e=_prod_sels, p=_prod_contexts)
def test_random_pair_goals_obey_the_laws(e, p):
    closed_e = closure_of(e)
    assert set(e(p)) <= set(closed_e(p))
    good = set(lift_selection(e)(p))
    assert all(p(x) in good for x in e(p))


@given(p=_atom_contexts)
def test_lift_of_fix_equals_fix_quantifier(p):
    assert lift_selection(Fix())(p) == FixQuantifier()(p)


# ---------------------------------------------------------------------------
# the law checks against brute-force oracles
# ---------------------------------------------------------------------------
# Goals are drawn as specs and built twice, from hog's constructors and from
# the oracle's closures over dicts; the oracle sweeps the same values in the
# same order, so the first witness must be the same context and moves.


@st.composite
def _law_cases(draw):
    """(moves, space, the space's values in enumeration order, two goal specs)."""
    kind = draw(st.sampled_from(["atoms", "product", "vectors"]))
    extra = None
    if kind == "atoms":
        values = draw(st.sampled_from([("A",), ("A", "B"), ("A", "B", "C")]))
        moves = MoveSet(draw(st.permutations(values)))
        space = AtomOutcomes(values)
        leaves = [("fix",), ("nonfix",)] + [("order", o) for o in permutations(values)]
    elif kind == "product":
        moves = MoveSet(("E", "G", "H")[: draw(st.integers(1, 3))])
        pick = st.sampled_from([("E",), ("E", "G"), ("G", "H")])
        coords = [MoveSet(draw(pick)) for _ in range(draw(st.integers(1, 2)))]
        space = ProductOutcomes(coords)
        values = tuple(product(*(c.labels for c in coords)))
        n = len(coords)
        leaves = [(k, j) for k in ("fixproj", "nonfixproj") for j in range(1, n + 1)]
        if n == 2:
            leaves.append(("coord",))
        extra = [("target", j, x) for j, c in enumerate(coords, start=1) for x in c]
    else:
        moves = MoveSet(("a", "b", "c")[: draw(st.integers(1, 3))])
        dim = draw(st.integers(1, 2))
        levels = (0, 1, 2) if dim == 1 else (0, 1)
        space = VectorOutcomes(dim, levels)
        values = tuple(product(levels, repeat=dim))
        leaves = [("argmaxcoord", j) for j in range(1, dim + 1)]
        leaves.append(("order", tuple(draw(st.permutations(values)))))
    goals = _goals(leaves, extra)
    return moves, space, values, draw(goals), draw(goals)


def _digest(result):
    w = result.witness
    if w is None:
        return result.holds, None
    if isinstance(w, ClosednessWitness):
        return result.holds, (w.context.table, w.good_move, w.excluded_move)
    return result.holds, (w.context.table, w.move)


def _oracle_digest(domain, found):
    if found is None:
        return True, None
    p, *moves = found
    return False, (tuple(p[x] for x in domain), *moves)


@settings(deadline=None)
@given(case=_law_cases())
def test_law_checks_agree_with_the_oracles_witness_for_witness(case):
    moves, space, values, e_spec, f_spec = case
    e, e_brute = _hog_goal(e_spec), _oracle_goal(e_spec)
    f, f_brute = _hog_goal(f_spec), _oracle_goal(f_spec)
    domain = list(moves)
    assert _digest(is_closed(e, moves, space)) == _oracle_digest(
        domain, closed_brute(domain, values, e_brute)
    )
    lifted_f = lambda p: {p[x] for x in f_brute(p)}
    assert _digest(attains(e, Lifted(f), moves, space)) == _oracle_digest(
        domain, attains_brute(domain, values, e_brute, lifted_f)
    )
