"""Pointwise semantics of contexts, selection functions, and quantifiers."""

import dataclasses
import os
import subprocess
import sys
import types
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

import hog
from hog import (
    ArgmaxCoord,
    ArgmaxOrder,
    AtomOutcomes,
    AttainmentWitness,
    BudgetExceededError,
    ClosednessWitness,
    Coord,
    CoordinateOutOfRangeError,
    Fix,
    FixProj,
    FixQuantifier,
    GameContext,
    IncompleteOrderError,
    Lex,
    Lifted,
    MaxCoord,
    MaxOrder,
    MoveSet,
    NonFix,
    NonFixProj,
    PreferenceOrder,
    Preimage,
    ProductOutcomes,
    Quantifier,
    SelectionFunction,
    TableSelection,
    TargetCoord,
    TypeMismatchError,
    VectorOutcomes,
    attains,
    check_shape,
    closure_of,
    enumerate_contexts,
    is_closed,
    lift_quantifier,
    lift_selection,
    may_be_empty,
    projection,
    tabulate,
)
from oracles import fixq_quant, max_coord_quant, max_order_quant
from test_engine import _PicksNonMove
from test_laws import SELECTIONS, _Delegate

AB = MoveSet(("A", "B"))
ABC = MoveSet(("A", "B", "C"))
ATOMS_AB = AtomOutcomes(("A", "B"))
ATOMS_ABC = AtomOutcomes(("A", "B", "C"))
EG = MoveSet(("E", "G"))
PROD_EG = ProductOutcomes((EG, EG))
BF = MoveSet(("B", "F"))
PROD_BF = ProductOutcomes((BF, BF))

PREFER_A = PreferenceOrder(("A", "B"))  # A best
PREFER_B = PreferenceOrder(("B", "A"))


def ctx(domain, codomain, mapping):
    return GameContext(domain, codomain, mapping)


# ---------------------------------------------------------------------------
# contexts and spaces
# ---------------------------------------------------------------------------


def test_image_identity_constant_and_collapse():
    assert ctx(AB, ATOMS_AB, {"A": "A", "B": "B"}).image() == ("A", "B")
    assert ctx(AB, ATOMS_AB, {"A": "A", "B": "A"}).image() == ("A",)
    abc = MoveSet(("a", "b", "c"))
    rr = AtomOutcomes(("r1", "r2"))
    assert ctx(abc, rr, {"a": "r1", "b": "r1", "c": "r2"}).image() == ("r1", "r2")


def test_context_rejects_missing_and_foreign_values():
    with pytest.raises(ValueError):
        ctx(AB, ATOMS_AB, {"A": "A"})
    with pytest.raises(ValueError):
        ctx(AB, ATOMS_AB, {"A": "A", "B": "C"})
    with pytest.raises(ValueError):
        GameContext(AB, ATOMS_AB, ("A",))


def test_context_call_and_table_alignment():
    p = GameContext(AB, ATOMS_AB, ("B", "A"))
    assert p("A") == "B" and p("B") == "A"
    assert p.as_dict() == {"A": "B", "B": "A"}


def _raised(call):
    with pytest.raises(Exception) as err:
        call()
    return type(err.value), str(err.value)


def test_direct_calls_keep_their_error_contracts():
    # what each lookup raises without a Game in front to validate first
    p = GameContext(AB, ATOMS_AB, ("A", "B"))
    not_in_tuple = _raised(lambda: ("A", "B").index("Z"))
    assert not_in_tuple[0] is ValueError
    assert _raised(lambda: p("Z")) == not_in_tuple
    assert _raised(lambda: AB.index("Z")) == not_in_tuple
    assert _raised(lambda: AB.index(["A"])) == not_in_tuple
    assert _raised(lambda: ATOMS_AB.rank("Z")) == not_in_tuple
    # a value that cannot hash is in no space and ranks nowhere
    assert ["A"] not in AB and ["A"] not in ATOMS_AB
    assert (["E"], "G") not in PROD_EG and ("E", ["G"]) not in PROD_EG
    assert _raised(lambda: PROD_EG.rank((["E"], "G"))) == not_in_tuple
    # a tuple of the wrong length ranks nowhere either
    assert _raised(lambda: PROD_EG.rank(("E",)))[0] is ValueError
    assert _raised(lambda: PROD_EG.rank(("E", "G", "G")))[0] is ValueError
    unranked = (IncompleteOrderError, "order does not rank 'B'")
    only_a = PreferenceOrder(("A",))
    assert _raised(lambda: ArgmaxOrder(only_a)(p)) == unranked
    assert _raised(lambda: MaxOrder(only_a)(p)) == unranked
    assert _raised(lambda: only_a.position(["A"])) == (
        IncompleteOrderError, "order does not rank ['A']"
    )
    vec = GameContext(MoveSet(("a", "b")), VectorOutcomes(2, (0, 1)), ((1, 0), (0, 1)))
    pair = GameContext(EG, PROD_EG, (("E", "G"), ("G", "G")))
    assert _raised(lambda: ArgmaxCoord(1)(p)) == (
        TypeMismatchError, "argmax over a coordinate needs vector outcomes"
    )
    assert _raised(lambda: ArgmaxCoord(3)(vec)) == (
        CoordinateOutOfRangeError, "coordinate 3 out of range 1..2"
    )
    assert _raised(lambda: Fix()(pair)) == (
        TypeMismatchError,
        "fixpoint selection needs atom outcomes matching the moves exactly",
    )
    assert _raised(lambda: FixProj(1)(p)) == (
        TypeMismatchError, "coordinate selection needs a product outcome space"
    )
    assert _raised(lambda: FixProj(3)(pair)) == (
        CoordinateOutOfRangeError, "coordinate 3 out of range 1..2"
    )


def test_move_set_invariants():
    # emptiness, repeats and lookups: test_label_sets_keep_their_contract
    assert list(MoveSet(("C", "A"))) == ["C", "A"]  # declaration order kept


def test_outcome_space_invariants():
    with pytest.raises(ValueError):
        VectorOutcomes(0, (0, 1))
    with pytest.raises(ValueError):
        VectorOutcomes(2, (1, 1))
    with pytest.raises(ValueError, match="vector outcomes need at least one level"):
        VectorOutcomes(2, ())
    with pytest.raises(ValueError):
        ProductOutcomes(())


# the two ordered label sets: (class, its lookup, the other's lookup, empty message, noun)
_LABEL_SETS = {
    "MoveSet": (MoveSet, "index", "rank", "a move set needs at least one move", "move"),
    "AtomOutcomes": (
        AtomOutcomes, "rank", "index", "an outcome space needs at least one value", "outcome"
    ),
}


@pytest.mark.parametrize(
    "cls, lookup, other, empty, noun", _LABEL_SETS.values(), ids=_LABEL_SETS
)
def test_label_sets_keep_their_contract(cls, lookup, other, empty, noun):
    assert _raised(lambda: cls(())) == (ValueError, empty)
    assert _raised(lambda: cls(("A", "A"))) == (
        ValueError, f"duplicate {noun} labels in ('A', 'A')"
    )
    s = cls(["A", "B"])
    assert type(s.labels) is tuple and s.labels == ("A", "B")
    assert repr(s) == f"{cls.__name__}(labels=('A', 'B'))"
    assert s == cls(("A", "B")) and hash(s) == hash(cls(("A", "B")))
    assert s != cls(("B", "A"))
    with pytest.raises(dataclasses.FrozenInstanceError):
        s.labels = ("B",)
    assert [f.name for f in dataclasses.fields(cls)] == ["labels"]
    # a lookup reads the position; a miss raises what tuple.index raises
    find = getattr(s, lookup)
    assert (find("A"), find("B")) == (0, 1)
    for stranger in ("Z", ["A"]):
        assert _raised(lambda: find(stranger)) == _raised(lambda: s.labels.index(stranger))
        assert stranger not in s
    assert not hasattr(cls, other)


def test_label_sets_differ_across_classes_and_in_what_they_hold():
    labels = ("A", "B")
    assert MoveSet(labels) != AtomOutcomes(labels)
    assert AtomOutcomes(labels) != MoveSet(labels)

    class LooksLikeA:  # hashes and compares equal to "A", but is no str
        def __hash__(self):
            return hash("A")

        def __eq__(self, other):
            return other == "A"

    assert LooksLikeA() in MoveSet(labels)
    assert LooksLikeA() not in AtomOutcomes(labels)
    assert 1 not in AtomOutcomes(labels)


def test_projection_is_one_based_and_guarded():
    assert projection(PROD_EG, ("E", "G"), 1) == "E"
    assert projection(PROD_EG, ("E", "G"), 2) == "G"
    with pytest.raises(CoordinateOutOfRangeError):
        projection(PROD_EG, ("E", "G"), 3)
    with pytest.raises(CoordinateOutOfRangeError):
        projection(PROD_EG, ("E", "G"), 0)
    with pytest.raises(TypeMismatchError):
        projection(ATOMS_AB, "A", 1)


def test_vector_levels_are_exact_rationals():
    space = VectorOutcomes(2, (Fraction(1, 3), Fraction(1, 2)))
    assert (Fraction(2, 6), Fraction(1, 2)) in space
    assert (0.5, 0.5) not in space
    p = ctx(
        MoveSet(("a", "b")),
        space,
        {"a": (Fraction(1, 3), Fraction(1, 3)), "b": (Fraction(1, 2), Fraction(1, 3))},
    )
    assert ArgmaxCoord(1)(p) == ("b",)


def test_enumerate_contexts_order_count_and_budget():
    ps = list(enumerate_contexts(AB, ATOMS_AB))
    assert len(ps) == 4
    assert [p.table for p in ps] == [
        ("A", "A"),
        ("A", "B"),
        ("B", "A"),
        ("B", "B"),
    ]
    with pytest.raises(BudgetExceededError):
        list(enumerate_contexts(AB, ATOMS_AB, max_contexts=3))


# ---------------------------------------------------------------------------
# selection functions
# ---------------------------------------------------------------------------


def test_fix_picks_fixpoints_and_falls_back():
    assert Fix()(ctx(AB, ATOMS_AB, {"A": "A", "B": "A"})) == ("A",)
    assert Fix()(ctx(AB, ATOMS_AB, {"A": "B", "B": "A"})) == ("A", "B")


def test_fix_requires_matching_atoms():
    with pytest.raises(TypeMismatchError):
        Fix()(ctx(AB, ATOMS_ABC, {"A": "A", "B": "C"}))
    with pytest.raises(TypeMismatchError):
        Fix()(ctx(MoveSet(("a", "b")), PROD_EG, {"a": ("E", "E"), "b": ("E", "G")}))


def test_nonfix_picks_movers_and_falls_back():
    assert NonFix()(ctx(AB, ATOMS_AB, {"A": "A", "B": "B"})) == ("A", "B")
    assert NonFix()(ctx(AB, ATOMS_AB, {"A": "A", "B": "A"})) == ("B",)


def test_argmax_order_examples():
    ident = ctx(AB, ATOMS_AB, {"A": "A", "B": "B"})
    assert ArgmaxOrder(PREFER_A)(ident) == ("A",)
    assert ArgmaxOrder(PREFER_B)(ident) == ("B",)
    const_b = ctx(AB, ATOMS_AB, {"A": "B", "B": "B"})
    assert ArgmaxOrder(PREFER_A)(const_b) == ("A", "B")


def test_argmax_order_needs_complete_ranking():
    incomplete = PreferenceOrder(("A",))
    with pytest.raises(IncompleteOrderError):
        ArgmaxOrder(incomplete)(ctx(AB, ATOMS_AB, {"A": "A", "B": "B"}))


def test_argmax_coord_examples():
    mv = MoveSet(("a", "b"))
    space = VectorOutcomes(2, (0, 1, 9))
    p = ctx(mv, space, {"a": (1, 0), "b": (0, 1)})
    assert ArgmaxCoord(1)(p) == ("a",)
    assert ArgmaxCoord(2)(p) == ("b",)
    tie = ctx(mv, space, {"a": (1, 0), "b": (1, 9)})
    assert ArgmaxCoord(1)(tie) == ("a", "b")


def test_argmax_coord_guards():
    mv = MoveSet(("a", "b"))
    space = VectorOutcomes(2, (0, 1))
    p = ctx(mv, space, {"a": (1, 0), "b": (0, 1)})
    with pytest.raises(CoordinateOutOfRangeError):
        ArgmaxCoord(3)(p)
    with pytest.raises(TypeMismatchError):
        ArgmaxCoord(1)(ctx(AB, ATOMS_AB, {"A": "A", "B": "B"}))


def test_fixproj_follows_the_named_coordinate():
    p = ctx(EG, PROD_EG, {"E": ("E", "G"), "G": ("G", "G")})
    assert FixProj(2)(p) == ("G",)
    assert NonFixProj(2)(p) == ("E",)
    everywhere = ctx(EG, PROD_EG, {"E": ("E", "E"), "G": ("G", "G")})
    assert FixProj(1)(everywhere) == ("E", "G")
    assert NonFixProj(1)(everywhere) == ("E", "G")  # fallback


def test_proj_selection_guards():
    p = ctx(EG, PROD_EG, {"E": ("E", "G"), "G": ("G", "G")})
    with pytest.raises(CoordinateOutOfRangeError):
        FixProj(3)(p)
    with pytest.raises(TypeMismatchError):
        FixProj(1)(ctx(AB, ATOMS_AB, {"A": "A", "B": "B"}))


def test_coord_and_target_examples():
    p = ctx(BF, PROD_BF, {"B": ("B", "B"), "F": ("F", "B")})
    assert Coord()(p) == ("B",)
    assert TargetCoord(1, "B")(p) == ("B",)
    const = ctx(BF, PROD_BF, {"B": ("B", "B"), "F": ("B", "B")})
    assert TargetCoord(2, "F")(const) == ()  # empty is allowed here
    uncoordinated = ctx(BF, PROD_BF, {"B": ("B", "F"), "F": ("F", "B")})
    assert Coord()(uncoordinated) == ("B", "F")  # fallback


def test_coord_guards():
    with pytest.raises(TypeMismatchError):
        Coord()(ctx(AB, ATOMS_AB, {"A": "A", "B": "B"}))
    one = ProductOutcomes((BF,))
    with pytest.raises(TypeMismatchError):
        Coord()(ctx(BF, one, {"B": ("B",), "F": ("F",)}))


def test_lex_prefers_intersection_then_primary():
    wife = Lex(Coord(), TargetCoord(1, "B"))
    husband_plays_b = ctx(BF, PROD_BF, {"B": ("B", "B"), "F": ("F", "B")})
    assert wife(husband_plays_b) == ("B",)
    husband_plays_f = ctx(BF, PROD_BF, {"B": ("B", "F"), "F": ("F", "F")})
    assert wife(husband_plays_f) == ("F",)


def test_lex_is_idempotent_and_total():
    for p in enumerate_contexts(AB, ATOMS_AB):
        assert Lex(Fix(), Fix())(p) == Fix()(p)
    # both parts empty: every move goes
    both_empty = Lex(TargetCoord(1, "B"), TargetCoord(2, "F"))
    const = ctx(BF, PROD_BF, {"B": ("F", "B"), "F": ("F", "B")})
    assert both_empty(const) == ("B", "F")


def test_table_selection_lookup():
    table = tabulate(Fix(), AB, ATOMS_AB)
    p = ctx(AB, ATOMS_AB, {"A": "A", "B": "A"})
    assert table(p) == Fix()(p)
    foreign = ctx(ABC, ATOMS_ABC, {"A": "A", "B": "A", "C": "A"})
    with pytest.raises(TypeMismatchError):
        table(foreign)


def test_results_follow_move_declaration_order():
    ba = MoveSet(("B", "A"))
    atoms_ba = AtomOutcomes(("B", "A"))
    p = ctx(ba, atoms_ba, {"B": "B", "A": "A"})
    assert Fix()(p) == ("B", "A")


# ---------------------------------------------------------------------------
# quantifiers
# ---------------------------------------------------------------------------


def test_max_order_returns_best_attained_outcome():
    assert MaxOrder(PREFER_A)(ctx(AB, ATOMS_AB, {"A": "B", "B": "B"})) == ("B",)
    assert MaxOrder(PREFER_A)(ctx(AB, ATOMS_AB, {"A": "A", "B": "B"})) == ("A",)


def test_max_coord_keeps_all_tying_outcomes():
    mv = MoveSet(("a", "b"))
    space = VectorOutcomes(2, (0, 1, 3, 9))
    assert MaxCoord(1)(ctx(mv, space, {"a": (3, 0), "b": (1, 9)})) == ((3, 0),)
    tie = ctx(mv, space, {"a": (1, 0), "b": (1, 9)})
    assert MaxCoord(1)(tie) == ((1, 0), (1, 9))


def test_fix_quantifier_mirrors_fix_through_the_context():
    fq = FixQuantifier()
    assert fq(ctx(AB, ATOMS_AB, {"A": "A", "B": "A"})) == ("A",)
    assert fq(ctx(AB, ATOMS_AB, {"A": "B", "B": "A"})) == ("A", "B")


def test_lifted_collects_outcomes_of_chosen_moves():
    assert Lifted(Fix())(ctx(AB, ATOMS_AB, {"A": "A", "B": "A"})) == ("A",)


def test_quantifier_results_nonempty_and_within_image():
    for p in enumerate_contexts(AB, ATOMS_AB):
        for f in (MaxOrder(PREFER_A), FixQuantifier(), Lifted(NonFix())):
            got = f(p)
            assert got
            assert set(got) <= set(p.image())


def test_quantifiers_match_their_oracles_on_every_context():
    xy = MoveSet(("x", "y"))
    vec2 = VectorOutcomes(2, (0, Fraction(1, 2), 1))
    vec3 = VectorOutcomes(3, (0, 1))
    worst_first = tuple(reversed(vec2.all_outcomes()))
    cases = [
        (AB, ATOMS_AB, MaxOrder(PREFER_A), max_order_quant(("A", "B"))),
        (AB, ATOMS_AB, MaxOrder(PREFER_B), max_order_quant(("B", "A"))),
        (ABC, ATOMS_ABC, MaxOrder(PreferenceOrder(("C", "A", "B"))),
         max_order_quant(("C", "A", "B"))),
        (xy, vec2, MaxOrder(PreferenceOrder(worst_first)), max_order_quant(worst_first)),
        (AB, ATOMS_AB, FixQuantifier(), fixq_quant),
        (ABC, ATOMS_ABC, FixQuantifier(), fixq_quant),
        (xy, vec2, MaxCoord(1), max_coord_quant(1)),
        (xy, vec2, MaxCoord(2), max_coord_quant(2)),
        (ABC, vec3, MaxCoord(3), max_coord_quant(3)),
    ]
    for domain, codomain, f, oracle in cases:
        canonical = codomain.all_outcomes()
        for values in product(canonical, repeat=len(domain)):
            p = GameContext(domain, codomain, values)
            good = oracle(dict(zip(domain.labels, values)))
            assert f(p) == tuple(v for v in canonical if v in good), (f, values)


# ---------------------------------------------------------------------------
# lifts and closure
# ---------------------------------------------------------------------------


def test_lift_selection_examples():
    assert lift_selection(Fix())(ctx(AB, ATOMS_AB, {"A": "A", "B": "A"})) == ("A",)
    const_b = ctx(AB, ATOMS_AB, {"A": "B", "B": "B"})
    assert lift_selection(ArgmaxOrder(PREFER_A))(const_b) == ("B",)
    const_a = ctx(AB, ATOMS_AB, {"A": "A", "B": "A"})
    assert lift_selection(NonFix())(const_a) == ("A",)


def test_lift_quantifier_examples():
    assert lift_quantifier(MaxOrder(PREFER_A))(
        ctx(AB, ATOMS_AB, {"A": "A", "B": "B"})
    ) == ("A",)
    assert lift_quantifier(FixQuantifier())(
        ctx(AB, ATOMS_AB, {"A": "A", "B": "A"})
    ) == ("A", "B")
    mv = MoveSet(("a", "b"))
    space = VectorOutcomes(2, (0, 1, 9))
    tie = ctx(mv, space, {"a": (1, 0), "b": (1, 9)})
    assert lift_quantifier(MaxCoord(1))(tie) == ("a", "b")


def test_closure_widens_fix_to_outcome_equivalence():
    assert closure_of(Fix())(ctx(AB, ATOMS_AB, {"A": "A", "B": "A"})) == ("A", "B")


def test_closure_fixes_argmax():
    e = ArgmaxOrder(PREFER_A)
    for p in enumerate_contexts(AB, ATOMS_AB):
        assert closure_of(e)(p) == e(p)


def test_closure_reads_its_lift_without_sorting_it(monkeypatch):
    p = ctx(AB, ATOMS_AB, {"A": "A", "B": "A"})
    not_a_move = _raised(lambda: p("Z"))
    monkeypatch.setattr(Lifted, "__call__", lambda self, p: pytest.fail("sorted the lift"))
    assert closure_of(Fix())(p) == ("A", "B")
    assert _raised(lambda: closure_of(_PicksNonMove())(p)) == not_a_move
    # any other quantifier is still asked for its outcomes
    assert Preimage(_Delegate(lambda p: ("A",)))(p) == ("A", "B")
    assert Preimage(_Delegate(lambda p: ()))(p) == ()


def test_palette_is_total_except_target():
    candidates = [
        ArgmaxOrder(PREFER_A),
        Fix(),
        NonFix(),
        Lex(Fix(), NonFix()),
        closure_of(Fix()),
    ]
    for p in enumerate_contexts(AB, ATOMS_AB):
        for e in candidates:
            assert e(p), (e, p.table)
    assert may_be_empty(TargetCoord(1, "B"))
    assert not may_be_empty(Lex(Coord(), TargetCoord(1, "B")))


# ---------------------------------------------------------------------------
# law checkers
# ---------------------------------------------------------------------------


def test_is_closed_accepts_argmax_coord():
    mv = MoveSet(("a", "b"))
    space = VectorOutcomes(2, (0, 1))
    assert is_closed(ArgmaxCoord(1), mv, space).holds


def test_is_closed_rejects_fix_with_first_witness():
    result = is_closed(Fix(), AB, ATOMS_AB)
    assert not result
    assert result.witness == ClosednessWitness(
        GameContext(AB, ATOMS_AB, ("A", "A")), "A", "B"
    )


def test_is_closed_accepts_tabulated_closure():
    table = tabulate(closure_of(Fix()), AB, ATOMS_AB)
    assert is_closed(table, AB, ATOMS_AB).holds


def test_attains_argmax_and_fix():
    assert attains(ArgmaxOrder(PREFER_A), MaxOrder(PREFER_A), AB, ATOMS_AB).holds
    assert attains(Fix(), FixQuantifier(), AB, ATOMS_AB).holds
    assert attains(Fix(), FixQuantifier(), ABC, ATOMS_ABC).holds


def test_nonfix_attains_fixq_only_on_two_moves():
    # with two moves a non-fixpoint move always lands on a fixpoint, or the
    # context has no fixpoints at all and both sides fall back; a third move
    # breaks this
    assert attains(NonFix(), FixQuantifier(), AB, ATOMS_AB).holds
    result = attains(NonFix(), FixQuantifier(), ABC, ATOMS_ABC)
    assert not result
    assert result.witness == AttainmentWitness(
        GameContext(ABC, ATOMS_ABC, ("A", "A", "B")), "C"
    )


def test_law_checks_respect_budget():
    with pytest.raises(BudgetExceededError):
        is_closed(Fix(), AB, ATOMS_AB, max_contexts=3)
    with pytest.raises(BudgetExceededError):
        attains(Fix(), FixQuantifier(), AB, ATOMS_AB, max_contexts=3)


class _Logged(SelectionFunction):
    """Wraps a goal and logs (name, context table) into a shared list per call."""

    def __init__(self, name, inner, log):
        self.name, self.inner, self.log = name, inner, log

    def __call__(self, p):
        self.log.append((self.name, p.table))
        return self.inner(p)


def _tables(domain, codomain):
    return [p.table for p in enumerate_contexts(domain, codomain)]


def test_attains_calls_a_goal_it_lifts_once_per_context():
    log = []
    e = _Logged("e", Lex(NonFix(), Fix()), log)
    assert attains(e, lift_selection(e), ABC, ATOMS_ABC).holds
    assert log == [("e", t) for t in _tables(ABC, ATOMS_ABC)]
    assert len(log) == 3**3


def test_attains_calls_the_lifted_selection_then_the_goal_per_context():
    log = []
    e, s = _Logged("e", Fix(), log), _Logged("s", Fix(), log)
    assert attains(e, Lifted(s), ABC, ATOMS_ABC).holds
    assert log == [(name, t) for t in _tables(ABC, ATOMS_ABC) for name in "se"]
    # a failing sweep keeps the order and stops at its witness context
    log.clear()
    e, s = _Logged("e", NonFix(), log), _Logged("s", Fix(), log)
    result = attains(e, Lifted(s), ABC, ATOMS_ABC)
    assert not result
    tables = _tables(ABC, ATOMS_ABC)
    upto = tables[: tables.index(result.witness.context.table) + 1]
    assert log == [(name, t) for t in upto for name in "se"]


def test_attains_looks_up_every_chosen_move_under_any_quantifier():
    # a goal that picks a non-move fails the same lookup `p(x)` does, also
    # under its own lift, where the outcomes of chosen moves need no test
    e = _PicksNonMove()
    not_a_move = _raised(lambda: GameContext(AB, ATOMS_AB, ("A", "B"))("Z"))
    assert not_a_move[0] is ValueError
    assert _raised(lambda: attains(e, lift_selection(e), AB, ATOMS_AB)) == not_a_move
    assert _raised(lambda: attains(e, Lifted(Fix()), AB, ATOMS_AB)) == not_a_move


class _Picks(SelectionFunction):
    """A user goal that picks the same moves, or non-moves, in every context."""

    def __init__(self, chosen):
        self.chosen = chosen

    def __call__(self, p):
        return self.chosen


def test_attains_under_its_own_lift_checks_an_unhashable_choice_move_by_move():
    e = _Picks(("A", ["A"]))
    not_a_move = _raised(lambda: GameContext(AB, ATOMS_AB, ("A", "B"))(["A"]))
    assert not_a_move[0] is ValueError
    assert _raised(lambda: attains(e, lift_selection(e), AB, ATOMS_AB)) == not_a_move
    # moves pass whatever container holds them
    for chosen in (("B", "A"), ["A"], ()):
        e = _Picks(chosen)
        assert attains(e, lift_selection(e), AB, ATOMS_AB).holds


def test_is_closed_calls_the_goal_once_per_context_up_to_the_witness():
    log = []
    tables = _tables(ABC, ATOMS_ABC)
    closed = ArgmaxOrder(PreferenceOrder(("B", "C", "A")))
    assert is_closed(_Logged("e", closed, log), ABC, ATOMS_ABC).holds
    assert log == [("e", t) for t in tables]
    log.clear()
    result = is_closed(_Logged("e", Fix(), log), ABC, ATOMS_ABC)
    assert not result
    upto = tables[: tables.index(result.witness.context.table) + 1]
    assert log == [("e", t) for t in upto] and len(upto) < len(tables)


def test_attainment_by_construction():
    # `hog analyze` reports AttainsLift without a sweep because of this law,
    # so it is checked on every goal form of the law battery
    for e in (Fix(), NonFix(), ArgmaxOrder(PREFER_B), Lex(NonFix(), Fix())):
        assert attains(e, lift_selection(e), AB, ATOMS_AB).holds
    for domain, codomain, e in SELECTIONS:
        assert attains(e, lift_selection(e), domain, codomain).holds


# ---------------------------------------------------------------------------
# static shape checking
# ---------------------------------------------------------------------------


def test_check_shape_accepts_compatible_pairs():
    check_shape(Fix(), AB, ATOMS_AB)
    check_shape(ArgmaxOrder(PREFER_A), AB, ATOMS_AB)
    check_shape(Coord(), BF, PROD_BF)
    check_shape(Lex(Coord(), TargetCoord(2, "F")), BF, PROD_BF)
    check_shape(ArgmaxCoord(2), MoveSet(("a", "b")), VectorOutcomes(2, (0, 1)))
    check_shape(MaxOrder(PREFER_A), AB, ATOMS_AB)


def test_check_shape_rejects_incompatible_pairs():
    with pytest.raises(TypeMismatchError):
        check_shape(Fix(), AB, ATOMS_ABC)
    with pytest.raises(TypeMismatchError):
        check_shape(Coord(), AB, ATOMS_AB)
    with pytest.raises(CoordinateOutOfRangeError):
        check_shape(FixProj(3), BF, PROD_BF)
    with pytest.raises(CoordinateOutOfRangeError):
        check_shape(ArgmaxCoord(3), MoveSet(("a", "b")), VectorOutcomes(2, (0, 1)))
    with pytest.raises(IncompleteOrderError):
        check_shape(ArgmaxOrder(PreferenceOrder(("A",))), AB, ATOMS_AB)
    with pytest.raises(TypeMismatchError):
        check_shape(ArgmaxOrder(PreferenceOrder(("A", "B", "C"))), AB, ATOMS_AB)
    with pytest.raises(TypeMismatchError):
        check_shape(Lex(Fix(), Coord()), AB, ATOMS_AB)
    row = next(enumerate_contexts(AB, ATOMS_AB))
    with pytest.raises(TypeMismatchError, match="row built over different spaces"):
        check_shape(TableSelection(((row, ("A",)),)), AB, ATOMS_ABC)
    with pytest.raises(TypeMismatchError, match="picks unknown move 'C'"):
        check_shape(TableSelection(((row, ("C",)),)), AB, ATOMS_AB)
    with pytest.raises(TypeError, match="not a selection function or quantifier"):
        check_shape(lambda p: p.domain.labels, AB, ATOMS_AB)


def test_check_shape_rejects_a_table_selection_that_misses_contexts():
    first = next(enumerate_contexts(BF, PROD_BF))
    with pytest.raises(TypeMismatchError) as err:
        check_shape(TableSelection(((first, ("B",)),)), BF, PROD_BF)
    assert str(err.value) == "table selection has rows for 1 of 16 contexts"
    for domain, codomain, e in SELECTIONS:
        check_shape(tabulate(e, domain, codomain), domain, codomain)


def test_may_be_empty_sees_through_lifts():
    assert may_be_empty(closure_of(TargetCoord(2, "B")))
    assert may_be_empty(lift_selection(TargetCoord(2, "B")))
    assert may_be_empty(lift_quantifier(lift_selection(TargetCoord(2, "B"))))
    assert not may_be_empty(closure_of(Lex(Coord(), TargetCoord(2, "B"))))
    assert not may_be_empty(closure_of(Fix()))


def test_check_shape_finds_an_unranked_vector_without_listing_the_space(monkeypatch):
    def listed(self):
        raise AssertionError("the outcome space was materialised")

    monkeypatch.setattr(VectorOutcomes, "all_outcomes", listed)
    space = VectorOutcomes(4, range(40))
    order = PreferenceOrder(((0, 0, 0, 0), (1, 1, 1, 1)))
    first_unranked = (Fraction(0), Fraction(0), Fraction(0), Fraction(1))
    with pytest.raises(IncompleteOrderError) as err:
        check_shape(ArgmaxOrder(order), AB, space)
    assert str(err.value) == (
        f"order leaves {40**4 - 2} outcome(s) unranked, e.g. {first_unranked!r}"
    )
    with pytest.raises(IncompleteOrderError):
        check_shape(MaxOrder(order), AB, space)


def test_check_shape_names_the_first_extra_value_whatever_the_hash_seed():
    # set iteration order of strings changes with the hash seed, so the
    # example must come from the ranking itself
    code = (
        "from hog import *\n"
        "order = PreferenceOrder(('A', 'R', 'B', 'Q', 'T'))\n"
        "try:\n"
        "    check_shape(ArgmaxOrder(order), MoveSet(('A', 'B')), AtomOutcomes(('A', 'B')))\n"
        "except TypeMismatchError as e:\n"
        "    print(e)\n"
    )
    src = str(Path(hog.__file__).resolve().parent.parent)
    for seed in range(1, 6):
        env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True
        )
        assert out.stdout == "order ranks values outside the outcome space, e.g. 'R'\n"


def test_preference_order_invariants():
    with pytest.raises(ValueError):
        PreferenceOrder(("A", "A"))
    with pytest.raises(ValueError):
        PreferenceOrder(())
    with pytest.raises(IncompleteOrderError):
        PREFER_A.position("C")


def test_public_names_stay_exported():
    # submodules show up in dir(hog) once anything imports them, so skip them
    names = sorted(
        n for n in dir(hog)
        if not n.startswith("_") and not isinstance(getattr(hog, n), types.ModuleType)
    )
    assert names == [
        "ArgmaxCoord", "ArgmaxOrder", "AtomOutcomes", "AttainmentWitness",
        "BudgetExceededError", "CheckResult", "ClosednessWitness", "Coord",
        "CoordinateOutOfRangeError", "DEFAULT_CONTEXT_BUDGET", "DEFAULT_PROFILE_BUDGET",
        "EquilibriumReport", "Fix", "FixProj", "FixQuantifier", "Game", "GameContext",
        "GameSource", "HogError", "IncompleteOrderError", "InvalidProfileError", "Lex",
        "Lifted", "MaxCoord", "MaxOrder", "MoveSet", "NonFix", "NonFixProj",
        "OutcomeFunction", "ParseDiagnostic", "ParseResult", "PayoffMatrix", "Player",
        "PlayerOutOfRangeError", "PreferenceOrder", "Preimage", "ProductOutcomes",
        "ProfileResult", "Quantifier", "RenderError", "SelectionFunction",
        "TableSelection", "TargetCoord", "TypeMismatchError", "UnknownBuiltinError",
        "VectorOutcomes", "attains", "brute_force_nash", "builtin", "builtin_names",
        "builtin_note", "check_shape", "classical_game", "closure_of",
        "enumerate_contexts", "enumerate_equilibria", "evaluate_profile",
        "identity_rule", "is_closed", "is_quantifier_equilibrium",
        "is_selection_equilibrium", "lift_quantifier", "lift_selection",
        "majority_rule", "may_be_empty", "outcome_table", "parse_file", "parse_game",
        "payoff_matrix", "payoff_matrix_names", "projection", "render_game",
        "tabulate", "unilateral_context",
    ]
    for f in (MaxOrder(PREFER_A), MaxCoord(1), FixQuantifier()):
        assert isinstance(f, Quantifier)
