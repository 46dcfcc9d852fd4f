"""Outcome tables: accepted in bulk, walked entry by entry only to diagnose.

`_table_problems` first tries `_table_accepted`, a few passes over the whole
table, and walks the table (`_table_walk`) only when that fails.  The walk
is the reference: these tests draw small tables, valid or with one fault,
and check that the accept holds exactly when the walk finds nothing, and
that `Game` and `PayoffMatrix` report what the walk reports.  Both judge
values by one rule, the space's `_contains_all`; what that rule takes is
pinned by `test_core.test_membership_in_every_space`.
"""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from hog import (
    AtomOutcomes,
    Game,
    InvalidProfileError,
    MoveSet,
    PayoffMatrix,
    Player,
    ProductOutcomes,
    SelectionFunction,
    VectorOutcomes,
    classical_game,
    outcome_table,
)
from hog.engine import _entries, _table_accepted, _table_problems, _table_walk


class _Anything(SelectionFunction):
    """A goal with no shape check, so a game's only problems are its table's."""

    def __call__(self, p):
        return p.domain.labels


class _Half(Fraction):
    """A `Fraction` subclass: a vector space takes it if its value is a level."""


_LEVEL_POOL = (Fraction(-1), Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2))

#: faults of a table's profiles, for every kind of table
_PROFILE_FAULTS = ("wrong-length", "unknown-move", "repeat", "missing", "unhashable")
#: faults of a value, by kind of table
_VALUE_FAULTS = {
    "atom": ("unknown-value", "non-str"),
    "product": ("non-tuple", "wrong-length-value", "unknown-value"),
    "vector": (
        "non-tuple", "wrong-dim", "non-level", "bool", "str", "float", "fraction-subclass"
    ),
    "matrix": ("wrong-dim",),
}


@st.composite
def _tables(draw, kind):
    """(move sets, outcome space or dim, entries, fault) for one table."""
    n = draw(st.integers(1, 3))
    move_sets = tuple(
        MoveSet(("a", "b", "c")[: draw(st.integers(1, 3))]) for _ in range(n)
    )
    profiles = list(product(*(m.labels for m in move_sets)))
    if kind == "atom":
        space = AtomOutcomes(("A", "B", "C")[: draw(st.integers(1, 3))])
        value = st.sampled_from(space.labels)
    elif kind == "product":
        space = ProductOutcomes(move_sets)
        value = st.sampled_from(profiles)
    else:
        dim = n if kind == "matrix" else draw(st.integers(1, 3))
        levels = draw(st.lists(st.sampled_from(_LEVEL_POOL), min_size=1, unique=True))
        space = VectorOutcomes(dim, levels)
        # an integral payoff may come as an int
        payoff = st.sampled_from(levels).flatmap(
            lambda v: st.sampled_from((v, int(v)) if v.denominator == 1 else (v,))
        )
        value = st.tuples(*[payoff] * dim)
    entries = [[s, draw(value)] for s in draw(st.permutations(profiles))]
    fault = draw(st.sampled_from((None,) + _PROFILE_FAULTS + _VALUE_FAULTS[kind]))
    _inject(draw, kind, space, move_sets, entries, fault)
    return move_sets, space, list(map(tuple, entries)), fault


def _inject(draw, kind, space, move_sets, entries, fault):
    """Put `fault` into one of `entries`, [profile, value] lists, in place."""
    k = draw(st.integers(0, len(entries) - 1))
    profile, v = entries[k]
    if fault in _PROFILE_FAULTS:
        if fault == "missing":
            del entries[k]
            return
        bad = {
            "wrong-length": profile + ("a",),
            "unknown-move": ("z",) + profile[1:],
            "repeat": entries[(k + 1) % len(entries)][0] if len(entries) > 1 else profile,
            "unhashable": (["a"],) + profile[1:],
        }[fault]
        # added to the table, or in place of a profile
        if draw(st.booleans()) or (fault == "repeat" and len(entries) == 1):
            entries.insert(draw(st.integers(0, len(entries))), [bad, v])
        else:
            entries[k][0] = bad
    elif fault is not None:
        entries[k][1] = {
            "non-tuple": lambda: list(v),
            "wrong-dim": lambda: v + (space.levels[0],),
            "non-level": lambda: v[:-1] + (Fraction(7, 11),),
            # True is 1 and False is 0: a level, if either is one
            "bool": lambda: v[:-1] + (Fraction(1) in space.levels,),
            "str": lambda: v[:-1] + ("1",),
            # equal to a level, but no int or Fraction
            "float": lambda: v[:-1] + (float(space.levels[-1]),),
            "fraction-subclass": lambda: v[:-1] + (_Half(space.levels[-1]),),
            "unknown-value": lambda: "Z" if kind == "atom" else ("z",) * len(move_sets),
            "non-str": lambda: ("A",),
            "wrong-length-value": lambda: v + ("a",),
        }[fault]()


def _problems(problems):
    return [(p.error, p.message, p.where) for p in problems]


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(("atom", "product", "vector")).flatmap(_tables))
def test_a_game_table_is_accepted_in_bulk_exactly_when_the_walk_finds_nothing(table):
    move_sets, space, entries, fault = table
    profiles = ProductOutcomes(move_sets)
    ent = _entries(entries)
    outside = "lies outside the outcome space"
    walked = _problems(_table_walk(profiles, ent, space._contains_all, outside))
    assert _table_accepted(profiles, ent, space._contains_all) == (not walked)
    assert _problems(_table_problems(profiles, ent, space._contains_all, outside)) == walked
    players = tuple(Player(f"P{i}", ms, _Anything()) for i, ms in enumerate(move_sets))
    if walked:
        error, message, _ = walked[0]
        with pytest.raises(error) as raised:
            Game("g", players, space, outcome_table(entries))
        assert (type(raised.value), str(raised.value)) == (error, message)
    else:
        g = Game("g", players, space, outcome_table(entries))
        assert [s for s, _ in g.outcome_fn.entries] == list(g.profiles())
        assert dict(g.outcome_fn.entries) == dict(ent)


@settings(max_examples=200, deadline=None)
@given(_tables("matrix"))
def test_a_payoff_matrix_is_accepted_in_bulk_exactly_when_the_walk_finds_nothing(table):
    move_sets, space, entries, fault = table
    n, profiles = len(move_sets), ProductOutcomes(move_sets)
    ent = tuple((tuple(s), tuple(map(Fraction, pay))) for s, pay in entries)

    def values_ok(values):
        return set(map(len, values)) <= {n}

    needs = f"needs {n} payoffs"
    walked = _problems(_table_walk(profiles, ent, values_ok, needs))
    assert _table_accepted(profiles, ent, values_ok) == (not walked)
    assert _problems(_table_problems(profiles, ent, values_ok, needs)) == walked
    names = tuple(f"P{i}" for i in range(1, n + 1))
    if walked:
        error, message, _ = walked[0]
        with pytest.raises(error) as raised:
            PayoffMatrix("m", names, move_sets, entries)
        assert (type(raised.value), str(raised.value)) == (error, message)
    else:
        assert PayoffMatrix("m", names, move_sets, entries).entries == ent


# ---------------------------------------------------------------------------
# what a valid table costs: counted, not timed
# ---------------------------------------------------------------------------

_MOVES = tuple(f"m{k}" for k in range(6))
_LEVELS = (Fraction(-1), Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1))


def _matrix_entries():
    """A 3-player x 6-move table of shared `Fraction` payoffs, fixed."""
    return [
        (s, tuple(_LEVELS[(k + c) % len(_LEVELS)] for c in range(3)))
        for k, s in enumerate(product(_MOVES, repeat=3))
    ]


def _counted(monkeypatch, cls, name, calls):
    original = vars(cls)[name]
    if isinstance(original, staticmethod):
        original = original.__func__

    def counting(*args, **kwargs):
        calls[cls.__name__, name] = calls.get((cls.__name__, name), 0) + 1
        return original(*args, **kwargs)

    monkeypatch.setattr(cls, name, counting)


def test_a_valid_matrix_is_built_without_per_entry_checks(monkeypatch):
    calls = {}
    for cls, name in (
        (Fraction, "__new__"), (Fraction, "__hash__"),
        (VectorOutcomes, "__contains__"), (ProductOutcomes, "__contains__"),
    ):
        _counted(monkeypatch, cls, name, calls)
    names, move_sets = ("P1", "P2", "P3"), (_MOVES,) * 3
    m = PayoffMatrix("m", names, move_sets, _matrix_entries())
    assert calls == {}  # every payoff is kept as given: no Fraction() call
    g = classical_game(m)
    # no membership test per entry, and no payoff hashed by value: only the
    # space's own levels, once each, when it checks they are distinct
    assert calls == {("Fraction", "__hash__"): len(_LEVELS)}
    assert g.outcomes.levels == _LEVELS
    bad = _matrix_entries()
    bad[7] = (("m0", "m9", "m0"), bad[7][1])
    with pytest.raises(InvalidProfileError, match=r"^profile \(m0, m9, m0\) does not match"):
        PayoffMatrix("m", names, move_sets, bad)


def test_valid_atom_and_product_tables_are_built_without_per_entry_checks(monkeypatch):
    calls = {}
    for cls in (AtomOutcomes, ProductOutcomes, MoveSet):
        _counted(monkeypatch, cls, "__contains__", calls)
    move_sets = (MoveSet(_MOVES),) * 3
    players = tuple(Player(f"P{i}", ms, _Anything()) for i, ms in enumerate(move_sets))
    profiles = list(product(_MOVES, repeat=3))
    atoms = [(s, "ABC"[k % 3]) for k, s in enumerate(profiles)]
    Game("atoms", players, AtomOutcomes(("A", "B", "C")), outcome_table(atoms))
    reversed_profiles = [(s, s[::-1]) for s in profiles]
    Game("profiles", players, ProductOutcomes(move_sets), outcome_table(reversed_profiles))
    assert calls == {}  # each space judged every value at once, by `_contains_all`
