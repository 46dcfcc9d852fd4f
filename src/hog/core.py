"""Game contexts, selection functions, and quantifiers over finite spaces.

A game context is a total map ``p : X -> R`` from one player's moves to
outcomes.  A selection function answers "which moves would this player be
happy with here?", a quantifier answers "which outcomes would count as good
here?".  Everything in this module is finite and exhaustively checkable:
evaluation returns tuples in a canonical order, and the law checks
(`is_closed`, `attains`) sweep every context over the given spaces, with
one call per goal and context and a goal's own lift as an unordered set.

Canonical ordering: moves are reported in the order the move set declares
them; outcomes are reported in the order the outcome space enumerates them.

Goals read a context by position: each built-in goal maps an operator
over `p.table` and `p.domain.labels` and picks its moves with
`itertools.compress`, never looking a move up by label.  Payoffs are
compared by level index, outcomes in `is_closed` by their index in the
codomain, so no sweep compares `Fraction`s.  Only code that maps chosen
moves back to their outcomes calls the context on a move.  Every
label-to-position lookup (`MoveSet.index`, `rank`,
`PreferenceOrder.position`, and `VectorOutcomes._level_indices`, which every
payoff-to-level lookup goes through) reads a dict built on first use.
Membership reads the same dicts as positions: `in` a `MoveSet` or an
`AtomOutcomes` is one lookup in its `_position`, never a scan of its labels,
and a value that cannot hash is in neither.  Those two classes share one
base, `_Labels`, the ordered label set: it owns the labels' checks, the
`_position` dict and the one lookup that `MoveSet.index` and
`AtomOutcomes.rank` both bind.  `PreferenceOrder` stays apart, since its
field is `ranking`, it checks repeats before emptiness, and a value it does
not rank raises `IncompleteOrderError`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, compress, product as cartesian, repeat
from operator import attrgetter, eq, itemgetter, ne
from typing import Iterator, Mapping, Optional, Union

from .errors import (
    BudgetExceededError,
    CoordinateOutOfRangeError,
    IncompleteOrderError,
    TypeMismatchError,
)

#: Cap on |R| ** |X| for exhaustive sweeps over contexts.
DEFAULT_CONTEXT_BUDGET = 10**6


@dataclass(frozen=True)
class _Labels:
    """An ordered set of distinct labels and their positions, shared by
    `MoveSet` and `AtomOutcomes`.

    The class attributes `_empty` and `_duplicate` pick the messages for no
    labels and for a repeated one.  Each subclass binds `_index` in its own
    body, as `index` or `rank`: neither gains the other's name, and the
    benchmark's tracer, which patches methods in `vars(cls)`, still finds
    them.  Subclasses take no decorator of their own; the generated `repr`
    and `==` read the instance's class, so neither equals the other.
    """

    labels: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        if not self.labels:
            raise ValueError(self._empty)
        if len(set(self.labels)) != len(self.labels):
            raise ValueError(self._duplicate.format(self.labels))

    @cached_property
    def _position(self) -> dict:
        return {x: i for i, x in enumerate(self.labels)}

    def _index(self, label) -> int:
        try:
            return self._position[label]
        except (KeyError, TypeError):
            # a label outside the set: raise what tuple.index raises
            return self.labels.index(label)


class MoveSet(_Labels):
    """Ordered finite set of move labels; declaration order is canonical."""

    _empty = "a move set needs at least one move"
    _duplicate = "duplicate move labels in {!r}"
    index = _Labels._index

    def __iter__(self):
        return iter(self.labels)

    def __len__(self):
        return len(self.labels)

    def __contains__(self, label):
        try:
            return label in self._position
        except TypeError:  # an unhashable value is no label
            return False


# ---------------------------------------------------------------------------
# Outcome spaces
# ---------------------------------------------------------------------------
# Three shapes cover everything here: a flat set of atoms, a product of move
# sets (strategy profiles as outcomes), and payoff vectors over a fixed grid
# of rational values.

class AtomOutcomes(_Labels):
    """Outcomes are bare labels, e.g. the candidate elected."""

    _empty = "an outcome space needs at least one value"
    _duplicate = "duplicate outcome labels in {!r}"
    rank = _Labels._index

    @property
    def arity(self) -> int:
        return 0

    def size(self) -> int:
        return len(self.labels)

    def iter_outcomes(self) -> Iterator[str]:
        return iter(self.labels)

    def all_outcomes(self) -> tuple[str, ...]:
        return self.labels

    def __contains__(self, value):
        return isinstance(value, str) and value in self._position


@dataclass(frozen=True)
class ProductOutcomes:
    """Outcomes are tuples of move labels, one slot per player."""

    coords: tuple[MoveSet, ...]

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(self.coords))
        if not self.coords:
            raise ValueError("a product outcome space needs at least one coordinate")

    @property
    def arity(self) -> int:
        return len(self.coords)

    def size(self) -> int:
        return math.prod(len(m) for m in self.coords)

    def iter_outcomes(self) -> Iterator[tuple]:
        return cartesian(*(m.labels for m in self.coords))

    def all_outcomes(self) -> tuple[tuple, ...]:
        return tuple(self.iter_outcomes())

    def rank(self, value) -> int:
        # lexicographic in declaration order, identical to all_outcomes();
        # a value of the wrong length raises ValueError, as one off the space
        r = 0
        for m, v in zip(self.coords, value, strict=True):
            r = r * len(m) + m.index(v)
        return r

    def __contains__(self, value):
        return (
            isinstance(value, tuple)
            and len(value) == len(self.coords)
            and all(v in m for m, v in zip(self.coords, value))
        )


_level_key = attrgetter("numerator", "denominator")  # the same for 1 and Fraction(1)


def _exact(payoff) -> Fraction:
    """A payoff as a `Fraction`: one that is exactly a `Fraction` is kept."""
    return payoff if type(payoff) is Fraction else Fraction(payoff)


def _distinct_objects(values) -> list:
    """Each distinct object of `values` once, by identity, in first-seen order."""
    values = list(values)
    return list(dict(zip(map(id, values), values)).values())


@dataclass(frozen=True)
class VectorOutcomes:
    """Outcomes are payoff vectors; every coordinate ranges over `levels`.

    Levels are kept as exact rationals, sorted, so payoff comparisons never
    hit float noise.  This class is the one owner of the payoff-to-level
    rule: a payoff (an int or a `Fraction`) is found by its
    `(numerator, denominator)` in `_level_of`, which gives its level index.
    `_level_indices` looks payoffs up in bulk for `rank`, `ArgmaxCoord` and
    the solve kernel; `_from_table` builds the space a payoff table needs,
    and `_contains_all` accepts a whole table's values at once.
    """

    dim: int
    levels: tuple[Fraction, ...]

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("vector outcomes need dim >= 1")
        lv = tuple(map(_exact, self.levels))
        if not lv:
            raise ValueError("vector outcomes need at least one level")
        if len(set(lv)) != len(lv):
            raise ValueError("duplicate payoff levels")
        object.__setattr__(self, "levels", tuple(sorted(lv)))

    @property
    def arity(self) -> int:
        return self.dim

    def size(self) -> int:
        return len(self.levels) ** self.dim

    def iter_outcomes(self) -> Iterator[tuple]:
        return cartesian(self.levels, repeat=self.dim)

    def all_outcomes(self) -> tuple[tuple, ...]:
        return tuple(self.iter_outcomes())

    @classmethod
    def _from_table(cls, dim: int, vectors) -> "VectorOutcomes":
        """The space whose levels are the distinct payoffs of `vectors`;
        equal payoffs however written (`1`, `Fraction(1)`, `2/2`) are one level.
        Each distinct payoff object is keyed once: a table shares a few."""
        payoffs = _distinct_objects(chain.from_iterable(vectors))
        return cls(dim, tuple(dict(zip(map(_level_key, payoffs), payoffs)).values()))

    @cached_property
    def _level_of(self) -> dict:
        # a pair of ints hashes and compares faster than a Fraction
        return {_level_key(v): i for i, v in enumerate(self.levels)}

    def _level_indices(self, payoffs) -> list:
        """The level index of each payoff, in order; KeyError for a non-level."""
        return list(map(self._level_of.__getitem__, map(_level_key, payoffs)))

    def _contains_all(self, values) -> bool:
        """Are all of `values`, a list, in the space?  Checked in bulk, for
        a whole outcome table: each value exactly a `tuple` of `dim`
        payoffs, each payoff exactly an `int` or a `Fraction`, and each
        distinct payoff object a level.  False also for values `in` would
        take (a `bool`, a `Fraction` subclass, a tuple subclass); `in`
        decides those."""
        if set(map(type, values)) != {tuple} or set(map(len, values)) != {self.dim}:
            return False
        payoffs = list(chain.from_iterable(values))
        if not set(map(type, payoffs)) <= {int, Fraction}:
            return False
        distinct = _distinct_objects(payoffs)
        return all(map(self._level_of.__contains__, map(_level_key, distinct)))

    def rank(self, value) -> int:
        base = len(self.levels)
        r = 0
        for i in self._level_indices(value):
            r = r * base + i
        return r

    def __contains__(self, value):
        return (
            isinstance(value, tuple)
            and len(value) == self.dim
            and all(map(isinstance, value, repeat((int, Fraction))))
            and all(map(self._level_of.__contains__, map(_level_key, value)))
        )


OutcomeSpace = Union[AtomOutcomes, ProductOutcomes, VectorOutcomes]


def projection(space: OutcomeSpace, value, i: int):
    """The i-th coordinate (1-based) of an outcome in a structured space."""
    if isinstance(space, AtomOutcomes):
        raise TypeMismatchError("atom outcomes have no coordinates to project")
    _check_index(i, space.arity)
    return value[i - 1]


# ---------------------------------------------------------------------------
# Game contexts
# ---------------------------------------------------------------------------


def _ordered_values(codomain: OutcomeSpace, values) -> tuple:
    return tuple(sorted(set(values), key=codomain.rank))


@dataclass(frozen=True)
class GameContext:
    """A total map from one player's moves to outcomes.

    `table` holds the value at each move, aligned with `domain.labels`; a
    mapping is accepted and reordered.  Contexts are hashable so they can
    key lookup tables.
    """

    domain: MoveSet
    codomain: OutcomeSpace
    table: tuple

    def __post_init__(self):
        t = self.table
        if isinstance(t, Mapping):
            if set(t) != set(self.domain.labels):
                raise ValueError("context mapping keys must be exactly the domain moves")
            t = tuple(t[x] for x in self.domain.labels)
        else:
            t = tuple(t)
            if len(t) != len(self.domain):
                raise ValueError(
                    f"context table has {len(t)} entries for {len(self.domain)} moves"
                )
        for v in t:
            if v not in self.codomain:
                raise ValueError(f"context value {v!r} lies outside the outcome space")
        object.__setattr__(self, "table", t)

    @classmethod
    def _trusted(cls, domain: MoveSet, codomain: OutcomeSpace, table: tuple) -> "GameContext":
        """A context built without the checks of __post_init__.

        Only for callers that know by construction that `table` is a tuple
        aligned with `domain.labels` whose values all lie in `codomain`.
        """
        p = object.__new__(cls)
        p.__dict__.update(domain=domain, codomain=codomain, table=table)
        return p

    def __call__(self, move: str):
        return self.table[self.domain.index(move)]

    def as_dict(self) -> dict:
        return dict(zip(self.domain.labels, self.table))

    def image(self) -> tuple:
        """Distinct values hit by the context, in canonical outcome order."""
        return _ordered_values(self.codomain, self.table)


def enumerate_contexts(
    domain: MoveSet,
    codomain: OutcomeSpace,
    max_contexts: int = DEFAULT_CONTEXT_BUDGET,
) -> Iterator[GameContext]:
    """Every total map domain -> codomain, in lexicographic table order.

    Raises BudgetExceededError up front if |R| ** |X| exceeds the cap, so
    callers never start a sweep they cannot finish.
    """
    total = codomain.size() ** len(domain)
    if total > max_contexts:
        raise BudgetExceededError(
            f"{total} contexts exceed the budget of {max_contexts}"
        )
    # every value is drawn from the codomain, so nothing needs re-checking:
    # each context is built as `GameContext._trusted` builds it, from one dict
    fields = {"domain": domain, "codomain": codomain}
    for values in cartesian(codomain.all_outcomes(), repeat=len(domain)):
        p = object.__new__(GameContext)
        p.__dict__.update(fields)
        p.__dict__["table"] = values
        yield p


# ---------------------------------------------------------------------------
# Preference orders
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PreferenceOrder:
    """Strict total order on outcome values, best first."""

    ranking: tuple

    def __post_init__(self):
        object.__setattr__(self, "ranking", tuple(self.ranking))
        if len(set(self.ranking)) != len(self.ranking):
            raise ValueError("preference order repeats a value")
        if not self.ranking:
            raise ValueError("preference order must rank at least one value")

    @cached_property
    def _position(self) -> dict:
        return {v: i for i, v in enumerate(self.ranking)}

    def position(self, value) -> int:
        """Rank of a value, 0 = best.  Unranked values are an error."""
        try:
            return self._position[value]
        except (KeyError, TypeError):
            raise IncompleteOrderError(f"order does not rank {value!r}") from None


# ---------------------------------------------------------------------------
# Selection functions
# ---------------------------------------------------------------------------


class SelectionFunction:
    """Base class: callable on a context, returns moves in domain order.

    A selection function must be a pure function of its context: equal
    contexts get equal answers, and a call has no effect that a later call
    could see.  The equilibrium sweep relies on this to evaluate each goal
    once per distinct context.  Every built-in one is a frozen dataclass
    and qualifies.
    """

    def __call__(self, p: GameContext) -> tuple:
        raise NotImplementedError


class Quantifier:
    """Base class: callable on a context, returns outcomes in canonical order."""

    def __call__(self, p: GameContext) -> tuple:
        raise NotImplementedError


def _where(p: GameContext, op, values, targets) -> tuple:
    """Moves, in domain order, whose value passes `op` against its target."""
    return tuple(compress(p.domain.labels, map(op, values, targets)))


def _with_fallback(p: GameContext, chosen: tuple) -> tuple:
    # empty preferred set means the player is indifferent, not stuck
    return chosen if chosen else tuple(p.domain)


# Shape rules, one function each: `check_shape` calls them up front and the
# goals call them again on every context they are handed.


def _check_index(i: int, n: int):
    if not 1 <= i <= n:
        raise CoordinateOutOfRangeError(f"coordinate {i} out of range 1..{n}")


def _check_atoms_match(domain: MoveSet, codomain: OutcomeSpace):
    if not isinstance(codomain, AtomOutcomes) or (
        codomain.labels != domain.labels and set(codomain.labels) != set(domain.labels)
    ):
        raise TypeMismatchError(
            "fixpoint selection needs atom outcomes matching the moves exactly"
        )


def _check_product(codomain: OutcomeSpace, i: int):
    if not isinstance(codomain, ProductOutcomes):
        raise TypeMismatchError("coordinate selection needs a product outcome space")
    _check_index(i, codomain.arity)


def _check_vector_coord(codomain: OutcomeSpace, i: int):
    if not isinstance(codomain, VectorOutcomes):
        raise TypeMismatchError("argmax over a coordinate needs vector outcomes")
    _check_index(i, codomain.dim)


def _check_coord(codomain: OutcomeSpace):
    if not isinstance(codomain, ProductOutcomes):
        raise TypeMismatchError("coordination needs a product outcome space")
    if codomain.arity < 2:
        raise TypeMismatchError("coordination needs at least two coordinates")


@dataclass(frozen=True)
class ArgmaxOrder(SelectionFunction):
    """Moves whose outcome is ranked best by the order among values attained."""

    order: PreferenceOrder

    def __call__(self, p: GameContext) -> tuple:
        try:
            ranks = list(map(self.order._position.__getitem__, p.table))
        except (KeyError, TypeError):  # an unranked value: raise as `position` does
            ranks = list(map(self.order.position, p.table))
        return _where(p, eq, ranks, repeat(min(ranks)))


@dataclass(frozen=True)
class ArgmaxCoord(SelectionFunction):
    """Moves maximising one payoff coordinate; the shape of classical players.

    Payoffs are compared by level index (`VectorOutcomes._level_indices`),
    not as `Fraction`s: levels are sorted, so the best index is the best
    payoff.
    """

    coord: int

    def __call__(self, p: GameContext) -> tuple:
        _check_vector_coord(p.codomain, self.coord)
        scores = p.codomain._level_indices(map(itemgetter(self.coord - 1), p.table))
        return _where(p, eq, scores, repeat(max(scores)))


@dataclass(frozen=True)
class Fix(SelectionFunction):
    """Moves the context maps to themselves; every move if none do."""

    def __call__(self, p: GameContext) -> tuple:
        _check_atoms_match(p.domain, p.codomain)
        return _with_fallback(p, _where(p, eq, p.table, p.domain.labels))


@dataclass(frozen=True)
class NonFix(SelectionFunction):
    """Moves the context does not map to themselves; every move if all do."""

    def __call__(self, p: GameContext) -> tuple:
        _check_atoms_match(p.domain, p.codomain)
        return _with_fallback(p, _where(p, ne, p.table, p.domain.labels))


@dataclass(frozen=True)
class FixProj(SelectionFunction):
    """Moves agreeing with coordinate `coord` of the outcome; conformists."""

    coord: int

    def __call__(self, p: GameContext) -> tuple:
        _check_product(p.codomain, self.coord)
        picks = map(itemgetter(self.coord - 1), p.table)
        return _with_fallback(p, _where(p, eq, picks, p.domain.labels))


@dataclass(frozen=True)
class NonFixProj(SelectionFunction):
    """Moves disagreeing with coordinate `coord` of the outcome; contrarians."""

    coord: int

    def __call__(self, p: GameContext) -> tuple:
        _check_product(p.codomain, self.coord)
        picks = map(itemgetter(self.coord - 1), p.table)
        return _with_fallback(p, _where(p, ne, picks, p.domain.labels))


@dataclass(frozen=True)
class Coord(SelectionFunction):
    """Moves under which all coordinates of the outcome agree."""

    def __call__(self, p: GameContext) -> tuple:
        _check_coord(p.codomain)
        sizes = map(len, map(set, p.table))
        return _with_fallback(p, _where(p, eq, sizes, repeat(1)))


@dataclass(frozen=True)
class TargetCoord(SelectionFunction):
    """Moves forcing coordinate `coord` of the outcome to equal `value`.

    Deliberately has no fallback: when the target is out of reach the
    selection is empty.  Meant to refine another selection inside Lex, not
    to stand alone.
    """

    coord: int
    value: str

    def __call__(self, p: GameContext) -> tuple:
        _check_product(p.codomain, self.coord)
        picks = map(itemgetter(self.coord - 1), p.table)
        return _where(p, eq, picks, repeat(self.value))


@dataclass(frozen=True)
class Lex(SelectionFunction):
    """Secondary preference used to break ties among primary choices.

    Take the primary moves that also satisfy the secondary; if none do,
    keep the primary moves; if even the primary is empty, any move goes.
    """

    primary: SelectionFunction
    secondary: SelectionFunction

    def __call__(self, p: GameContext) -> tuple:
        first = self.primary(p)
        second = set(self.secondary(p))
        both = tuple(x for x in first if x in second)
        if both:
            return both
        if first:
            return first
        return tuple(p.domain)


@dataclass(frozen=True)
class TableSelection(SelectionFunction):
    """Selection given pointwise as (context, moves) rows."""

    entries: tuple[tuple[GameContext, tuple], ...]

    def __post_init__(self):
        object.__setattr__(
            self,
            "entries",
            tuple((ctx, tuple(moves)) for ctx, moves in self.entries),
        )

    @cached_property
    def _lookup(self) -> dict:
        return {ctx: moves for ctx, moves in self.entries}

    def __call__(self, p: GameContext) -> tuple:
        try:
            return self._lookup[p]
        except KeyError:
            raise TypeMismatchError("table selection has no row for this context") from None


@dataclass(frozen=True)
class Preimage(SelectionFunction):
    """Moves whose outcome the wrapped quantifier approves of.

    This is how a quantifier acts as a selection function; together with
    `Lifted` it closes the loop between the two views.
    """

    quantifier: "Quantifier"

    def __call__(self, p: GameContext) -> tuple:
        q = self.quantifier
        # a lift's outcomes as a set need no sort; `p(x)` still rejects a non-move
        good = set(map(p, q.selection(p))) if type(q) is Lifted else set(q(p))
        return tuple(compress(p.domain.labels, map(good.__contains__, p.table)))


# ---------------------------------------------------------------------------
# Quantifiers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Lifted(Quantifier):
    """Outcomes the wrapped selection's chosen moves reach: `set(map(p, chosen))`, sorted."""

    selection: SelectionFunction

    def __call__(self, p: GameContext) -> tuple:
        return _ordered_values(p.codomain, map(p, self.selection(p)))


# The named quantifiers are the ones their selection functions induce.
def MaxOrder(order: PreferenceOrder) -> Quantifier:
    """The single best attained outcome under a strict total order."""
    return Lifted(ArgmaxOrder(order))


def MaxCoord(coord: int) -> Quantifier:
    """Attained outcomes whose chosen payoff coordinate is maximal."""
    return Lifted(ArgmaxCoord(coord))


def FixQuantifier() -> Quantifier:
    """Outcomes some move maps to itself under; all attained outcomes if none.

    The fallback mirrors the fixpoint selection's, pushed through the
    context, which is what makes the two views of a fixpoint player agree.
    """
    return Lifted(Fix())


def lift_selection(e: SelectionFunction) -> Quantifier:
    """The quantifier a selection function induces: outcomes of chosen moves."""
    return Lifted(e)


def lift_quantifier(f: Quantifier) -> SelectionFunction:
    """The selection function a quantifier induces: moves hitting good outcomes."""
    return Preimage(f)


def closure_of(e: SelectionFunction) -> SelectionFunction:
    """Lift to a quantifier and back; the smallest closed refinement of `e`."""
    return Preimage(Lifted(e))


# ---------------------------------------------------------------------------
# Static shape checking
# ---------------------------------------------------------------------------


def check_shape(obj, domain: MoveSet, codomain: OutcomeSpace) -> None:
    """Validate a selection function or quantifier against spaces up front.

    Raises the same errors evaluation would, but without needing a context,
    so ill-typed games are rejected at construction time.
    """
    if isinstance(obj, ArgmaxOrder):
        # the ranking is duplicate-free, so counting its in-space values
        # tells whether it covers the space without enumerating the space
        ranking = obj.order.ranking
        extra = [v for v in ranking if v not in codomain]
        missing = codomain.size() - (len(ranking) - len(extra))
        if missing:
            ranked = set(ranking)
            first = next(v for v in codomain.iter_outcomes() if v not in ranked)
            raise IncompleteOrderError(
                f"order leaves {missing} outcome(s) unranked, e.g. {first!r}"
            )
        if extra:
            raise TypeMismatchError(
                f"order ranks values outside the outcome space, e.g. {extra[0]!r}"
            )
    elif isinstance(obj, ArgmaxCoord):
        _check_vector_coord(codomain, obj.coord)
    elif isinstance(obj, (Fix, NonFix)):
        _check_atoms_match(domain, codomain)
    elif isinstance(obj, (FixProj, NonFixProj, TargetCoord)):
        _check_product(codomain, obj.coord)
    elif isinstance(obj, Coord):
        _check_coord(codomain)
    elif isinstance(obj, Lex):
        check_shape(obj.primary, domain, codomain)
        check_shape(obj.secondary, domain, codomain)
    elif isinstance(obj, TableSelection):
        for ctx, moves in obj.entries:
            if ctx.domain != domain or ctx.codomain != codomain:
                raise TypeMismatchError("table selection row built over different spaces")
            for m in moves:
                if m not in domain:
                    raise TypeMismatchError(f"table selection picks unknown move {m!r}")
        contexts = codomain.size() ** len(domain)
        if len(obj._lookup) != contexts:
            raise TypeMismatchError(
                f"table selection has rows for {len(obj._lookup)} of {contexts} contexts"
            )
    elif isinstance(obj, Preimage):
        check_shape(obj.quantifier, domain, codomain)
    elif isinstance(obj, Lifted):
        check_shape(obj.selection, domain, codomain)
    elif isinstance(obj, (SelectionFunction, Quantifier)):
        pass  # user-defined callables are checked at evaluation time
    else:
        raise TypeError(f"not a selection function or quantifier: {obj!r}")


def may_be_empty(e: SelectionFunction) -> bool:
    """Whether the goal (a selection or a quantifier) can come back empty."""
    if isinstance(e, TargetCoord):
        return True
    if isinstance(e, TableSelection):
        return any(not moves for _, moves in e.entries)
    if isinstance(e, Preimage):
        return may_be_empty(e.quantifier)
    if isinstance(e, Lifted):
        return may_be_empty(e.selection)
    # Lex falls back to the whole move set, so it absorbs empty parts
    return False


# ---------------------------------------------------------------------------
# Tabulation and law checks
# ---------------------------------------------------------------------------


def tabulate(
    e: SelectionFunction,
    domain: MoveSet,
    codomain: OutcomeSpace,
    max_contexts: int = DEFAULT_CONTEXT_BUDGET,
) -> TableSelection:
    """Freeze a selection function into an explicit table over all contexts."""
    rows = tuple(
        (p, e(p)) for p in enumerate_contexts(domain, codomain, max_contexts)
    )
    return TableSelection(rows)


@dataclass(frozen=True)
class ClosednessWitness:
    """A context where `good_move` is chosen but `excluded_move`, with the
    same outcome, is not."""

    context: GameContext
    good_move: str
    excluded_move: str


@dataclass(frozen=True)
class AttainmentWitness:
    """A context where `move` is chosen but its outcome is not approved."""

    context: GameContext
    move: str


@dataclass(frozen=True)
class CheckResult:
    """Outcome of an exhaustive law check; falsy iff a witness was found."""

    holds: bool
    witness: Optional[object] = None

    def __bool__(self) -> bool:
        return self.holds


def is_closed(
    e: SelectionFunction,
    domain: MoveSet,
    codomain: OutcomeSpace,
    max_contexts: int = DEFAULT_CONTEXT_BUDGET,
) -> CheckResult:
    """Does choosing a move commit the player to every move with the same
    outcome?  Sweeps every context with one `e` call each; the first chosen
    move that a left-out move shares its outcome with, and the first such move.
    Outcomes are compared by index in the codomain, walked beside the contexts."""
    contexts = enumerate_contexts(domain, codomain, max_contexts)
    for p, ids in zip(contexts, _index_tables(codomain, len(domain))):
        chosen = e(p)
        chosen_set = set(chosen)
        left_out = {}  # outcome index -> first move left out that reaches it
        for y, w in zip(domain.labels, ids):
            if y not in chosen_set:
                left_out.setdefault(w, y)
        for x in chosen:
            y = left_out.get(ids[domain.index(x)])  # a non-move raises here
            if y is not None:
                return CheckResult(False, ClosednessWitness(p, x, y))
    return CheckResult(True)


def _index_tables(codomain: OutcomeSpace, n: int) -> Iterator[tuple]:
    # a generator, so the product's pool is built only once the sweep it
    # walks beside has passed its budget check
    yield from cartesian(range(codomain.size()), repeat=n)


def attains(
    e: SelectionFunction,
    f: Quantifier,
    domain: MoveSet,
    codomain: OutcomeSpace,
    max_contexts: int = DEFAULT_CONTEXT_BUDGET,
) -> CheckResult:
    """Does every move `e` picks achieve an outcome `f` approves of?

    Sweeps every context; the first counterexample wins.  Per context `f`
    runs, then `e`, except when `f` is `e`'s own lift (`Lifted(e)`): every
    chosen move's outcome is approved by definition, so `e` runs alone and
    its choice is only checked to be moves: as a subset of `domain`, or, when
    that fails or cannot hash, move by move in `domain`, which raises on a
    non-move.
    """
    own = isinstance(f, Lifted) and f.selection == e
    index = domain.index
    moves = frozenset(domain.labels)
    for p in enumerate_contexts(domain, codomain, max_contexts):
        if own:
            chosen = e(p)
            try:
                if moves.issuperset(chosen):
                    continue
            except TypeError:
                pass
            for x in chosen:
                index(x)
            continue
        good = set(f(p))
        for x in e(p):
            if p(x) not in good:
                return CheckResult(False, AttainmentWitness(p, x))
    return CheckResult(True)
