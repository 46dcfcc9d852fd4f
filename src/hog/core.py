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

Goals read a context by position: they walk `p.table` alongside
`p.domain.labels` and never look a move up by label.  Only code that maps
chosen moves back to their outcomes calls the context on a move.  Every
label-to-position lookup (`MoveSet.index`, `rank`,
`PreferenceOrder.position`) goes through a dict built on first use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product as cartesian
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
class MoveSet:
    """Ordered finite set of move labels; declaration order is canonical."""

    labels: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        if not self.labels:
            raise ValueError("a move set needs at least one move")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError(f"duplicate move labels in {self.labels!r}")

    def __iter__(self):
        return iter(self.labels)

    def __len__(self):
        return len(self.labels)

    def __contains__(self, label):
        return label in self.labels

    @cached_property
    def _position(self) -> dict:
        return {x: i for i, x in enumerate(self.labels)}

    def index(self, label: str) -> int:
        try:
            return self._position[label]
        except (KeyError, TypeError):
            # a label that is not a move: raise what tuple.index raises
            return self.labels.index(label)


# ---------------------------------------------------------------------------
# Outcome spaces
# ---------------------------------------------------------------------------
# Three shapes cover everything here: a flat set of atoms, a product of move
# sets (strategy profiles as outcomes), and payoff vectors over a fixed grid
# of rational values.

@dataclass(frozen=True)
class AtomOutcomes:
    """Outcomes are bare labels, e.g. the candidate elected."""

    labels: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        if not self.labels:
            raise ValueError("an outcome space needs at least one value")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError(f"duplicate outcome labels in {self.labels!r}")

    @property
    def arity(self) -> int:
        return 0

    def size(self) -> int:
        return len(self.labels)

    def iter_outcomes(self) -> Iterator[str]:
        return iter(self.labels)

    def all_outcomes(self) -> tuple[str, ...]:
        return self.labels

    @cached_property
    def _position(self) -> dict:
        return {v: i for i, v in enumerate(self.labels)}

    def rank(self, value) -> int:
        try:
            return self._position[value]
        except (KeyError, TypeError):
            # a value outside the space: raise what tuple.index raises
            return self.labels.index(value)

    def __contains__(self, value):
        return isinstance(value, str) and value in self.labels


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
        # lexicographic in declaration order, identical to all_outcomes()
        r = 0
        for m, v in zip(self.coords, value):
            r = r * len(m) + m.index(v)
        return r

    def __contains__(self, value):
        return (
            isinstance(value, tuple)
            and len(value) == len(self.coords)
            and all(v in m for m, v in zip(self.coords, value))
        )


@dataclass(frozen=True)
class VectorOutcomes:
    """Outcomes are payoff vectors; every coordinate ranges over `levels`.

    Levels are kept as exact rationals so payoff comparisons never hit
    float noise.
    """

    dim: int
    levels: tuple[Fraction, ...]

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("vector outcomes need dim >= 1")
        lv = tuple(Fraction(x) for x in self.levels)
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

    @cached_property
    def _level_index(self) -> dict:
        # ints and Fractions hash alike when equal, so either finds its level
        return {v: i for i, v in enumerate(self.levels)}

    def rank(self, value) -> int:
        base = len(self.levels)
        idx = self._level_index
        r = 0
        for v in value:
            r = r * base + idx[v]
        return r

    def __contains__(self, value):
        idx = self._level_index
        return (
            isinstance(value, tuple)
            and len(value) == self.dim
            and all(isinstance(v, (int, Fraction)) and v in idx for v in value)
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
    # every value is drawn from the codomain, so nothing needs re-checking
    for values in cartesian(codomain.all_outcomes(), repeat=len(domain)):
        yield GameContext._trusted(domain, codomain, values)


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


def _moves_where(p: GameContext, pred) -> tuple:
    """Moves, in domain order, whose (move, value) pair satisfies pred."""
    return tuple(x for x, v in zip(p.domain.labels, p.table) if pred(x, v))


def _with_fallback(p: GameContext, chosen: tuple) -> tuple:
    # empty preferred set means the player is indifferent, not stuck
    return chosen if chosen else tuple(p.domain)


# Shape rules, one function each: `check_shape` calls them up front and the
# goals call them again on every context they are handed.


def _check_index(i: int, n: int):
    if not 1 <= i <= n:
        raise CoordinateOutOfRangeError(f"coordinate {i} out of range 1..{n}")


def _check_atoms_match(domain: MoveSet, codomain: OutcomeSpace):
    if not isinstance(codomain, AtomOutcomes) or set(codomain.labels) != set(
        domain.labels
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
        best = min(ranks)
        return tuple(x for x, r in zip(p.domain.labels, ranks) if r == best)


@dataclass(frozen=True)
class ArgmaxCoord(SelectionFunction):
    """Moves maximising one payoff coordinate; the shape of classical players."""

    coord: int

    def __call__(self, p: GameContext) -> tuple:
        _check_vector_coord(p.codomain, self.coord)
        i = self.coord - 1
        best = max(v[i] for v in p.table)
        return _moves_where(p, lambda x, v: v[i] == best)


@dataclass(frozen=True)
class Fix(SelectionFunction):
    """Moves the context maps to themselves; every move if none do."""

    def __call__(self, p: GameContext) -> tuple:
        _check_atoms_match(p.domain, p.codomain)
        return _with_fallback(p, _moves_where(p, lambda x, v: v == x))


@dataclass(frozen=True)
class NonFix(SelectionFunction):
    """Moves the context does not map to themselves; every move if all do."""

    def __call__(self, p: GameContext) -> tuple:
        _check_atoms_match(p.domain, p.codomain)
        return _with_fallback(p, _moves_where(p, lambda x, v: v != x))


@dataclass(frozen=True)
class FixProj(SelectionFunction):
    """Moves agreeing with coordinate `coord` of the outcome; conformists."""

    coord: int

    def __call__(self, p: GameContext) -> tuple:
        _check_product(p.codomain, self.coord)
        i = self.coord - 1
        return _with_fallback(p, _moves_where(p, lambda x, v: v[i] == x))


@dataclass(frozen=True)
class NonFixProj(SelectionFunction):
    """Moves disagreeing with coordinate `coord` of the outcome; contrarians."""

    coord: int

    def __call__(self, p: GameContext) -> tuple:
        _check_product(p.codomain, self.coord)
        i = self.coord - 1
        return _with_fallback(p, _moves_where(p, lambda x, v: v[i] != x))


@dataclass(frozen=True)
class Coord(SelectionFunction):
    """Moves under which all coordinates of the outcome agree."""

    def __call__(self, p: GameContext) -> tuple:
        _check_coord(p.codomain)
        return _with_fallback(p, _moves_where(p, lambda x, v: len(set(v)) == 1))


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
        i = self.coord - 1
        return _moves_where(p, lambda x, v: v[i] == self.value)


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
        good = set(self.quantifier(p))
        return _moves_where(p, lambda x, v: v in good)


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
    move that a left-out move shares its outcome with, and the first such move."""
    for p in enumerate_contexts(domain, codomain, max_contexts):
        chosen = e(p)
        chosen_set = set(chosen)
        left_out = {}  # outcome -> first move left out that reaches it
        for y, w in zip(domain.labels, p.table):
            if y not in chosen_set:
                left_out.setdefault(w, y)
        for x in chosen:
            y = left_out.get(p(x))
            if y is not None:
                return CheckResult(False, ClosednessWitness(p, x, y))
    return CheckResult(True)


def attains(
    e: SelectionFunction,
    f: Quantifier,
    domain: MoveSet,
    codomain: OutcomeSpace,
    max_contexts: int = DEFAULT_CONTEXT_BUDGET,
) -> CheckResult:
    """Does every move `e` picks achieve an outcome `f` approves of?

    Sweeps every context; the first counterexample wins.  Per context `f`
    runs, then `e`, except when `f` is `e`'s own lift (`Lifted(e)`): then one
    `e` call serves both, and the approved outcomes are the unordered
    `set(map(p, chosen))` that `Lifted` would sort.
    """
    own = isinstance(f, Lifted) and f.selection == e
    for p in enumerate_contexts(domain, codomain, max_contexts):
        picked = e(p) if own else f(p)
        chosen = picked if own else e(p)
        good = set(map(p, picked)) if own else set(picked)
        for x in chosen:
            if p(x) not in good:
                return CheckResult(False, AttainmentWitness(p, x))
    return CheckResult(True)
