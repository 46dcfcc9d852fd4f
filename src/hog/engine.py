"""Finite games of higher-order players and exhaustive equilibrium search.

A game fixes a move set and a selection function per player, an outcome
space, and a total outcome function on strategy profiles.  Equilibrium
checking is by definition chasing: for each player build the unilateral
context (what they could steer the outcome to, everyone else held fixed)
and ask their selection function, or its lift, whether the profile stands.

Strategy profiles have one owner: the `ProductOutcomes` of the players'
move sets (`Game._profiles`).  It lists them (`iter_outcomes`), counts them
(`size`), says which tuples are profiles (`_contains_all`, which
`Game.check_profile` asks of one whole profile) and indexes them (`rank`),
for `Game`, table validation, tabulation, `EquilibriumReport.row` and
`PayoffMatrix` alike.  Its order, lexicographic in declaration order, is
the profile order everywhere.

Outcome tables are accepted in bulk and diagnosed by a walk.
`_table_problems` first tries `_table_accepted`: as many entries as
profiles, every profile among them, and every value good, checked in a few
C-level set and map passes over the whole table.  Values are judged by one
rule, whatever the space: its `_contains_all`, which `in` applies to one
value (a `PayoffMatrix` passes its own rule, on payoff counts).  Only a
table that fails that is walked entry by entry (`_table_walk`), which asks
the same rule of each value and reports every problem, located, in a fixed
order.  So a valid table costs no Python-level call per entry, and an
invalid one gets the same diagnostics as before.

How `enumerate_equilibria` sweeps.  Profile k is entry k of one flat list
in that order, a mixed-radix number whose last digit is the last player's
move.  Profiles that differ only in player i's move form a deviation line,
and every profile on it hands player i the same context.

1. Tabulate (`OutcomeFunction._tabulate`).  A majority winner over few
   labels is decoded once per distinct tally of votes; other outcome
   functions are called once per profile.
2. Intern.  Equal outcomes share a dense id, 0..D-1 in order of first
   appearance, and `by_id` keeps one representative outcome per id (the
   first profile's), so each key is hashed once.  The outcome space gives
   the keys (`_keys`): atoms and profiles key themselves, and a payoff
   vector is keyed by its tuple of level indices, not by its Fractions
   (`VectorOutcomes._keys` looks every payoff of the table up once, in
   bulk).  With at most 256 ids, `ids`, one id per profile, is a `bytes`;
   else a list.  When every player takes the score path (below), no ids
   are needed and none are made.
3. Sweep, player by player (`_player_flags`).  Column j lists, line by
   line, the id at the profile where the player plays move j;
   `_move_slices` says where those sit, so the columns are filled by slice
   assignment.  A line's ids are its key: equal keys mean equal contexts.
   The goal runs once per distinct key, on the real values (`by_id`), in
   the order a line-by-line walk (block by block, then offset by offset)
   first meets them, and that one call judges the line under both
   concepts (`_defections`): each move gets one flag byte, bit 0 a
   quantifier and bit 1 a selection defection.  Slice assignments then
   write each move's column of flags back to one `bytearray` per player in
   profile order.  Keys and verdicts compare ids, so no outcome is hashed
   after interning.
   - Byte keys.  When the ids are bytes and D**k <= 256 for the player's
     k moves (every majority game over two labels), a line's key is one
     byte, `Σ id_j · D**j`, and no Python object is made per line.  The
     columns are `bytearray`s, and the keys are built from them in C, by
     a `translate` through a "times D" table and an add of the next
     column as one big int, which no byte carries out of.  The position
     of each possible key's first occurrence (`bytes.find`) gives the
     distinct keys in line order, and the goal runs on the ids of the
     line where each first occurs; its k flag bytes for a key fill that
     key's slot in k tables, and translating the keys through table j
     gives move j's column of flags.  This pays once the player has more
     lines than the D**k keys `find` tries.
   - Tuple keys.  Otherwise (more than 256 ids, D**k > 256, or no more
     lines than possible keys, as in a bundled game of 8 profiles)
     zipping the columns gives every line's key, a tuple of ids, and
     `dict.fromkeys` of the keys is the memo.  The keys, mapped through
     the memo and joined end to end, give every line's flag string;
     every k-th byte from byte j is move j's column of flags.
   A goal that is exactly `ArgmaxCoord` (so `Game` has checked that the
   outcomes are vectors) takes the score path: it is never called, and no
   key is built.  Its columns hold each move's score, the level index of
   its payoff coordinate, as `ArgmaxCoord._scores` gives it for the whole
   table: the scores its own call compares.  A
   move whose score is below the best on its line fails both concepts
   (flag byte 3; the goal is closed, so the two verdicts agree) and every
   other move passes both.  Subclasses, `Lex` and every other goal are
   keyed.
4. Rows zip the players' flags profile by profile and decode each tuple
   of flag bytes through one `_Verdicts`, so equal tuples share one entry.
   Rows hold each profile's outcome as the outcome function returned it.

`evaluate_profile` judges a single profile by walking just the n lines
through it, calling every goal, and decodes its flag bytes the same way.

The classical layer (payoff matrices, argmax players, brute-force Nash)
exists so the general machinery can be cross-checked against ordinary
game theory on the games where both apply.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import compress, count
from operator import add, eq, itemgetter, lt
from typing import Iterator, Mapping, NamedTuple, Optional

from .core import (
    ArgmaxCoord,
    AtomOutcomes,
    GameContext,
    MoveSet,
    OutcomeSpace,
    ProductOutcomes,
    SelectionFunction,
    VectorOutcomes,
    _exact,
    check_shape,
    may_be_empty,
)
from .errors import (
    BudgetExceededError,
    HogError,
    InvalidProfileError,
    PlayerOutOfRangeError,
)

#: Cap on the number of strategy profiles an exhaustive sweep will visit.
#: A sweep's peak memory grows by about 280-510 bytes per profile (majority
#: games of 15 and 17 voters; the rows dominate, and an interned id takes
#: one byte), so a sweep at this cap peaks near 1 GiB and a larger game ends
#: in BudgetExceededError, not in running out of memory.
DEFAULT_PROFILE_BUDGET = 2**21


@dataclass(frozen=True)
class Player:
    name: str
    moves: MoveSet
    selection: SelectionFunction


@dataclass(frozen=True)
class OutcomeFunction:
    """Total map from strategy profiles to outcomes.

    `kind` is one of "majority", "identity", "table".  Only tables carry
    entries; the other two are computed from the profile directly.
    """

    kind: str
    entries: tuple = ()

    def __post_init__(self):
        if self.kind not in ("majority", "identity", "table"):
            raise ValueError(f"unknown outcome function kind {self.kind!r}")
        ent = _entries(self.entries)
        if ent and self.kind != "table":
            raise ValueError(f"{self.kind} outcome functions take no entries")
        object.__setattr__(self, "entries", ent)

    @cached_property
    def _table(self) -> dict:
        return dict(self.entries)

    def __call__(self, profile: tuple):
        profile = tuple(profile)
        if self.kind == "identity":
            return profile
        if self.kind == "majority":
            return _majority_winner(set(profile), profile.count)
        try:
            return self._table[profile]
        except KeyError:
            raise InvalidProfileError(f"no outcome listed for profile {profile!r}") from None

    def _tabulate(self, move_sets) -> list:
        """Every profile's outcome, as `__call__` gives it, in profile order
        (`ProductOutcomes(move_sets)` order: mixed radix, last player fastest).

        A majority winner depends on the vote counts alone.  So each profile
        is keyed by one int whose digit r, base n + 1, counts the votes for
        the r-th label in sorted order, and each distinct key is decoded
        once.  That pays only while a key fits in 62 bits: with many labels
        a key grows by a digit per label and every decode costs a big-int
        division per label, so such games, like tables and identity, call
        `__call__` once per profile.
        """
        n, width = len(move_sets), len(move_sets[0].labels)
        if self.kind != "majority" or width * (n + 1).bit_length() > 62:
            return list(map(self, ProductOutcomes(move_sets).iter_outcomes()))
        labels = sorted(move_sets[0].labels)
        weight = {x: (n + 1) ** r for r, x in enumerate(labels)}
        keys = [0]
        for ms in move_sets:
            weights = [weight[x] for x in ms.labels]
            keys = [k + w for k in keys for w in weights]
        winner = dict.fromkeys(keys)
        for key in winner:
            votes = {x: key // w % (n + 1) for x, w in weight.items()}
            winner[key] = _majority_winner(labels, votes.__getitem__)
        return list(map(winner.__getitem__, keys))


def _majority_winner(labels, votes):
    """Majority rule, for `OutcomeFunction.__call__` and `_tabulate` alike:
    the label with the most votes (`votes` maps a label to its count), a tie
    going to the label that sorts first.  With an odd number of voters over
    two candidates ties never arise."""
    return max(sorted(labels), key=votes)


def _entries(ent) -> tuple:
    """A mapping or (profile, value) pairs, as (tuple(profile), value) pairs."""
    if isinstance(ent, Mapping):
        ent = ent.items()
    return tuple((tuple(profile), value) for profile, value in ent)


def majority_rule() -> OutcomeFunction:
    return OutcomeFunction("majority")


def identity_rule() -> OutcomeFunction:
    return OutcomeFunction("identity")


def outcome_table(entries) -> OutcomeFunction:
    return OutcomeFunction("table", entries)


@dataclass(frozen=True)
class GameProblem:
    """One reason a game is ill formed.

    `where` locates it: ``("player", i)`` for the i-th player (0-based),
    ``("entry", k)`` for the k-th outcome table entry as given,
    ``("table", None)`` for the table as a whole (a profile is missing), or
    ``("game", None)`` for the game as a whole.  `code` is the diagnostic
    code the text format reports it under; `error` the exception type
    `Game` raises for it.
    """

    message: str
    error: type
    code: str
    where: tuple


def _fmt_profile(profile) -> str:
    return "(%s)" % ", ".join(map(str, profile))


def game_problems(
    players: tuple[Player, ...], outcomes: OutcomeSpace, fn: OutcomeFunction
) -> Iterator[GameProblem]:
    """Every reason the parts do not make a game, in a fixed order.

    Players come first, each goal checked for emptiness and then for shape;
    then the outcome function.  Table entries are checked in the order
    given: shape, then duplicates, then the value.
    """
    game = ("game", None)
    if not players:
        yield GameProblem("a game needs at least one player", ValueError, "missing", game)
        return
    names = [p.name for p in players]
    if len(set(names)) != len(names):
        yield GameProblem(
            f"duplicate player names in {names!r}", ValueError, "duplicate", game
        )
    for i, p in enumerate(players):
        if may_be_empty(p.selection):
            yield GameProblem(
                f"player {p.name}: this goal can reject every move; "
                "give it a fallback inside lex(...)",
                ValueError, "type-mismatch", ("player", i),
            )
            continue
        try:
            check_shape(p.selection, p.moves, outcomes)
        except HogError as e:
            yield GameProblem(f"player {p.name}: {e}", type(e), "type-mismatch", ("player", i))

    move_sets = tuple(p.moves for p in players)
    profiles = ProductOutcomes(move_sets)
    if fn.kind == "identity":
        if outcomes != profiles:
            yield GameProblem(
                "identity outcome function needs `outcomes = moves`",
                ValueError, "type-mismatch", game,
            )
    elif fn.kind == "majority":
        # any crowd over one shared set of moves; ties go to the label that
        # sorts first, so every shared move can win
        message = None
        if not isinstance(outcomes, AtomOutcomes):
            message = "majority rule needs atom outcomes"
        elif any(set(ms) != set(move_sets[0]) for ms in move_sets):
            message = "majority rule needs every player to share one move set"
        elif not outcomes._contains_all(move_sets[0].labels):
            message = "majority winners would fall outside the outcome space"
        if message:
            yield GameProblem(message, ValueError, "type-mismatch", game)
    else:
        yield from _table_problems(
            profiles, fn.entries, outcomes._contains_all, "lies outside the outcome space"
        )


def _table_problems(profiles, entries, values_ok, message) -> Iterator[GameProblem]:
    """Every reason `entries` is not a total table over `profiles`, the
    `ProductOutcomes` of the move sets, as `_table_walk` finds them.

    `values_ok(values)` is the one rule for values: it judges a sequence
    of them at once, and `message` says what is wrong with a value it
    rejects.  A valid table is accepted in bulk (`_table_accepted`), and
    only a table that fails that is walked entry by entry, to diagnose it."""
    if not _table_accepted(profiles, entries, values_ok):
        yield from _table_walk(profiles, entries, values_ok, message)


def _table_accepted(profiles, entries, values_ok) -> bool:
    """Is `entries` a total table over `profiles` with good values?

    Checked in a few C-level passes over the table: as many entries as
    profiles, every profile among them (so none repeats and none is off
    the move sets), and `values_ok` of the values.  True only if
    `_table_walk` finds nothing; False also for an unhashable label."""
    if len(entries) != profiles.size():
        return False
    try:
        listed = set(map(itemgetter(0), entries))
    except TypeError:
        return False
    return listed.issuperset(profiles.iter_outcomes()) and values_ok(
        list(map(itemgetter(1), entries))
    )


def _table_walk(profiles, entries, values_ok, message) -> Iterator[GameProblem]:
    """Every reason `entries` is not a total table over `profiles`, found
    entry by entry.

    Per entry, in the order given: its profile's shape (is it one of
    `profiles`?), a repeat, then its value, which `values_ok((value,))`
    judges and `message` describes.  Then the misses, the first in
    `profiles` order."""
    listed = set()
    for k, (profile, value) in enumerate(entries):
        if profile not in profiles:
            yield GameProblem(
                f"profile {_fmt_profile(profile)} does not match the move sets",
                InvalidProfileError, "type-mismatch", ("entry", k),
            )
        elif profile in listed:
            yield GameProblem(
                f"profile {_fmt_profile(profile)} listed twice",
                ValueError, "duplicate", ("entry", k),
            )
        else:
            listed.add(profile)
            if not values_ok((value,)):
                yield GameProblem(
                    f"outcome for {_fmt_profile(profile)} {message}",
                    ValueError, "type-mismatch", ("entry", k),
                )
    total = profiles.size()
    if len(listed) < total:
        first = next(s for s in profiles.iter_outcomes() if s not in listed)
        yield GameProblem(
            f"outcome table misses {total - len(listed)} profile(s), "
            f"e.g. {_fmt_profile(first)}",
            ValueError, "arity", ("table", None),
        )


@dataclass(frozen=True)
class Game:
    """A finite game; construction validates shapes so evaluation cannot.

    Rejected here, with the first of `game_problems`: duplicate player
    names, selections that cannot match the outcome space, selections that
    can come back empty (they would make a player impossible to satisfy),
    and outcome functions that are partial or step outside the outcome
    space.
    """

    name: str
    players: tuple[Player, ...]
    outcomes: OutcomeSpace
    outcome_fn: OutcomeFunction

    def __post_init__(self):
        object.__setattr__(self, "players", tuple(self.players))
        for problem in game_problems(self.players, self.outcomes, self.outcome_fn):
            raise problem.error(problem.message)
        fn = self.outcome_fn
        if fn.kind == "table":
            # canonicalize entry order so equal games compare equal however
            # their tables were written down; the table is total, no repeats.
            # Its lookup dict is built here, with the game, not in a solve.
            table = fn._table
            listed = map(itemgetter(0), fn.entries)
            if not all(map(eq, listed, self.profiles())):
                ordered = tuple((s, table[s]) for s in self.profiles())
                object.__setattr__(self, "outcome_fn", OutcomeFunction("table", ordered))

    @property
    def n(self) -> int:
        return len(self.players)

    @cached_property
    def _profiles(self) -> ProductOutcomes:
        """The strategy profiles, as the product of the players' move sets."""
        return ProductOutcomes(tuple(p.moves for p in self.players))

    def profile_count(self) -> int:
        return self._profiles.size()

    def profiles(self) -> Iterator[tuple]:
        """All strategy profiles in `ProductOutcomes` order: lexicographic in
        declaration order, last player fastest."""
        return self._profiles.iter_outcomes()

    def check_profile(self, profile) -> tuple:
        profile = tuple(profile)
        if len(profile) != self.n:
            raise InvalidProfileError(
                f"profile {profile!r} has {len(profile)} moves for {self.n} players"
            )
        if not self._profiles._contains_all((profile,)):
            x, name = next((x, p.name) for x, p in zip(profile, self.players) if x not in p.moves)
            raise InvalidProfileError(f"{x!r} is not a move of player {name}")
        return profile

    def outcome(self, profile):
        return self.outcome_fn(self.check_profile(profile))


def unilateral_context(game: Game, profile, i: int) -> GameContext:
    """The context player i faces at `profile`: their own deviations mapped
    through the outcome function with everyone else pinned."""
    s = game.check_profile(profile)
    if not 1 <= i <= game.n:
        raise PlayerOutOfRangeError(f"player index {i} out of range 1..{game.n}")
    return _context(game, s, i)


def _context(game: Game, s: tuple, i: int) -> GameContext:
    """`unilateral_context` at a profile tuple `check_profile` returned."""
    moves = game.players[i - 1].moves
    values = tuple(
        game.outcome_fn(s[: i - 1] + (x,) + s[i:]) for x in moves
    )
    return GameContext(moves, game.outcomes, values)


class ProfileResult(NamedTuple):
    """Verdicts for one strategy profile under both equilibrium notions."""

    profile: tuple
    outcome: object
    quantifier_eq: bool
    quantifier_defectors: tuple[str, ...]
    selection_eq: bool
    selection_defectors: tuple[str, ...]


@dataclass(frozen=True)
class EquilibriumReport:
    """Every profile of a game judged under both equilibrium notions."""

    game: Game
    rows: tuple[ProfileResult, ...]

    def quantifier_equilibria(self) -> tuple:
        return tuple(r.profile for r in self.rows if r.quantifier_eq)

    def selection_equilibria(self) -> tuple:
        return tuple(r.profile for r in self.rows if r.selection_eq)

    def row(self, profile) -> ProfileResult:
        """The row of `profile`, found by its `ProductOutcomes.rank` among the
        game's profiles: `ProductOutcomes` order is the order
        `enumerate_equilibria` lists rows in."""
        profile = tuple(profile)
        try:  # rank raises ValueError for a wrong length or a non-move
            return self.rows[self.game._profiles.rank(profile)]
        except ValueError:
            raise InvalidProfileError(f"no row for profile {profile!r}") from None


def _defections(selection: SelectionFunction, p: GameContext, keys: tuple) -> bytes:
    """One player's verdicts along one deviation line, from one goal call.

    `keys` stands for `p.table` position by position: keys[j] == keys[k]
    exactly when the outcomes at moves j and k are equal.  The table itself
    qualifies, and so do interned outcome ids.

    Returns one flag string aligned with the moves of `p`.  Byte j says how
    a profile in which the player plays move j fails the player's goal:
    bit 0 as a quantifier (its outcome is not one the lifted selection
    approves), bit 1 as a selection (move j is not chosen).  A chosen move's
    outcome is approved, so bit 1 is set wherever bit 0 is.
    """
    chosen = selection(p)
    index = p.domain.index
    good = {keys[index(x)] for x in chosen}
    picked = set(chosen)
    return bytes(
        (k not in good) | (x not in picked) << 1 for k, x in zip(keys, p.domain.labels)
    )


class _Verdicts(dict):
    """`ProfileResult`'s four verdict fields per tuple of flag bytes in
    player order (bit 0 a quantifier, bit 1 a selection defection)."""

    def __init__(self, names: tuple):
        self.names = names

    def __missing__(self, flags: tuple) -> tuple:
        q = tuple(compress(self.names, [f & 1 for f in flags]))
        s = tuple(compress(self.names, flags))  # bit 1 is set wherever bit 0 is
        verdict = self[flags] = (not q, q, not s, s)
        return verdict


def evaluate_profile(game: Game, profile) -> ProfileResult:
    """Judge one profile by walking the n deviation lines through it.

    Checks the profile once and builds each player's context from the
    checked tuple.  Calls the outcome function once per move of each
    player, plus once for the profile itself, and never tabulates the
    whole game.
    """
    s = game.check_profile(profile)
    flags = []
    for i, p in enumerate(game.players, start=1):
        ctx = _context(game, s, i)
        flags.append(_defections(p.selection, ctx, ctx.table)[p.moves.index(s[i - 1])])
    verdicts = _Verdicts(tuple(p.name for p in game.players))
    return ProfileResult(s, game.outcome_fn(s), *verdicts[tuple(flags)])


def is_quantifier_equilibrium(game: Game, profile) -> tuple[bool, tuple[str, ...]]:
    """Does each player's quantifier approve the realized outcome?

    Returns the verdict together with the names of the players whose
    standard the outcome fails (the would-be defectors).
    """
    r = evaluate_profile(game, profile)
    return r.quantifier_eq, r.quantifier_defectors


def is_selection_equilibrium(game: Game, profile) -> tuple[bool, tuple[str, ...]]:
    """Does each player's selection function pick their own move?"""
    r = evaluate_profile(game, profile)
    return r.selection_eq, r.selection_defectors


def _move_slices(j: int, stride: int, block: int, total: int) -> list[tuple[slice, slice]]:
    """Where move j of a player sits, as (profiles, lines) slice pairs.

    The player's moves split each block of `block` profiles into runs of
    `stride`, one run per move, so profile ``b * block + j * stride + off``
    lies on the player's line ``b * stride + off``.  Each pair maps some of
    those profiles to the lines they lie on: one pair per block or one per
    offset, whichever are fewer.
    """
    blocks, first = total // block, j * stride
    lines = blocks * stride
    if blocks <= stride:
        return [
            (slice(at, at + stride), slice(line, line + stride))
            for at, line in zip(range(first, total, block), range(0, lines, stride))
        ]
    return [
        (slice(first + off, total, block), slice(off, lines, stride))
        for off in range(stride)
    ]


def _scored(p: Player) -> bool:
    """Does p take the score path?  Only a goal that is exactly `ArgmaxCoord`."""
    return type(p.selection) is ArgmaxCoord


def _player_flags(
    p: Player, codomain: OutcomeSpace, outcomes: list, by_id: Optional[list],
    ids: Optional[bytes | list], total: int, block: int,
) -> bytearray:
    """Player p's flags, one byte per profile, laid out as `_defections` says.

    `outcomes` is the tabulated table, one outcome per profile, `ids` the
    interned table, one dense id per profile (a `bytes` when there are at
    most 256 ids, else a list; None when every player takes the score
    path), and `by_id` one outcome per id; `block` is the product of the
    move counts of p and every later player.

    A goal that is exactly `ArgmaxCoord` takes the score path and is never
    called: its scores are `ArgmaxCoord._scores` of `outcomes`.  Every
    other goal runs once per distinct line key, in the order a line walk
    meets them.  A line is keyed by one byte, `Σ id_j · D**j` over its ids
    (`_byte_keyed_flags`), when the ids are bytes, D**k <= 256 for D ids
    and k moves, and the player has more lines than D**k; else by the tuple
    of its ids.  The module docstring says how.
    """
    k = len(p.moves)
    lines, stride = total // k, block // k
    where = [_move_slices(j, stride, block, total) for j in range(k)]
    scored = _scored(p)
    # D**k over at most 9 moves: past 8 it exceeds 256 unless D is 1, and a
    # power over a million moves would take seconds
    by_byte = not scored and isinstance(ids, bytes) and len(by_id) ** min(k, 9) < min(257, lines)
    source = p.selection._scores(codomain, outcomes) if scored else ids
    blank = bytearray(lines) if by_byte else [0] * lines
    columns = [blank.copy() for _ in range(k)]
    for column, pairs in zip(columns, where):
        for at, line in pairs:
            column[line] = source[at]

    def judge(key: tuple) -> bytes:
        values = tuple(map(by_id.__getitem__, key))
        ctx = GameContext._trusted(p.moves, codomain, values)
        return _defections(p.selection, ctx, key)

    if scored:
        best = list(map(max, *columns)) if k > 1 else columns[0]
        by_move = [bytes(map(lt, column, best)).replace(b"\1", b"\3") for column in columns]
    elif by_byte:
        by_move = _byte_keyed_flags(columns, len(by_id), judge)
    else:
        keys = list(zip(*columns))
        memo = dict.fromkeys(keys)
        for key in memo:
            memo[key] = judge(key)
        joined = b"".join(map(memo.__getitem__, keys))
        by_move = [joined[j::k] for j in range(k)]
    flags = bytearray(total)
    for column, pairs in zip(by_move, where):
        for at, line in pairs:
            flags[at] = column[line]
    return flags


def _byte_keyed_flags(columns: list, d: int, judge) -> list:
    """Each move's flags by line, for k byte columns of ids below `d` with
    d**k <= 256.

    A line's key, `Σ columns[j][line] · d**j`, is built by Horner's rule,
    last column first: a translate by a "times d" table, then the next
    column added as one big int, which no byte carries out of since every
    key is below 256.  Each possible key's first position (`find`), in
    order, gives the distinct keys in the order a line walk meets them;
    `judge` runs once per key, on the ids of the line where it first
    appears, and its k flag bytes fill slot `key` of k tables.  Translating
    the keys by table j gives move j's flags, line by line.
    """
    k, key = len(columns), columns[-1]
    times = bytes(range(0, d**k, d)).ljust(256, b"\0")  # x -> x * d, for x < d**(k-1)
    for column in columns[-2::-1]:
        key = int.from_bytes(key.translate(times), "little") + int.from_bytes(column, "little")
        key = key.to_bytes(len(column), "little")
    tables = bytearray(256 * k)  # table j is tables[256 * j : 256 * (j + 1)]
    for at in sorted(filter((-1).__ne__, map(key.find, range(d**k)))):
        tables[key[at] :: 256] = judge(tuple([column[at] for column in columns]))
    return [key.translate(tables[at : at + 256]) for at in range(0, 256 * k, 256)]


def enumerate_equilibria(
    game: Game, max_profiles: int = DEFAULT_PROFILE_BUDGET
) -> EquilibriumReport:
    """Judge every profile; rows appear in lexicographic profile order
    (mixed radix, last player fastest).

    Raises `BudgetExceededError`, before any outcome is computed, when the
    game has more than `max_profiles` profiles.  Each player's goal runs
    once per distinct context that player meets, in first-seen order, and
    an exact `ArgmaxCoord` goal not at all; the module docstring says how.
    """
    total = game.profile_count()
    if total > max_profiles:
        raise BudgetExceededError(
            f"{total} profiles exceed the budget of {max_profiles}"
        )
    outcomes = game.outcome_fn._tabulate(tuple(p.moves for p in game.players))
    ids = by_id = None
    if not all(map(_scored, game.players)):
        first = {}  # key -> the index of the first profile with that key
        at = list(map(first.setdefault, game.outcomes._keys(outcomes), count()))
        dense = dict(zip(first.values(), count()))  # first index -> dense id
        by_id = list(map(outcomes.__getitem__, dense))
        ids = (bytes if len(by_id) <= 256 else list)(map(dense.__getitem__, at))
    flags, block = [], total  # per player: one flag byte per profile
    for p in game.players:
        flags.append(_player_flags(p, game.outcomes, outcomes, by_id, ids, total, block))
        block //= len(p.moves)
    verdicts = _Verdicts(tuple(p.name for p in game.players))
    # a row's fields: its profile and outcome, then its decoded verdicts
    fields = map(add, zip(game.profiles(), outcomes), map(verdicts.__getitem__, zip(*flags)))
    return EquilibriumReport(game, tuple(map(ProfileResult._make, fields)))


# ---------------------------------------------------------------------------
# Classical games
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PayoffMatrix:
    """A normal-form game: one payoff vector per profile, exact rationals."""

    name: str
    players: tuple[str, ...]
    move_sets: tuple[MoveSet, ...]
    entries: tuple

    def __post_init__(self):
        object.__setattr__(self, "players", tuple(self.players))
        object.__setattr__(
            self,
            "move_sets",
            tuple(m if isinstance(m, MoveSet) else MoveSet(m) for m in self.move_sets),
        )
        if len(self.players) != len(self.move_sets):
            raise ValueError("one move set per player, please")
        if len(set(self.players)) != len(self.players):
            raise ValueError(f"duplicate player names in {self.players!r}")
        n = len(self.players)
        ent = tuple((profile, tuple(map(_exact, pay))) for profile, pay in _entries(self.entries))
        for problem in _table_problems(
            ProductOutcomes(self.move_sets), ent,
            lambda values: set(map(len, values)) <= {n}, f"needs {n} payoffs",
        ):
            raise problem.error(problem.message)
        object.__setattr__(self, "entries", ent)

    @cached_property
    def _table(self) -> dict:
        return dict(self.entries)

    def profiles(self) -> Iterator[tuple]:
        """All profiles, in `ProductOutcomes(move_sets)` order, as `Game`'s."""
        return ProductOutcomes(self.move_sets).iter_outcomes()

    def payoff(self, profile) -> tuple[Fraction, ...]:
        try:
            return self._table[tuple(profile)]
        except KeyError:
            raise InvalidProfileError(f"no payoffs for profile {profile!r}") from None


def classical_game(matrix: PayoffMatrix) -> Game:
    """Recast a payoff matrix as a game of payoff-maximising players."""
    payoffs = map(itemgetter(1), matrix.entries)
    outcomes = VectorOutcomes._from_table(len(matrix.players), payoffs)
    players = tuple(
        Player(nm, ms, ArgmaxCoord(i))
        for i, (nm, ms) in enumerate(zip(matrix.players, matrix.move_sets), start=1)
    )
    return Game(matrix.name, players, outcomes, outcome_table(matrix.entries))


def brute_force_nash(matrix: PayoffMatrix) -> tuple:
    """Pure Nash profiles by direct deviation checking.

    Stays entirely inside the matrix: no contexts, no selection functions.
    A profile survives iff no player can strictly raise their own payoff
    by switching their move alone.
    """
    result = []
    for s in matrix.profiles():
        base = matrix.payoff(s)
        stable = True
        for i, m in enumerate(matrix.move_sets):
            for x in m:
                if x == s[i]:
                    continue
                if matrix.payoff(s[:i] + (x,) + s[i + 1 :])[i] > base[i]:
                    stable = False
                    break
            if not stable:
                break
        if stable:
            result.append(s)
    return tuple(result)
