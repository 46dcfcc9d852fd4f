"""Reference answers for the benchmark, chased straight from the definitions.

Nothing here imports `hog`.  Games, goals and outcome spaces are plain data
(see `workloads.py` for their shape); a context is the tuple of outcomes a
player's moves lead to, aligned with the move list.  Every function answers
a question the benchmark also puts to `hog`, so the two can be compared.
"""

from fractions import Fraction
from itertools import product


def choose(goal, moves, values):
    """The moves a goal picks in the context `moves[k] -> values[k]`,
    in move order."""
    kind = goal[0]
    pairs = list(zip(moves, values))
    if kind == "argmax":  # goal[1] ranks outcomes best first
        ranking = goal[1]
        pos = [ranking.index(v) for v in values]
        best = min(pos)
        return [x for x, p in zip(moves, pos) if p == best]
    if kind == "argmax_coord":
        i = goal[1] - 1
        best = max(v[i] for v in values)
        return [x for x, v in pairs if v[i] == best]
    if kind == "target":  # no fallback: may pick nothing
        i, want = goal[1] - 1, goal[2]
        return [x for x, v in pairs if v[i] == want]
    if kind == "lex":
        first = choose(goal[1], moves, values)
        second = set(choose(goal[2], moves, values))
        both = [x for x in first if x in second]
        return both or first or list(moves)
    if kind == "fix":
        picked = [x for x, v in pairs if v == x]
    elif kind == "nonfix":
        picked = [x for x, v in pairs if v != x]
    elif kind == "fixproj":
        picked = [x for x, v in pairs if v[goal[1] - 1] == x]
    elif kind == "nonfixproj":
        picked = [x for x, v in pairs if v[goal[1] - 1] != x]
    elif kind == "coord":
        picked = [x for x, v in pairs if len(set(v)) == 1]
    else:
        raise ValueError(f"unknown goal {goal!r}")
    return picked or list(moves)


def outcome_values(space):
    """Every outcome of a space, in the order the paper's sweeps use."""
    kind = space[0]
    if kind == "atoms":
        return list(space[1])
    if kind == "product":
        return list(product(*space[1]))
    if kind == "vectors":
        dim, levels = space[1], sorted(Fraction(v) for v in space[2])
        return list(product(levels, repeat=dim))
    raise ValueError(f"unknown outcome space {space!r}")


def majority_winner(profile):
    """The label more than half the voters chose (odd electorates only)."""
    for label in set(profile):
        if 2 * profile.count(label) > len(profile):
            return label
    raise ValueError(f"no majority in {profile!r}")


def outcome_fn(game):
    kind = game["fn"][0]
    if kind == "majority":
        return majority_winner
    if kind == "identity":
        return tuple
    table = game["fn"][1]
    return lambda s: table[tuple(s)]


def solve(game, only=None):
    """Rows (profile, outcome, q_eq, q_defectors, s_eq, s_defectors) for
    every profile in lexicographic order, or just for profile `only`."""
    players = game["players"]
    f = outcome_fn(game)
    profiles = [tuple(only)] if only is not None else product(*(m for _, m, _ in players))
    rows = []
    for s in profiles:
        r = f(s)
        q_def, s_def = [], []
        for i, (name, moves, goal) in enumerate(players):
            values = [f(s[:i] + (x,) + s[i + 1:]) for x in moves]
            picked = choose(goal, moves, values)
            if r not in {values[moves.index(x)] for x in picked}:
                q_def.append(name)
            if s[i] not in picked:
                s_def.append(name)
        rows.append((s, r, not q_def, tuple(q_def), not s_def, tuple(s_def)))
    return rows


def nash(move_sets, payoff):
    """Pure Nash profiles: nobody gains strictly by deviating alone."""
    found = []
    for s in product(*move_sets):
        own = payoff[s]
        if all(
            payoff[s[:i] + (x,) + s[i + 1:]][i] <= own[i]
            for i, moves in enumerate(move_sets)
            for x in moves
        ):
            found.append(s)
    return found


def closedness(goal, moves, space):
    """First context (in sweep order) where a picked move x leaves out a
    move y with the same outcome: (swept, (values, x, y)), or (swept, None)."""
    swept = 0
    for values in product(outcome_values(space), repeat=len(moves)):
        swept += 1
        picked = choose(goal, moves, values)
        kept = set(picked)
        by_move = dict(zip(moves, values))
        for x in picked:
            for y in moves:
                if y not in kept and by_move[y] == by_move[x]:
                    return swept, (values, x, y)
    return swept, None


def attains_own_lift(goal, moves, space):
    """Does every picked move reach an outcome of the goal's lift, i.e. an
    outcome some picked move reaches?  (swept, witness-or-None)."""
    swept = 0
    for values in product(outcome_values(space), repeat=len(moves)):
        swept += 1
        picked = choose(goal, moves, values)
        lifted = {values[moves.index(x)] for x in picked}
        for x in picked:
            if values[moves.index(x)] not in lifted:
                return swept, (values, x)
    return swept, None
