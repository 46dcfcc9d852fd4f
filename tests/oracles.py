"""Independent brute-force oracle used to pin expected equilibrium fixtures.

Everything here is written directly from the mathematical definitions and
deliberately shares no code with the ``hog`` package: contexts are plain
dicts, selection functions are plain closures over dicts, and the
equilibrium sweep below is a straight transcription of the two membership
tests.  Tests compare engine output against these results.
"""

from itertools import product


def fix_sel(p):
    """Fixpoints of a self-map context, every move when there are none."""
    good = {x for x in p if p[x] == x}
    return good or set(p)


def nonfix_sel(p):
    good = {x for x in p if p[x] != x}
    return good or set(p)


def fixproj_sel(i):
    """Moves equal to coordinate ``i`` (1-based) of their outcome."""

    def sel(p):
        good = {x for x in p if p[x][i - 1] == x}
        return good or set(p)

    return sel


def nonfixproj_sel(i):
    def sel(p):
        good = {x for x in p if p[x][i - 1] != x}
        return good or set(p)

    return sel


def argmax_order_sel(ranking):
    """Moves whose outcome is best according to ``ranking`` (best first)."""

    def sel(p):
        positions = {x: ranking.index(p[x]) for x in p}
        top = min(positions.values())
        return {x for x in p if positions[x] == top}

    return sel


def argmax_coord_sel(i):
    """Moves maximising coordinate ``i`` (1-based) of a payoff vector."""

    def sel(p):
        top = max(v[i - 1] for v in p.values())
        return {x for x in p if p[x][i - 1] == top}

    return sel


def coord_sel(p):
    good = {x for x in p if p[x][0] == p[x][1]}
    return good or set(p)


def target_sel(i, value):
    return lambda p: {x for x in p if p[x][i - 1] == value}


def lex_sel(primary, secondary):
    def sel(p):
        first = primary(p)
        both = first & secondary(p)
        return both or first or set(p)

    return sel


def unilateral(move_sets, outcome_fn, profile, i):
    """Context for player ``i`` (0-based here) deviating from ``profile``."""
    return {
        x: outcome_fn(profile[:i] + (x,) + profile[i + 1 :])
        for x in move_sets[i]
    }


def brute_equilibria(move_sets, outcome_fn, selections):
    """Per-profile equilibrium table computed from the raw definitions.

    Returns {profile: (outcome, q_eq, q_defectors, s_eq, s_defectors)} with
    defectors given as 0-based player indices.
    """
    table = {}
    for profile in product(*move_sets):
        outcome = outcome_fn(profile)
        q_defect, s_defect = [], []
        for i, sel in enumerate(selections):
            ctx = unilateral(move_sets, outcome_fn, profile, i)
            good_moves = sel(ctx)
            good_outcomes = {ctx[x] for x in good_moves}
            if outcome not in good_outcomes:
                q_defect.append(i)
            if profile[i] not in good_moves:
                s_defect.append(i)
        table[profile] = (
            outcome,
            not q_defect,
            tuple(q_defect),
            not s_defect,
            tuple(s_defect),
        )
    return table


def brute_nash(move_sets, payoff_fn):
    """Pure Nash profiles: no player gains strictly by unilateral deviation."""
    equilibria = []
    for profile in product(*move_sets):
        own = payoff_fn(profile)
        stable = True
        for i, moves in enumerate(move_sets):
            for x in moves:
                if x == profile[i]:
                    continue
                if payoff_fn(profile[:i] + (x,) + profile[i + 1 :])[i] > own[i]:
                    stable = False
                    break
            if not stable:
                break
        if stable:
            equilibria.append(profile)
    return set(equilibria)


def majority(profile):
    return max(set(profile), key=profile.count)


def attains_brute(domain, codomain, selection, quantifier):
    """First context (in product order) where attainment fails, else None."""
    for values in product(codomain, repeat=len(domain)):
        p = dict(zip(domain, values))
        good_outcomes = quantifier(p)
        for x in sorted(selection(p), key=domain.index):
            if p[x] not in good_outcomes:
                return p, x
    return None


def closed_brute(domain, codomain, selection):
    """First (context, picked, excluded) where a picked move shares its
    outcome with a move left out, in product order, else None."""
    for values in product(codomain, repeat=len(domain)):
        p = dict(zip(domain, values))
        chosen = selection(p)
        for x in sorted(chosen, key=domain.index):
            for y in domain:
                if y not in chosen and p[y] == p[x]:
                    return p, x, y
    return None


def fixq_quant(p):
    """Fixpoint outcomes, falling back to the context image."""
    fps = {x for x in p if p[x] == x}
    return fps or set(p.values())


def max_order_quant(ranking):
    """The single best outcome the context attains, ``ranking`` best first."""

    def quant(p):
        return {min(p.values(), key=ranking.index)}

    return quant


def max_coord_quant(i):
    """Attained outcomes whose coordinate ``i`` (1-based) is maximal."""

    def quant(p):
        top = max(v[i - 1] for v in p.values())
        return {v for v in p.values() if v[i - 1] == top}

    return quant
