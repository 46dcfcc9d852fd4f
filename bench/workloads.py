"""The benchmark's four workloads: seeded inputs, the calls that are timed,
and the checks that compare each answer with `oracle.py`.

A workload turns a seed into a list of request specs (plain data, so the
oracle can read them without `hog`), builds `hog` objects from those specs
(the set-up that `setup_s` times), and judges each answer.  Two seeds give
inputs of the same sizes and the same mix of goal kinds; only the goals'
parameters, the payoffs and the file contents change, so the work a pass
does is the same from seed to seed.
"""

import contextlib
import io
import json
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from pathlib import Path
from time import perf_counter

import oracle

F = Fraction

# ---------------------------------------------------------------------------
# Specs -> hog objects
# ---------------------------------------------------------------------------


def hog_goal(hog, goal):
    kind = goal[0]
    if kind == "argmax":
        return hog.ArgmaxOrder(hog.PreferenceOrder(goal[1]))
    if kind == "argmax_coord":
        return hog.ArgmaxCoord(goal[1])
    if kind == "fix":
        return hog.Fix()
    if kind == "nonfix":
        return hog.NonFix()
    if kind == "fixproj":
        return hog.FixProj(goal[1])
    if kind == "nonfixproj":
        return hog.NonFixProj(goal[1])
    if kind == "coord":
        return hog.Coord()
    if kind == "target":
        return hog.TargetCoord(goal[1], goal[2])
    if kind == "lex":
        return hog.Lex(hog_goal(hog, goal[1]), hog_goal(hog, goal[2]))
    raise ValueError(f"unknown goal {goal!r}")


def hog_space(hog, space):
    if space[0] == "atoms":
        return hog.AtomOutcomes(space[1])
    if space[0] == "product":
        return hog.ProductOutcomes(tuple(hog.MoveSet(m) for m in space[1]))
    return hog.VectorOutcomes(space[1], space[2])


def hog_game(hog, game):
    players = tuple(
        hog.Player(name, hog.MoveSet(moves), hog_goal(hog, goal))
        for name, moves, goal in game["players"]
    )
    kind = game["fn"][0]
    if kind == "majority":
        fn = hog.majority_rule()
    elif kind == "identity":
        fn = hog.identity_rule()
    else:
        fn = hog.outcome_table(tuple(game["fn"][1].items()))
    return hog.Game(game["name"], players, hog_space(hog, game["outcomes"]), fn)


def report_rows(report):
    return tuple(
        (r.profile, r.outcome, r.quantifier_eq, r.quantifier_defectors,
         r.selection_eq, r.selection_defectors)
        for r in report.rows
    )


# ---------------------------------------------------------------------------
# Specs -> .hog text.  Written here, not by hog.render_game, so that a change
# to the renderer cannot change the benchmark's inputs.
# ---------------------------------------------------------------------------


def goal_text(goal):
    kind = goal[0]
    if kind == "argmax":
        return "argmax(order: %s)" % " < ".join(reversed(goal[1]))
    if kind == "argmax_coord":
        return f"argmax(coord: {goal[1]})"
    if kind in ("fix", "nonfix", "coord"):
        return kind
    if kind == "fixproj":
        return f"fix(coord: {goal[1]})"
    if kind == "nonfixproj":
        return f"nonfix(coord: {goal[1]})"
    if kind == "target":
        return f"target(coord: {goal[1]}, value: {goal[2]})"
    return f"lex({goal_text(goal[1])}, {goal_text(goal[2])})"


def value_text(value):
    if isinstance(value, str):
        return value
    return "(%s)" % ", ".join(str(v) for v in value)


def hog_text(game):
    lines = ["# generated by the benchmark", f"game {game['name']}"]
    for name, moves, _ in game["players"]:
        lines.append(f"moves {name} = {{ {', '.join(moves)} }}")
    space = game["outcomes"]
    if space[0] == "atoms":
        lines.append(f"outcomes = {{ {', '.join(space[1])} }}")
    elif space[0] == "product":
        lines.append("outcomes = moves")
    else:
        lines.append(f"outcomes = vectors {space[1]}")
    if game["fn"][0] == "table":
        rows = [
            f"  ({', '.join(s)}) -> {value_text(v)}" for s, v in game["fn"][1].items()
        ]
        lines.append("outcome_fn = table {")
        lines.append(" ;\n".join(rows))
        lines.append("}")
    else:
        lines.append(f"outcome_fn = {game['fn'][0]}")
    for name, _, goal in game["players"]:
        lines.append(f"player {name} = {goal_text(goal)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Game generators
# ---------------------------------------------------------------------------

AB = ("A", "B")


def majority_game(rng, name, n):
    """n voters over {A, B}; goals drawn from argmax(order), fix, nonfix and
    lex(fix, argmax).  The kinds are dealt round-robin and then shuffled, so
    every game of a size has the same mix of goals whatever the seed."""
    kinds = [("argmax", "fix", "nonfix", "lex")[i % 4] for i in range(n)]
    rng.shuffle(kinds)
    players = []
    for i, kind in enumerate(kinds, start=1):
        order = ("argmax", tuple(rng.sample(AB, 2)))
        goal = {"argmax": order, "fix": ("fix",), "nonfix": ("nonfix",),
                "lex": ("lex", ("fix",), order)}[kind]
        players.append((f"V{i}", AB, goal))
    return {"name": name, "players": players, "outcomes": ("atoms", AB),
            "fn": ("majority",)}


#: payoff levels of the random matrices; every one of them occurs in every
#: matrix of the sizes used, so the outcome space has the same size per seed.
#: Fixed, not drawn, because comparing Fractions costs more for some values.
LEVELS = (F(-1), F(-1, 2), F(0), F(1, 3), F(1, 2), F(2, 3), F(1))


def payoff_matrix(rng, name, n_players, n_moves):
    moves = tuple(f"m{k}" for k in range(n_moves))
    names = tuple(f"P{i}" for i in range(1, n_players + 1))
    payoff = {
        s: tuple(rng.choice(LEVELS) for _ in range(n_players))
        for s in product(moves, repeat=n_players)
    }
    return {"name": name, "players": names, "moves": (moves,) * n_players,
            "payoff": payoff}


def matrix_game(m):
    """The oracle's view of a payoff matrix: argmax-of-own-payoff players."""
    levels = sorted({v for pay in m["payoff"].values() for v in pay})
    return {
        "name": m["name"],
        "players": [(p, ms, ("argmax_coord", i))
                    for i, (p, ms) in enumerate(zip(m["players"], m["moves"]), start=1)],
        "outcomes": ("vectors", len(m["players"]), tuple(levels)),
        "fn": ("table", m["payoff"]),
    }


def atom_table_game(rng, name, n_players, n_moves, labels):
    moves = tuple(f"mv{k}" for k in range(n_moves))
    profiles = list(product(moves, repeat=n_players))
    # the first entries cover every label, so no outcome is unreachable
    values = list(labels) + [rng.choice(labels) for _ in profiles[len(labels):]]
    players = [(f"P{i}", moves, ("argmax", tuple(rng.sample(labels, len(labels)))))
               for i in range(1, n_players + 1)]
    return {"name": name, "players": players, "outcomes": ("atoms", labels),
            "fn": ("table", dict(zip(profiles, values)))}


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


@dataclass
class Verdict:
    ok: bool
    profiles: int  # strategy profiles judged
    contexts: int  # game contexts judged


class Workload:
    name = ""
    why = ""
    #: fixed per workload so that runs of different speed compare the same
    #: percentile: the highest that leaves at least ten samples beyond it in
    #: a 20-second run of the unoptimised code
    tail_pct = 50

    def specs(self, seed):
        """The request specs of one pass; plain data, same sizes per seed."""
        raise NotImplementedError

    def build(self, hog, specs, workdir):
        """Set-up: hog objects (and files) for the specs; returns one
        zero-argument callable per spec, the call that is timed."""
        raise NotImplementedError

    def digest(self, result):
        """Reduce an answer to a hashable value the check can judge."""
        return result

    def check(self, hog, spec, digest):
        raise NotImplementedError

    def cold(self, seed, workdir):
        """(argv after `python -m hog.cli`, cli spec) of the cold launch."""
        raise NotImplementedError

    def reference_s(self, hog, specs):
        """Seconds spent in hog's own reference solver, never in a verdict."""
        return 0.0


class SolveMajority(Workload):
    name = "solve-majority"
    why = ("atom outcomes and two-move contexts: the engine's per-profile loop "
           "dominates and contexts repeat heavily (at most 4 per player)")
    #: (voters, games per pass)
    sizes = ((9, 8), (11, 2), (13, 1))
    tail_pct = 54

    def specs(self, seed):
        rng = random.Random(f"majority:{seed}")
        return [majority_game(rng, f"vote{n}-{k}", n)
                for n, count in self.sizes for k in range(count)]

    def build(self, hog, specs, workdir):
        games = [hog_game(hog, g) for g in specs]
        return [lambda g=g: hog.enumerate_equilibria(g) for g in games]

    def digest(self, report):
        return report_rows(report)

    def check(self, hog, game, digest):
        rows = oracle.solve(game)
        return Verdict(digest == tuple(rows), len(rows), len(rows) * len(game["players"]))

    def cold(self, seed, workdir):
        game = majority_game(random.Random(f"majority-cold:{seed}"), "vote9", 9)
        path = write(workdir, "cold-vote9.hog", hog_text(game))
        return ["solve", path], ("solve", game, "table", "both", None, 0)


class SolveMatrix(Workload):
    name = "solve-matrix"
    why = ("payoff-vector outcomes: GameContext validation and Fraction "
           "membership dominate, and contexts rarely repeat")
    #: (players, moves each, matrices per pass)
    sizes = ((3, 6, 5), (4, 5, 3), (3, 10, 1))
    tail_pct = 72

    def specs(self, seed):
        rng = random.Random(f"matrix:{seed}")
        return [payoff_matrix(rng, f"mat{n}x{k}-{j}", n, k)
                for n, k, count in self.sizes for j in range(count)]

    @staticmethod
    def matrix(hog, m):
        return hog.PayoffMatrix(m["name"], m["players"], m["moves"],
                                tuple(m["payoff"].items()))

    def build(self, hog, specs, workdir):
        games = [hog.classical_game(self.matrix(hog, m)) for m in specs]
        return [lambda g=g: hog.enumerate_equilibria(g) for g in games]

    def digest(self, report):
        return (report_rows(report), report.quantifier_equilibria(),
                report.selection_equilibria())

    def check(self, hog, m, digest):
        rows, q_eq, s_eq = digest
        expected = oracle.solve(matrix_game(m))
        nash = tuple(oracle.nash(m["moves"], m["payoff"]))
        # brute_force_nash is hog's own reference; the oracle vouches for it
        ok = (rows == tuple(expected) and q_eq == s_eq == nash
              and hog.brute_force_nash(self.matrix(hog, m)) == nash)
        return Verdict(ok, len(rows), len(rows) * len(m["players"]))

    def reference_s(self, hog, specs):
        matrices = [self.matrix(hog, m) for m in specs]
        start = perf_counter()
        for m in matrices:
            hog.brute_force_nash(m)
        return perf_counter() - start

    def cold(self, seed, workdir):
        m = payoff_matrix(random.Random(f"matrix-cold:{seed}"), "mat3x6", 3, 6)
        game = matrix_game(m)
        path = write(workdir, "cold-mat3x6.hog", hog_text(game))
        return ["solve", path], ("solve", game, "table", "both", None, 0)


def labels(prefix, n):
    return tuple(f"{prefix}{k}" for k in range(n))


class LawSweeps(Workload):
    name = "law-sweeps"
    why = ("is_closed and attains over every context with |X| = |R| in {5, 6}: "
           "only core works, and every context is distinct")
    tail_pct = 93

    def specs(self, seed):
        rng = random.Random(f"laws:{seed}")
        x5, x6 = labels("x", 5), labels("x", 6)
        argmax = lambda xs: ("argmax", tuple(rng.sample(xs, len(xs))))
        atoms5, product5 = ("atoms", x5), ("product", (x5,))
        closed, attains, both = ("closed",), ("attains",), ("closed", "attains")
        # One sweep of 6**6 contexts per pass carries a third of the time.
        # Below it, three sweeps over payoff vectors of the same cost make the
        # tail and many sweeps over 5**5 atoms the median, each a block of
        # alike requests, so that neither percentile falls between two kinds.
        cases = [
            (attains, x6, ("atoms", x6), argmax(x6)),
            (closed, x6, ("atoms", x6), ("fix",)),
            (closed, x6, ("atoms", x6), ("nonfix",)),
            (both, x5, ("vectors", 1, LEVELS[0:5]), ("argmax_coord", 1)),
            (attains, x5, ("vectors", 1, LEVELS[1:6]), ("argmax_coord", 1)),
            (attains, x5, ("vectors", 1, LEVELS[2:7]), ("argmax_coord", 1)),
            (both, x5, atoms5, argmax(x5)),
            (both, x5, atoms5, ("fix",)),
            (both, x5, atoms5, ("nonfix",)),
            (both, x5, atoms5, ("lex", ("fix",), argmax(x5))),
            (both, x5, atoms5, ("lex", ("nonfix",), argmax(x5))),
            (both, x5, product5, ("fixproj", 1)),
            (both, x5, product5, ("nonfixproj", 1)),
            (both, x5, product5, ("lex", ("fixproj", 1), ("target", 1, rng.choice(x5)))),
        ]
        return [(law, moves, space, goal)
                for laws, moves, space, goal in cases for law in laws]

    def build(self, hog, specs, workdir):
        calls = []
        for law, moves, space, goal in specs:
            e, dom, cod = hog_goal(hog, goal), hog.MoveSet(moves), hog_space(hog, space)
            if law == "closed":
                calls.append(lambda e=e, dom=dom, cod=cod: hog.is_closed(e, dom, cod))
            else:
                calls.append(lambda e=e, dom=dom, cod=cod:
                             hog.attains(e, hog.lift_selection(e), dom, cod))
        return calls

    def digest(self, result):
        w = result.witness
        if w is None:
            return (result.holds, None)
        if hasattr(w, "excluded_move"):
            return (result.holds, (w.context.table, w.good_move, w.excluded_move))
        return (result.holds, (w.context.table, w.move))

    def check(self, hog, spec, digest):
        law, moves, space, goal = spec
        sweep = oracle.closedness if law == "closed" else oracle.attains_own_lift
        swept, witness = sweep(goal, moves, space)
        return Verdict(digest == (witness is None, witness), 0, swept)

    def cold(self, seed, workdir):
        rng = random.Random(f"laws-cold:{seed}")
        x5 = labels("x", 5)
        image = rng.sample(x5, 5)
        game = {"name": "law5", "players": [("P", x5, ("argmax", tuple(rng.sample(x5, 5))))],
                "outcomes": ("atoms", x5),
                "fn": ("table", {(x,): v for x, v in zip(x5, image)})}
        path = write(workdir, "cold-law5.hog", hog_text(game))
        return ["analyze", path], ("analyze", game, "table", 0)


BUILTINS = {
    # the nine preset games, restated from their descriptions
    "voting-intro": ("majority", [("argmax", ("A", "B")), ("fix",), ("fix",)]),
    "voting-classical": ("majority", [("argmax", ("A", "B")), ("argmax", ("A", "B")),
                                      ("argmax", ("B", "A"))]),
    "voting-keynes": ("majority", [("argmax", ("A", "B")), ("fix",), ("fix",)]),
    "voting-allfix": ("majority", [("fix",)] * 3),
    "voting-allpunk": ("majority", [("nonfix",)] * 3),
    "meeting-ny": (("E", "G"), [("fixproj", 2), ("fixproj", 1)]),
    "matching-pennies": (("H", "T"), [("fixproj", 2), ("nonfixproj", 1)]),
    "bos-lex": (("B", "F"), [("lex", ("coord",), ("target", 1, "B")),
                             ("lex", ("coord",), ("target", 2, "F"))]),
    "bos-agreement": ("pact", [("lex", ("coord",), ("target", 1, "B")),
                               ("lex", ("coord",), ("target", 2, "F"))]),
}


def builtin_game(name):
    shape, goals = BUILTINS[name]
    if shape == "majority":
        players = [(f"J{i}", AB, g) for i, g in enumerate(goals, start=1)]
        return {"name": name, "players": players, "outcomes": ("atoms", AB),
                "fn": ("majority",)}
    if shape == "pact":  # a husband alone at the football goes to the ballet
        moves = ("B", "F")
        table = {s: (("B", "B") if s == ("B", "F") else s) for s in product(moves, repeat=2)}
        fn = ("table", table)
    else:
        moves, fn = shape, ("identity",)
    names = ("W", "H") if name.startswith("bos") else ("P1", "P2")
    return {"name": name, "players": [(p, moves, g) for p, g in zip(names, goals)],
            "outcomes": ("product", (moves, moves)), "fn": fn}


class CliRequests(Workload):
    name = "cli-requests"
    why = ("in-process hog.cli.main requests on builtins and generated .hog files, "
           "including exits 2 and 3: dsl, rendering and per-request costs")
    tail_pct = 99

    def specs(self, seed):
        rng = random.Random(f"cli:{seed}")
        xyz = ("X", "Y", "Z")
        abc = ("a", "b", "c")
        g = {
            "vote7": majority_game(rng, "vote7", 7),
            "vote5": majority_game(rng, "vote5", 5),
            "vote25": majority_game(rng, "vote25", 25),
            "meet3": {
                "name": "meet3",
                "players": [("P1", abc, ("lex", ("coord",), ("target", 1, rng.choice(abc)))),
                            ("P2", abc, ("nonfixproj", 1))],
                "outcomes": ("product", (abc, abc)), "fn": ("identity",)},
            "atoms3": atom_table_game(rng, "atoms3", 3, 4, xyz),
            "matrix2": matrix_game(payoff_matrix(rng, "matrix2", 2, 5)),
            # about 28 KB of outcome table, so parsing dominates the request
            "heavy": atom_table_game(rng, "heavy", 3, 10, ("W",) + xyz),
        }
        reqs = []
        for name in BUILTINS:
            game = builtin_game(name)
            for fmt in ("table", "json"):
                reqs.append((["solve", "--builtin", name, "--format", fmt],
                             ("solve", game, fmt, "both", None, 0)))
                reqs.append((["analyze", "--builtin", name, "--format", fmt],
                             ("analyze", game, fmt, 0)))
        heavy = [tuple(rng.choice(m) for _, m, _ in g["heavy"]["players"]) for _ in range(2)]
        vote25 = tuple(rng.choice(AB) for _ in range(25))
        reqs += [
            (["solve", "@vote7"], ("solve", g["vote7"], "table", "both", None, 0)),
            (["solve", "@vote7", "--format", "json", "--concept", "selection"],
             ("solve", g["vote7"], "json", "selection", None, 0)),
            (["analyze", "@vote7"], ("analyze", g["vote7"], "table", 0)),
            (["solve", "@vote5", "--format", "json", "--concept", "quantifier"],
             ("solve", g["vote5"], "json", "quantifier", None, 0)),
            (["analyze", "@vote5", "--format", "json"], ("analyze", g["vote5"], "json", 0)),
            (["solve", "@meet3"], ("solve", g["meet3"], "table", "both", None, 0)),
            (["analyze", "@meet3", "--format", "json"], ("analyze", g["meet3"], "json", 0)),
            (["solve", "@atoms3", "--format", "json"],
             ("solve", g["atoms3"], "json", "both", None, 0)),
            (["solve", "@matrix2"], ("solve", g["matrix2"], "table", "both", None, 0)),
            (["solve", "@heavy", "--profile", ",".join(heavy[0])],
             ("solve", g["heavy"], "table", "both", heavy[0], 0)),
            (["solve", "@heavy", "--format", "json", "--profile", ",".join(heavy[1])],
             ("solve", g["heavy"], "json", "both", heavy[1], 0)),
            (["solve", "@vote25", "--profile", ",".join(vote25)],
             ("solve", g["vote25"], "table", "both", vote25, 0)),
            # 2**25 profiles: a full sweep must be refused by the budget
            (["solve", "@vote25"], ("error", 3)),
            (["solve", "@broken"], ("error", 2)),
            (["solve", "--builtin", "no-such-game"], ("error", 2)),
            (["solve", "--builtin", "voting-keynes", "--profile", "A,C,A"], ("error", 2)),
            (["solve", "--builtin", "bos-lex", "--max-profiles", "3"], ("error", 3)),
            (["analyze", "@vote7", "--max-contexts", "3"], ("error", 3)),
        ]
        texts = {name: hog_text(game) for name, game in g.items()}
        texts["broken"] = texts["vote7"].replace("moves V2 = { A, B }", "moves V2 = { A, A }")
        # "@name" in an argv stands for the file written from texts[name]
        return [(argv, question, texts) for argv, question in reqs]

    def build(self, hog, specs, workdir):
        paths = {name: write(workdir, f"{name}.hog", text)
                 for name, text in specs[0][2].items()}
        argvs = [[paths[a[1:]] if a.startswith("@") else a for a in argv]
                 for argv, _, _ in specs]
        return [lambda argv=argv: call_main(hog, argv) for argv in argvs]

    def check(self, hog, spec, digest):
        return check_cli(spec[1], *digest)

    def cold(self, seed, workdir):
        return (["solve", "--builtin", "voting-keynes"],
                ("solve", builtin_game("voting-keynes"), "table", "both", None, 0))


WORKLOADS = {w.name: w for w in (SolveMajority(), SolveMatrix(), LawSweeps(), CliRequests())}


def write(workdir, name, text):
    path = Path(workdir) / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def call_main(hog, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = hog.cli.main(argv)
        except SystemExit as e:  # argparse refusing the arguments
            code = e.code
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# Checking CLI answers against the oracle
# ---------------------------------------------------------------------------


def fmt_moves(labels):
    return "".join(labels) if all(len(x) == 1 for x in labels) else ",".join(labels)


def fmt_outcome(v):
    if isinstance(v, str):
        return v
    if all(isinstance(x, str) for x in v):
        return fmt_moves(v)
    return "(%s)" % ", ".join(str(F(x)) for x in v)


def json_outcome(v):
    if isinstance(v, str):
        return v
    return [x if isinstance(x, str) else str(F(x)) for x in v]


def table_rows(text):
    return [re.split(r" {2,}", line) for line in text.rstrip("\n").split("\n")]


def check_cli(question, code, out, err):
    """Judge one CLI answer; exit 2 and 3 are right when they are expected."""
    kind = question[0]
    if kind == "error":
        ok = code == question[1] and out == "" and "error" in err
        return Verdict(ok, 0, 0)
    if kind == "solve":
        _, game, fmt, concept, profile, want = question
        rows = oracle.solve(game, only=profile)
        ok = code == want and err == "" and solve_output_ok(game, rows, fmt, concept,
                                                           profile is None, out)
        return Verdict(ok, len(rows), len(rows) * len(game["players"]))
    _, game, fmt, want = question
    results, swept = [], 0
    for name, moves, goal in game["players"]:
        n_closed, witness = oracle.closedness(goal, moves, game["outcomes"])
        n_lift, lift_witness = oracle.attains_own_lift(goal, moves, game["outcomes"])
        swept += n_closed + n_lift
        results.append((name, moves, witness, lift_witness is None))
    ok = code == want and err == "" and analyze_output_ok(game, results, fmt, out)
    return Verdict(ok, 0, swept)


def solve_output_ok(game, rows, fmt, concept, full, out):
    q, s = concept != "selection", concept != "quantifier"
    if fmt == "json":
        try:
            doc = json.loads(out)
        except ValueError:
            return False
        want = {"schema_version": 1, "game": game["name"],
                "players": [p for p, _, _ in game["players"]],
                "concept": concept, "rows": []}
        for prof, r, q_eq, q_def, s_eq, s_def in rows:
            row = {"strategy": list(prof), "outcome": json_outcome(r)}
            if q:
                row.update(quantifier_eq=q_eq, q_defects=list(q_def))
            if s:
                row.update(selection_eq=s_eq, s_defects=list(s_def))
            want["rows"].append(row)
        if full and q:
            want["quantifier_equilibria"] = [list(r[0]) for r in rows if r[2]]
        if full and s:
            want["selection_equilibria"] = [list(r[0]) for r in rows if r[4]]
        return doc == want
    header = ["Strategy", "Outcome"]
    header += ["QuantifierEq", "QDefects"] if q else []
    header += ["SelectionEq", "SDefects"] if s else []
    want = [header]
    for prof, r, q_eq, q_def, s_eq, s_def in rows:
        cells = [fmt_moves(prof), fmt_outcome(r)]
        if q:
            cells += ["yes" if q_eq else "no", ", ".join(q_def) or "-"]
        if s:
            cells += ["yes" if s_eq else "no", ", ".join(s_def) or "-"]
        want.append(cells)
    return table_rows(out) == want


def analyze_output_ok(game, results, fmt, out):
    if fmt == "json":
        try:
            doc = json.loads(out)
        except ValueError:
            return False
        players = []
        for name, moves, w, lifted in results:
            witness = None if w is None else {
                "context": {x: json_outcome(v) for x, v in zip(moves, w[0])},
                "good_move": w[1], "excluded_move": w[2]}
            players.append({"name": name, "closed": w is None, "witness": witness,
                            "attains_lift": lifted})
        return doc == {"schema_version": 1, "game": game["name"], "players": players}
    want = [["Player", "Closed", "Witness", "AttainsLift"]]
    for name, moves, w, lifted in results:
        if w is None:
            text = "-"
        else:
            ctx = ", ".join(f"{x}->{fmt_outcome(v)}" for x, v in zip(moves, w[0]))
            text = f"p={{{ctx}}}: picks {w[1]} but not {w[2]}"
        want.append([name, "no" if w else "yes", text, "yes" if lifted else "no"])
    return table_rows(out) == want
