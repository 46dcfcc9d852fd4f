"""Command-line front end: solve games, run per-player law checks, list presets."""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction
from itertools import islice

from .builtins import builtin, builtin_names, builtin_note
from .core import DEFAULT_CONTEXT_BUDGET, is_closed
from .dsl import parse_file
from .engine import (
    DEFAULT_PROFILE_BUDGET,
    Game,
    enumerate_equilibria,
    evaluate_profile,
)
from .errors import (
    BudgetExceededError,
    InvalidProfileError,
    UnknownBuiltinError,
)


class _InputError(Exception):
    pass


def _add_common_flags(p: argparse.ArgumentParser, budget: str, default: int, about: str) -> None:
    # `budget` is the command's one sweep bound, read back as `args.budget`
    p.add_argument("file", nargs="?", help="a .hog game file")
    p.add_argument("--builtin", metavar="NAME", help="use a preset game instead of a file")
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.add_argument(budget, dest="budget", type=int, default=default, metavar="N", help=about)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hog",
        description="Equilibria of finite games whose players are described "
        "by selection functions.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="enumerate both kinds of equilibria")
    _add_common_flags(solve, "--max-profiles", DEFAULT_PROFILE_BUDGET,
                      "abort instead of sweeping more strategy profiles than this")
    solve.add_argument(
        "--concept",
        choices=("selection", "quantifier", "both"),
        default="both",
        help="which equilibrium notion to report",
    )
    solve.add_argument(
        "--profile",
        metavar="m1,m2,...",
        help="judge a single strategy profile instead of sweeping all of them",
    )
    solve.set_defaults(func=cmd_solve, parser=solve)

    analyze = sub.add_parser(
        "analyze", help="closedness and attainment checks, player by player"
    )
    _add_common_flags(analyze, "--max-contexts", DEFAULT_CONTEXT_BUDGET,
                      "abort instead of sweeping more game contexts than this")
    analyze.set_defaults(func=cmd_analyze, parser=analyze)

    lst = sub.add_parser("list", help="available preset games")
    lst.set_defaults(func=cmd_list, parser=lst)
    return ap


_parser = functools.cache(build_parser)  # one tree per process, for `main`


def _load_game(args) -> Game:
    if args.budget < 1:
        raise _InputError("budgets must be positive")
    if args.builtin and args.file:
        raise _InputError("give a game file or --builtin, not both")
    if args.builtin:
        return builtin(args.builtin)
    if args.file:
        try:
            result = parse_file(args.file)
        except UnicodeDecodeError as e:
            raise _InputError(f"could not read {args.file}: {e}") from e
        for d in result.diagnostics:
            print(f"{args.file}:{d}", file=sys.stderr)
        if not result.ok:
            raise _InputError(f"could not load {args.file}")
        return result.game
    raise _InputError("no game given; pass a .hog file or --builtin NAME")


# ---------------------------------------------------------------------------
# Shared rendering helpers
# ---------------------------------------------------------------------------


def _fmt_moves(labels) -> str:
    if all(len(x) == 1 for x in labels):
        return "".join(labels)
    return ",".join(labels)


def _fmt_outcome(value) -> str:
    if isinstance(value, str):
        return value
    if all(isinstance(v, str) for v in value):
        return _fmt_moves(value)
    return "(" + ", ".join(str(Fraction(v)) for v in value) + ")"


def _json_outcome(value):
    if isinstance(value, str):
        return value
    if all(isinstance(v, str) for v in value):
        return list(value)
    return [str(Fraction(v)) for v in value]


def _yes(flag: bool) -> str:
    return "yes" if flag else "no"


def _chosen(concept: str, column_concept) -> bool:
    return column_concept in (None, concept) or concept == "both"


def _print_report(args, doc: dict, key: str, columns, items) -> None:
    """Print one report: `doc` with `doc[key]` holding one dict per item
    under --format json, else an aligned table with one row per item.

    Each column is (concept or None, table header, JSON key, table cell of
    an item, JSON value of an item); the caller picks which columns apply.
    """
    if args.format == "json":
        fields = [(k, value) for _, _, k, _, value in columns]
        doc[key] = [{k: value(it) for k, value in fields} for it in items]
        chunks = json.JSONEncoder(indent=2, ensure_ascii=False).iterencode(doc)
        # joined batches: neither the whole text in memory nor a write per chunk
        sys.stdout.writelines(iter(lambda: "".join(islice(chunks, 4096)), ""))
        print()
        return
    cells = [cell for _, _, _, cell, _ in columns]
    lines = [[header for _, header, _, _, _ in columns]]
    lines += [[cell(it) for cell in cells] for it in items]
    widths = [max(map(len, col)) for col in zip(*lines)]
    print("\n".join(
        "  ".join(c.ljust(w) for c, w in zip(line, widths)).rstrip() for line in lines
    ))


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


_SOLVE_COLUMNS = (
    (None, "Strategy", "strategy", lambda r: _fmt_moves(r.profile), lambda r: list(r.profile)),
    (None, "Outcome", "outcome",
     lambda r: _fmt_outcome(r.outcome), lambda r: _json_outcome(r.outcome)),
    ("quantifier", "QuantifierEq", "quantifier_eq",
     lambda r: _yes(r.quantifier_eq), lambda r: r.quantifier_eq),
    ("quantifier", "QDefects", "q_defects",
     lambda r: ", ".join(r.quantifier_defectors) or "-", lambda r: list(r.quantifier_defectors)),
    ("selection", "SelectionEq", "selection_eq",
     lambda r: _yes(r.selection_eq), lambda r: r.selection_eq),
    ("selection", "SDefects", "s_defects",
     lambda r: ", ".join(r.selection_defectors) or "-", lambda r: list(r.selection_defectors)),
)


def cmd_solve(args) -> int:
    game = _load_game(args)
    doc = {
        "schema_version": 1,
        "game": game.name,
        "players": [p.name for p in game.players],
        "concept": args.concept,
        "rows": None,
    }
    if args.profile is not None:
        profile = tuple(x.strip() for x in args.profile.split(","))
        rows = (evaluate_profile(game, profile),)
    else:
        report = enumerate_equilibria(game, max_profiles=args.budget)
        rows = report.rows
        for concept in ("quantifier", "selection"):
            if args.format == "json" and _chosen(args.concept, concept):
                found = getattr(report, f"{concept}_equilibria")()
                doc[f"{concept}_equilibria"] = [list(s) for s in found]
    columns = [c for c in _SOLVE_COLUMNS if _chosen(args.concept, c[0])]
    _print_report(args, doc, "rows", columns, rows)
    return 0


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def _witness_text(w) -> str:
    ctx = ", ".join(
        f"{x}->{_fmt_outcome(v)}" for x, v in w.context.as_dict().items()
    )
    return f"p={{{ctx}}}: picks {w.good_move} but not {w.excluded_move}"


def _witness_json(w):
    return {
        "context": {x: _json_outcome(v) for x, v in w.context.as_dict().items()},
        "good_move": w.good_move,
        "excluded_move": w.excluded_move,
    }


# Items are (player name, closedness result) pairs.
_ANALYZE_COLUMNS = (
    (None, "Player", "name", lambda r: r[0], lambda r: r[0]),
    (None, "Closed", "closed", lambda r: _yes(bool(r[1])), lambda r: bool(r[1])),
    (None, "Witness", "witness", lambda r: "-" if r[1] else _witness_text(r[1].witness),
     lambda r: None if r[1] else _witness_json(r[1].witness)),
    (None, "AttainsLift", "attains_lift", lambda r: "yes", lambda r: True),
)


def cmd_analyze(args) -> int:
    """Closedness of each player's goal, with a witness where it fails.

    A pure goal always attains its own lift: the lift is the set of outcomes
    of the goal's own chosen moves.  So the AttainsLift column is `yes` by
    construction, and no sweep is spent on it.
    """
    game = _load_game(args)
    results = [
        (p.name, is_closed(p.selection, p.moves, game.outcomes, args.budget))
        for p in game.players
    ]
    doc = {"schema_version": 1, "game": game.name, "players": None}
    _print_report(args, doc, "players", _ANALYZE_COLUMNS, results)
    return 0


# ---------------------------------------------------------------------------
# list
# ---------------------------------------------------------------------------


def cmd_list(args) -> int:
    names = builtin_names()
    width = max(len(n) for n in names)
    for n in names:
        print(f"{n.ljust(width)}  {builtin_note(n)}")
    return 0


def main(argv=None) -> int:
    args, extra = _parser().parse_known_args(argv)
    if extra:
        # reported by the command's own parser, so its usage line shows
        args.parser.error("unrecognized arguments: " + " ".join(extra))
    try:
        status = args.func(args)
        sys.stdout.flush()  # a reader gone early must show here, not at exit
        return status
    except BrokenPipeError:
        # the reader stopped early: not an input error.  As Python's `signal`
        # docs advise, point stdout at devnull so the flush at exit succeeds
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except BudgetExceededError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (_InputError, UnknownBuiltinError, InvalidProfileError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # anything else is a broken invariant, not bad input
        print(f"internal error: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
