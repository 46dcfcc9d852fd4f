"""The command line's byte-identity corpus: five manifests, one runner.

A case is ``(argv, {file name: text})``.  `run` writes the files to the
current directory and runs `hog argv` in process.  Per group, the sha256 of
each case's [exit code, stdout, stderr] must equal its manifest, keys included.

- `parity_vector_games.json`: `solve` in each format and concept on the
  rendered payoff matrices and a generated 3 x 6 matrix.
- `parity_solve.json`: `solve --builtin` for each builtin, format and concept,
  and a rendered 13-voter majority file whose JSON report runs to far more
  than 4096 encoder chunks.
- `parity_analyze.json`: `analyze` in each format on the builtins and the
  rendered matrices, budget exits (3) included.
- `parity_parse.json`: `solve` on outcome-table documents: a 1 000-entry atom
  table shaped like the benchmark's `heavy` file, a 1 000-entry payoff table,
  a rendered 3 x 4 matrix, the rendered builtins that use a table, the matrix
  and the atom table broken or bent once in each way a table body can go
  wrong, and the lexer cases of `test_dsl.py` (`LEXER_EDITS`).  Its hashes
  date from the parser that read table entries token by token.
- `parity_cli.json`: `solve --profile` on every profile of every builtin in
  each format, the bad-input exits (2), a budget exit (3), argparse errors and
  `hog list`.

    PYTHONPATH=src python tests/parity.py           # check every manifest
    PYTHONPATH=src python tests/parity.py --write   # rewrite them all

Checking lists each mismatched key and exits 1 if there is one.  Rewrite
only when an output change is intended.  Stdlib only, like `oracles.py`, so
any supported CPython can check parity without pytest; `test_parity.py`
runs the same check in tier-1.
"""

import argparse
import hashlib
import io
import json
import os
import random
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from itertools import product
from pathlib import Path
from unittest import mock

from hog import (
    ArgmaxOrder, AtomOutcomes, Fix, Game, MoveSet, NonFix, PayoffMatrix, Player,
    PreferenceOrder, builtin, builtin_names, classical_game, majority_rule,
    payoff_matrix, payoff_matrix_names, render_game,
)
from hog import cli

HERE = Path(__file__).parent
FORMATS = ("table", "json")
CONCEPTS = ("both", "quantifier", "selection")


def _text(m: PayoffMatrix) -> str:
    return render_game(classical_game(m)).text


def _matrix_text(name: str, seed: int, levels: str, labels: str, players: int) -> str:
    """A rendered payoff matrix, its payoffs drawn from `levels` by a fixed seed."""
    rng = random.Random(seed)
    levels, labels = tuple(map(Fraction, levels.split())), tuple(labels.split())
    entries = [
        (s, tuple(rng.choice(levels) for _ in range(players)))
        for s in product(labels, repeat=players)
    ]
    names = tuple(f"P{i}" for i in range(1, players + 1))
    return _text(PayoffMatrix(name, names, (MoveSet(labels),) * players, entries))


def _matrix_sources() -> dict:
    """The payoff matrices' names and rendered texts, with a generated 3 x 6
    matrix over fractional, negative and integer levels, so ties are common."""
    texts = {n: _text(payoff_matrix(n)) for n in payoff_matrix_names()}
    texts["generated-3x6"] = _matrix_text(
        "generated-3x6", 16016, "-2 -3/4 0 1/3 1 5/2", "m0 m1 m2 m3 m4 m5", 3
    )
    return texts


def _majority_text() -> str:
    """13 voters over A and B, majority wins; in turn they side with the
    winner, want A elected, or defy the winner."""
    ab = MoveSet(("A", "B"))
    goals = (Fix(), ArgmaxOrder(PreferenceOrder(("A", "B"))), NonFix())
    voters = tuple(Player(f"J{i}", ab, goals[i % 3]) for i in range(13))
    game = Game("majority-13", voters, AtomOutcomes(("A", "B")), majority_rule())
    return render_game(game).text


def _heavy_text() -> str:
    """3 players x 10 moves into the atoms W, X, Y, Z, written the way the
    benchmark writes its `heavy` file: a comment line first, one entry per
    line, ';' at the end of every line but the last."""
    rng = random.Random(18018)
    labels = ("W", "X", "Y", "Z")
    moves = tuple(f"mv{k}" for k in range(10))
    profiles = list(product(moves, repeat=3))
    values = list(labels) + [rng.choice(labels) for _ in profiles[len(labels):]]
    lines = ["# generated by the benchmark", "game heavy"]
    lines += [f"moves P{i} = {{ {', '.join(moves)} }}" for i in (1, 2, 3)]
    lines.append(f"outcomes = {{ {', '.join(labels)} }}")
    lines.append("outcome_fn = table {")
    lines.append(" ;\n".join(f"  ({', '.join(s)}) -> {v}" for s, v in zip(profiles, values)))
    lines.append("}")
    for i in (1, 2, 3):
        order = " < ".join(rng.sample(labels, len(labels)))
        lines.append(f"player P{i} = argmax(order: {order})")
    return "\n".join(lines) + "\n"


#: name -> (text to find in the rendered 3 x 4 matrix, its replacement); each
#: breaks or bends it once.  An error follows a two-line entry, to show a miscount.
_EDITS = {
    "comment-after-entry": ("(m0, m0, m1) -> (", "(m0, m0, m1) -> ( # note\n"),
    "comment-inside-entry": ("(m0, m0, m2) ->", "(m0, # note\n m0, m2) ->"),
    "trailing-comment": ("(m0, m0, m3) -> (-3/4, 1/3, 0) ;", "(m0, m0, m3) -> (-3/4, 1/3, 0) ; # ok"),
    "zero-denominator": ("(m0, m1, m0) -> (", "(m0, m1, m0) -> (1/0, "),
    "zero-denominator-after-a-two-line-entry": (
        "(m0, m0, m0) -> (-3/4, 5/2, 1/3) ;\n  (m0, m0, m1) -> (",
        "(m0, m0, m0) ->\n    (-3/4, 5/2, 1/3) ;\n  (m0, m0, m1) -> (1/0, ",
    ),
    "mixed-value": ("(m0, m1, m1) -> (", "(m0, m1, m1) -> (m1, "),
    "missing-semicolon": ("(m0, m1, m2) -> (0, -3/4, -2) ;", "(m0, m1, m2) -> (0, -3/4, -2)"),
    "duplicate-profile": ("(m0, m1, m3) ->", "(m0, m1, m2) ->"),
    "unknown-label": ("(m0, m2, m0) ->", "(m0, zz, m0) ->"),
    "entry-over-two-lines": ("(m0, m2, m1) -> ", "(m0, m2, m1) ->\n    "),
    "label-as-value": ("(m0, m2, m2) -> (0, -2, 5/2)", "(m0, m2, m2) -> m1"),
    "short-vector": ("(m0, m2, m3) -> (", "(m0, m2, m3) -> (1, "),
    "missing-arrow": ("(m0, m3, m0) -> ", "(m0, m3, m0) "),
    "unclosed-profile": ("(m0, m3, m1)", "(m0, m3, m1"),
    "stray-character": ("(m0, m3, m2) -> (", "(m0, m3, m2) -> ($"),
    "goal-line-fragment": ("player P1 = argmax(coord: 1)", "player P1 = argmax(coord: 1) (m0) -> m1"),
    "goal-is-fragment": ("player P2 = argmax(coord: 2)", "player P2 = (m0) -> m1"),
    "moves-line-fragment": ("moves P1 = { m0, m1, m2, m3 }", "moves P1 = { m0, m1, m2, m3 } (m0) -> m1"),
    "moves-is-fragment": ("moves P3 = { m0, m1, m2, m3 }", "moves P3 = (m0, m1) -> (m2, m3)"),
    "top-level-fragment": ("outcome_fn = table {", "(m0, m1) -> (1, 2)\noutcome_fn = table {"),
    "trailing-semicolon": ("\n}", " ;\n}"),
    "comment-between-entries": (" ;\n  (m1, m0, m0)", " ;\n  # the second block\n  (m1, m0, m0)"),
    "profile-over-two-lines": ("(m1, m1, m2)", "(m1, m1,\n   m2)"),
    "bad-entry-mid-table": ("(m1, m2, m0)", "(m1, m2 m0)"),
    "zero-denominator-mid-table": ("(m2, m1, m3) -> (5/2, -2, 0)", "(m2, m1, m3) -> (5/2, -2/00, 0)"),
    "comment-before-first-entry": ("table {\n", "table {\n  # P1 picks the block, P2 the row\n"),
    "comment-with-punctuation": (
        " ;\n  (m2, m0, m0)", " ;\n  # not an entry: (m2, m0, m0) -> (1, 2, 3) ; { } }\n  (m2, m0, m0)"
    ),
    "comment-before-the-closing-brace": ("\n}", "\n  # the last block ends here\n}"),
}

#: name -> (text to find in the `heavy` atom table, its replacement)
_HEAVY_EDITS = {
    "missing-comma-mid-table": ("(mv5, mv0, mv0)", "(mv5, mv0 mv0)"),
    "stray-character-mid-table": ("(mv5, mv5, mv5) -> ", "(mv5, mv5, mv5) -> $"),
    "unknown-value-mid-table": ("(mv5, mv5, mv6) -> ", "(mv5, mv5, mv6) -> Q ;\n  (mv5, mv5, mv6) -> "),
    # blanks outside the grammar's space, tab, CR and LF, after a trailing ';'
    "form-feed-after-a-trailing-semicolon": ("-> Z\n}", "-> Z ;\x0c\n}"),
    "no-break-space-after-a-trailing-semicolon": ("-> Z\n}", "-> Z ;\xa0\n}"),
}

#: The two-player table game the lexer cases bend.
TABLE_GAME = """\
game g
moves P1 = { A, B }
moves P2 = { A, B }
outcomes = moves
outcome_fn = table {
  (A, A) -> (A, A) ;
  (A, B) -> (A, B) ;
  (B, A) -> (B, A) ;
  (B, B) -> (B, B)
}
player P1 = coord
player P2 = coord
"""

#: name -> (text to find in TABLE_GAME, its replacement); `lexer_text` makes
#: each document, and `test_dsl.py` states the diagnostics of each.
LEXER_EDITS = {
    # at top level the rest of the line is skipped, brackets included; the
    # next line parses
    "at-mid-line": ("game g\n", "game g @ ) {\n"),
    # inside brackets only the character is skipped; the entry still closes
    "dollar-in-entry": ("(A, B) -> (A, B) ;", "(A, B) -> (A, $B) ;"),
    # a run of bad characters is one error; a second run is its own
    "runs-in-entry": ("(A, B) -> (A, B) ;", "(A, B) -> ($$A, B~~) ;"),
    "stray-paren": ("player P1 = coord\n", "player P1 = coord )\n"),
    "stray-brace": ("outcomes = moves\n", "outcomes = } moves\n"),
    # the innermost of the open '{' and '(' is the one reported
    "unclosed-across-lines": ("(B, B) -> (B, B)\n}\n", "(B, B) -> (B,\n"),
    "unclosed-brace": ("moves P2 = { A, B }\n", "moves P2 = { A,\n"),
    # and every line end becomes CRLF
    "crlf": ("moves P2 = { A, B }", "moves P2 = { A, A }"),
    "comment-in-table": ("(A, A) -> (A, A) ;", "(A, A) -> (A, A) ;  # both say A"),
    # a tab is one column
    "tab": ("moves P1 = { A, B }", "moves P1 =\t{ A,\tA }"),
}


def _commented(text: str) -> str:
    """`text` with a comment line after every 10th table entry."""
    lines, entries = [], 0
    for line in text.split("\n"):
        lines.append(line)
        entries += line.startswith("  (")
        if line.startswith("  (") and entries % 10 == 0:
            lines.append(f"  # {entries} entries; (a) -> b is not one")
    return "\n".join(lines)


def lexer_text(name: str) -> str:
    """The document of lexer case `name`."""
    old, new = LEXER_EDITS[name]
    assert TABLE_GAME.count(old) == 1, name
    text = TABLE_GAME.replace(old, new)
    return text.replace("\n", "\r\n") if name == "crlf" else text


def _emptied(text: str) -> str:
    """`text` with its outcome table's body taken out: `table { }`."""
    start, end = text.index("table {") + len("table {"), text.index("\n}") + 2
    return text[:start] + " }" + text[end:]


def _table_documents() -> dict:
    """Each outcome-table document's name and .hog text."""
    matrix = _matrix_text("matrix-3x4", 18019, "-2 -3/4 0 1/3 5/2", "m0 m1 m2 m3", 3)
    heavy = _heavy_text()
    texts = {"heavy": heavy, "matrix": matrix}
    for name, (old, new) in _EDITS.items():
        assert matrix.count(old) == 1, name
        texts[f"matrix-{name}"] = matrix.replace(old, new)
    for name, (old, new) in _HEAVY_EDITS.items():
        assert heavy.count(old) == 1, name
        texts[f"heavy-{name}"] = heavy.replace(old, new)
    texts["heavy-crlf-trailing-semicolon"] = heavy.replace("\n}", " ;\n}").replace("\n", "\r\n")
    texts["heavy-comment-every-10th-entry"] = _commented(heavy)
    texts["heavy-unclosed-with-comments"] = _commented(heavy).replace("\n}\n", "\n")
    texts["matrix-crlf-comment-between-entries"] = (
        texts["matrix-comment-between-entries"].replace("\n", "\r\n")
    )
    texts["matrix-crlf-and-tabs"] = (
        matrix.replace("  (", "\t(").replace(", ", ",\t").replace("\n", "\r\n")
    )
    texts["matrix-empty-table"] = _emptied(matrix)
    texts["lexer-empty-table"] = _emptied(TABLE_GAME)
    moves = " ".join(f"m{k}" for k in range(10))
    texts["vectors-1000"] = _matrix_text("vectors-1000", 18020, "-7/3 -1 0 1/2 3/4 2", moves, 3)
    texts |= {f"lexer-{name}": lexer_text(name) for name in LEXER_EDITS}
    for name in builtin_names():
        text = render_game(builtin(name)).text
        if "outcome_fn = table" in text:
            texts[f"builtin-{name}"] = text
    return texts


def _on_file(command: str, name: str, text: str, *flags) -> tuple:
    return [command, f"{name}.hog", *flags], {f"{name}.hog": text}


def vector_cases() -> dict:
    return {
        f"{name}/{fmt}/{c}": _on_file("solve", name, text, "--format", fmt, "--concept", c)
        for name, text in _matrix_sources().items()
        for fmt, c in product(FORMATS, CONCEPTS)
    }


def solve_cases() -> dict:
    cases = {
        f"solve/builtin:{n}/{fmt}/{concept}":
            (["solve", "--builtin", n, "--format", fmt, "--concept", concept], {})
        for n in builtin_names()
        for fmt, concept in product(FORMATS, CONCEPTS)
    }
    majority = _majority_text()
    for fmt in FORMATS:
        flags = ("--format", fmt, "--concept", "both")
        cases[f"solve/majority-13/{fmt}/both"] = _on_file("solve", "majority-13", majority, *flags)
    return cases


def analyze_cases() -> dict:
    texts = _matrix_sources()
    # 9 outcomes and 729 contexts, so `hog analyze` sweeps it rather than exiting 3
    texts["fractional-2x3"] = _matrix_text("fractional-2x3", 17017, "-1/2 0 3/2", "a b c", 2)
    sources = {f"builtin:{n}": (["--builtin", n], {}) for n in builtin_names()}
    sources |= {name: ([f"{name}.hog"], {f"{name}.hog": text}) for name, text in texts.items()}
    return {
        f"analyze/{name}/{fmt}": (["analyze", *source, "--format", fmt], files)
        for name, (source, files) in sources.items()
        for fmt in FORMATS
    }


def parse_cases() -> dict:
    return {name: _on_file("solve", name, text) for name, text in _table_documents().items()}


def cli_cases() -> dict:
    cases = {}
    for n in builtin_names():
        for profile in product(*(p.moves.labels for p in builtin(n).players)):
            for fmt in FORMATS:
                argv = ["solve", "--builtin", n, "--profile", ",".join(profile), "--format", fmt]
                cases[f"profile/{n}/{','.join(profile)}/{fmt}"] = (argv, {})
    keynes = ("--builtin", "voting-keynes")
    rendered = render_game(builtin("voting-keynes")).text
    exits = {
        "exit-2/short-profile": ["solve", *keynes, "--profile", "A,B"],
        "exit-2/unknown-move": ["solve", *keynes, "--profile", "A,C,B"],
        "exit-2/missing-file": ["solve", "missing.hog"],
        "exit-2/file-and-builtin": ["solve", "keynes.hog", *keynes],
        "exit-2/no-input": ["solve"],
        "exit-2/unknown-builtin": ["solve", "--builtin", "nope"],
        "exit-2/zero-profiles": ["solve", *keynes, "--max-profiles", "0"],
        "exit-2/zero-contexts": ["analyze", *keynes, "--max-contexts", "0"],
        "exit-3/profile-budget": ["solve", "--builtin", "bos-lex", "--max-profiles", "3"],
        "exit-2/argparse-solve-unknown-option": ["solve", *keynes, "--bogus"],
        "exit-2/argparse-analyze-unknown-option": ["analyze", *keynes, "--bogus"],
        "exit-2/argparse-solve-bad-budget": ["solve", *keynes, "--max-profiles", "many"],
        "exit-2/argparse-analyze-bad-budget": ["analyze", *keynes, "--max-contexts", "many"],
        "exit-0/list": ["list"],
    }
    cases |= {k: (argv, {"keynes.hog": rendered}) for k, argv in exits.items()}
    return cases


#: manifest file name -> its cases
MANIFESTS = {
    "parity_vector_games.json": vector_cases,
    "parity_solve.json": solve_cases,
    "parity_analyze.json": analyze_cases,
    "parity_parse.json": parse_cases,
    "parity_cli.json": cli_cases,
}


def run(argv, files: dict) -> tuple:
    """Write `files` to the current directory and run `hog argv`; return its
    exit code, stdout and stderr.  argparse's exits count, at 80 columns."""
    for name, text in files.items():
        Path(name).write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), mock.patch.dict(os.environ, COLUMNS="80"):
        try:
            code = cli.main(argv)
        except SystemExit as e:
            code = e.code
    return code, out.getvalue(), err.getvalue()


def digests(cases: dict) -> dict:
    return {
        key: hashlib.sha256(json.dumps(run(*case)).encode()).hexdigest()
        for key, case in cases.items()
    }


def manifest_text(d: dict) -> str:
    return json.dumps(d, indent=2, sort_keys=True) + "\n"


def mismatches(name: str) -> list:
    """The keys of manifest `name` whose digest this tree does not reproduce,
    or that only one side lists, sorted."""
    want = json.loads((HERE / name).read_text())
    got = digests(MANIFESTS[name]())
    return sorted(k for k in want.keys() | got.keys() if want.get(k) != got.get(k))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--write", action="store_true", help="rewrite the manifests instead of checking them"
    )
    args = parser.parse_args(argv)
    failed = False
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        # relative file names keep every diagnostic independent of tmp
        os.chdir(tmp)
        try:
            for name, cases in MANIFESTS.items():
                if args.write:
                    d = digests(cases())
                    (HERE / name).write_text(manifest_text(d))
                    print(f"wrote {len(d)} digests to {name}")
                    continue
                bad = mismatches(name)
                print(f"{name}: {len(bad)} mismatched")
                for key in bad:
                    print(f"  {key}")
                failed = failed or bool(bad)
        finally:
            os.chdir(here)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
