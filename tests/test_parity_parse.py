"""Byte-identity gate for `hog solve` on outcome-table documents, broken ones
included, so that a change to how the parser reads table entries cannot move
a byte of a report or of a diagnostic.

Each case writes one document to a .hog file, runs `hog solve` on it, and
compares the sha256 of its exit code, stdout and stderr with
`parity_parse.json`.  The documents are a 1 000-entry atom table shaped like
the benchmark's `heavy` file, a rendered payoff matrix, the rendered builtins
that use a table, and the matrix broken once in each of the ways a table
entry can go wrong: a comment, a zero denominator, a mixed value, a missing
';', a duplicate profile, an unknown label, an entry over two lines (with an
error after it, so that a miscounted line shows), and an entry fragment on a
goal, moves or top-level line.

The manifest was written by the parser that read every table entry token by
token, before table entries could be read as one token.

Rewrite the manifest (only when an output change is intended) with
``PYTHONPATH=src python tests/test_parity_parse.py``.
"""

import hashlib
import json
import random
from fractions import Fraction
from itertools import product
from pathlib import Path

from hog import (
    MoveSet,
    PayoffMatrix,
    builtin,
    builtin_names,
    classical_game,
    render_game,
)
from hog.cli import main

MANIFEST = Path(__file__).with_name("parity_parse.json")


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


def _matrix_text() -> str:
    """A rendered 3 x 4 payoff matrix over negative, fractional and integer
    levels."""
    rng = random.Random(18019)
    levels = (Fraction(-2), Fraction(-3, 4), Fraction(0), Fraction(1, 3), Fraction(5, 2))
    moves = MoveSet(tuple(f"m{j}" for j in range(4)))
    entries = [
        (s, tuple(rng.choice(levels) for _ in range(3)))
        for s in product(moves.labels, repeat=3)
    ]
    m = PayoffMatrix("matrix-3x4", ("P1", "P2", "P3"), (moves,) * 3, entries)
    return render_game(classical_game(m)).text


#: name -> (text to find in the rendered matrix, its replacement); each
#: breaks or bends the document once
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
}


def _sources() -> dict:
    """Every case's name and .hog text."""
    matrix = _matrix_text()
    texts = {"heavy": _heavy_text(), "matrix": matrix}
    for name, (old, new) in _EDITS.items():
        assert matrix.count(old) == 1, name
        texts[f"matrix-{name}"] = matrix.replace(old, new)
    for name in builtin_names():
        text = render_game(builtin(name)).text
        if "outcome_fn = table" in text:
            texts[f"builtin-{name}"] = text
    return texts


def _digest(code: int, out: str, err: str) -> str:
    return hashlib.sha256(json.dumps([code, out, err]).encode()).hexdigest()


def _run_all(workdir: Path, capture) -> dict:
    """sha256 per case, keyed by case name.  `capture()` returns (stdout,
    stderr) written since it was last called."""
    digests = {}
    for name, text in _sources().items():
        (workdir / f"{name}.hog").write_text(text)
        code = main(["solve", f"{name}.hog"])
        digests[name] = _digest(code, *capture())
    return digests


def test_table_document_output_matches_the_manifest(tmp_path, monkeypatch, capsys):
    # a relative path keeps the file name in any diagnostic independent of tmp_path
    monkeypatch.chdir(tmp_path)

    def capture():
        c = capsys.readouterr()
        return c.out, c.err

    expected = json.loads(MANIFEST.read_text())
    assert len(expected) == len(_sources())
    assert _run_all(tmp_path, capture) == expected


def test_the_cases_solve_and_fail_as_intended(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    codes = {}
    for name, text in _sources().items():
        Path(f"{name}.hog").write_text(text)
        codes[name] = main(["solve", f"{name}.hog"])
    capsys.readouterr()
    fine = {"heavy", "matrix", "matrix-trailing-comment", "matrix-entry-over-two-lines",
            "matrix-comment-after-entry", "matrix-comment-inside-entry"}
    fine |= {name for name in codes if name.startswith("builtin-")}
    assert {name for name, code in codes.items() if code == 0} == fine
    assert all(code == 2 for name, code in codes.items() if name not in fine)


if __name__ == "__main__":
    import contextlib
    import io
    import os
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        out, err = io.StringIO(), io.StringIO()

        def capture():
            texts = out.getvalue(), err.getvalue()
            for buf in (out, err):
                buf.seek(0)
                buf.truncate()
            return texts

        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            digests = _run_all(Path(tmp), capture)
    MANIFEST.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {MANIFEST}")
