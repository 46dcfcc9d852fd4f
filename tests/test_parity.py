"""Byte-identity gates for `hog solve` on vector (payoff-matrix) games, on
the builtins and on a 13-voter majority vote, and for `hog analyze` on the
builtins and the same games.

Each solve case renders a payoff matrix to a .hog file, runs `hog solve` on
it in one format under one concept, and compares the sha256 of its exit
code, stdout and stderr with `parity_vector_games.json`.  The cases of
`parity_solve.json` do the same for each builtin by name, and for a
rendered 13-voter majority file whose JSON report runs to far more than
4096 encoder chunks.  Each analyze case runs `hog analyze` in one format on
a builtin or a rendered matrix, those whose context space exceeds the budget
(exit 3) included, against `parity_analyze.json`.  A change to the solve
kernel, the law sweeps, the parser, the renderer or the report writer that
moves a single byte of output fails here.

Rewrite the manifests (only when an output change is intended) with
``PYTHONPATH=src python tests/test_parity.py``.
"""

import hashlib
import json
import random
from fractions import Fraction
from itertools import product
from pathlib import Path

from hog import (
    ArgmaxOrder,
    AtomOutcomes,
    Fix,
    Game,
    MoveSet,
    NonFix,
    PayoffMatrix,
    Player,
    PreferenceOrder,
    builtin_names,
    classical_game,
    majority_rule,
    payoff_matrix,
    payoff_matrix_names,
    render_game,
)
from hog.cli import main

MANIFEST = Path(__file__).with_name("parity_vector_games.json")
ANALYZE_MANIFEST = Path(__file__).with_name("parity_analyze.json")
SOLVE_MANIFEST = Path(__file__).with_name("parity_solve.json")
FORMATS = ("table", "json")
CONCEPTS = ("both", "quantifier", "selection")


def _generated_matrix() -> PayoffMatrix:
    """3 players x 6 moves labelled m0..m5, with fractional, negative and
    integer payoff levels drawn from a fixed seed, so ties are common."""
    rng = random.Random(16016)
    levels = (Fraction(-2), Fraction(-3, 4), Fraction(0), Fraction(1, 3), Fraction(1), Fraction(5, 2))
    moves = MoveSet(tuple(f"m{j}" for j in range(6)))
    entries = [
        (s, tuple(rng.choice(levels) for _ in range(3)))
        for s in product(moves.labels, repeat=3)
    ]
    return PayoffMatrix("generated-3x6", ("P1", "P2", "P3"), (moves,) * 3, entries)


def _sources() -> dict:
    """Every case's game name and .hog text."""
    matrices = [payoff_matrix(name) for name in payoff_matrix_names()]
    matrices.append(_generated_matrix())
    return {m.name: render_game(classical_game(m)).text for m in matrices}


def _small_fractional_matrix() -> PayoffMatrix:
    """2 players x 3 moves over the levels -1/2, 0, 3/2: 9 outcomes and 729
    contexts, so `hog analyze` sweeps it rather than exiting 3."""
    rng = random.Random(17017)
    levels = (Fraction(-1, 2), Fraction(0), Fraction(3, 2))
    moves = MoveSet(("a", "b", "c"))
    entries = [
        (s, tuple(rng.choice(levels) for _ in range(2)))
        for s in product(moves.labels, repeat=2)
    ]
    return PayoffMatrix("fractional-2x3", ("P1", "P2"), (moves,) * 2, entries)


def _majority_text() -> str:
    """13 voters over A and B, majority wins; in turn they side with the
    winner, want A elected, or defy the winner."""
    ab = MoveSet(("A", "B"))
    goals = (Fix(), ArgmaxOrder(PreferenceOrder(("A", "B"))), NonFix())
    voters = tuple(Player(f"J{i}", ab, goals[i % 3]) for i in range(13))
    game = Game("majority-13", voters, AtomOutcomes(("A", "B")), majority_rule())
    return render_game(game).text


def _digest(code: int, out: str, err: str) -> str:
    return hashlib.sha256(json.dumps([code, out, err]).encode()).hexdigest()


def _run_all(workdir: Path, capture) -> dict:
    """sha256 per case, keyed "game/format/concept".  `capture()` returns
    (stdout, stderr) written since it was last called."""
    digests = {}
    for name, text in _sources().items():
        (workdir / f"{name}.hog").write_text(text)
        for fmt, concept in product(FORMATS, CONCEPTS):
            code = main(["solve", f"{name}.hog", "--format", fmt, "--concept", concept])
            digests[f"{name}/{fmt}/{concept}"] = _digest(code, *capture())
    return digests


def _analyze_all(workdir: Path, capture) -> dict:
    """sha256 per `hog analyze` case, keyed "analyze/source/format"."""
    sources = [(f"builtin:{n}", ["--builtin", n]) for n in builtin_names()]
    texts = _sources()
    m = _small_fractional_matrix()
    texts[m.name] = render_game(classical_game(m)).text
    for name, text in texts.items():
        (workdir / f"{name}.hog").write_text(text)
        sources.append((name, [f"{name}.hog"]))
    digests = {}
    for name, source in sources:
        for fmt in FORMATS:
            code = main(["analyze", *source, "--format", fmt])
            digests[f"analyze/{name}/{fmt}"] = _digest(code, *capture())
    return digests


def _solve_all(workdir: Path, capture) -> dict:
    """sha256 per `hog solve` case on a builtin by name or on the 13-voter
    file, keyed "solve/source/format/concept"."""
    (workdir / "majority-13.hog").write_text(_majority_text())
    cases = [
        (f"builtin:{n}", ["--builtin", n], fmt, concept)
        for n in builtin_names()
        for fmt, concept in product(FORMATS, CONCEPTS)
    ]
    cases += [("majority-13", ["majority-13.hog"], fmt, "both") for fmt in FORMATS]
    digests = {}
    for name, source, fmt, concept in cases:
        code = main(["solve", *source, "--format", fmt, "--concept", concept])
        digests[f"solve/{name}/{fmt}/{concept}"] = _digest(code, *capture())
    return digests


def test_vector_game_output_matches_the_manifest(tmp_path, monkeypatch, capsys):
    # a relative path keeps the file name in any diagnostic independent of tmp_path
    monkeypatch.chdir(tmp_path)

    def capture():
        c = capsys.readouterr()
        return c.out, c.err

    expected = json.loads(MANIFEST.read_text())
    assert len(expected) == 8 * len(FORMATS) * len(CONCEPTS)
    assert _run_all(tmp_path, capture) == expected


def test_analyze_output_matches_the_manifest(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)

    def capture():
        c = capsys.readouterr()
        return c.out, c.err

    expected = json.loads(ANALYZE_MANIFEST.read_text())
    assert len(expected) == (9 + 9) * len(FORMATS)
    assert _analyze_all(tmp_path, capture) == expected


def test_builtin_and_majority_solves_match_the_manifest(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)

    def capture():
        c = capsys.readouterr()
        return c.out, c.err

    expected = json.loads(SOLVE_MANIFEST.read_text())
    assert len(expected) == 9 * len(FORMATS) * len(CONCEPTS) + len(FORMATS)
    assert _solve_all(tmp_path, capture) == expected


def test_the_majority_case_spans_many_json_write_batches(tmp_path, capsys):
    path = tmp_path / "m.hog"
    path.write_text(_majority_text())
    assert main(["solve", str(path), "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["rows"]) == 2**13
    assert doc["quantifier_equilibria"] and doc["selection_equilibria"]
    chunks = json.JSONEncoder(indent=2, ensure_ascii=False).iterencode(doc)
    assert sum(1 for _ in chunks) > 100 * 4096


def test_the_analyze_cases_sweep_fractional_levels_and_exit_3(tmp_path, capsys):
    path = tmp_path / "g.hog"
    path.write_text(render_game(classical_game(_small_fractional_matrix())).text)
    assert main(["analyze", str(path), "--format", "json"]) == 0
    assert [r["closed"] for r in json.loads(capsys.readouterr().out)["players"]] == [True] * 2
    path.write_text(_sources()["generated-3x6"])
    assert main(["analyze", str(path)]) == 3
    assert "contexts exceed the budget" in capsys.readouterr().err


def test_the_cases_reach_the_vector_and_comma_joined_renderings(tmp_path, capsys):
    path = tmp_path / "g.hog"
    path.write_text(_sources()["generated-3x6"])
    assert main(["solve", str(path)]) == 0
    assert "\nm0,m0,m0  (" in capsys.readouterr().out
    assert main(["solve", str(path), "--format", "json"]) == 0
    outcomes = {tuple(r["outcome"]) for r in json.loads(capsys.readouterr().out)["rows"]}
    levels = {v for outcome in outcomes for v in outcome}
    assert levels == {"-2", "-3/4", "0", "1/3", "1", "5/2"}


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
            manifests = {
                MANIFEST: _run_all(Path(tmp), capture),
                ANALYZE_MANIFEST: _analyze_all(Path(tmp), capture),
                SOLVE_MANIFEST: _solve_all(Path(tmp), capture),
            }
    for path, digests in manifests.items():
        path.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
        print(f"wrote {len(digests)} digests to {path}")
