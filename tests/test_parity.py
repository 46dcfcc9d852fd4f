"""Byte-identity gates for the `hog` command line, in tier-1.

The corpus, its five manifests (`tests/parity_*.json`) and the runner live in
`tests/parity.py`, which also checks them without pytest:
``PYTHONPATH=src python tests/parity.py``.  Only its ``--write`` rewrites the
manifests, and only an intended output change should.
"""

import json

import pytest

from parity import (
    HERE, MANIFESTS, analyze_cases, cli_cases, manifest_text, mismatches, parse_cases, run,
    solve_cases, vector_cases,
)


@pytest.mark.parametrize("name", MANIFESTS)
def test_output_matches_the_manifest(name, tmp_path, monkeypatch):
    # relative file names keep every diagnostic independent of tmp_path
    monkeypatch.chdir(tmp_path)
    assert mismatches(name) == []


@pytest.mark.parametrize("name", MANIFESTS)
def test_the_manifest_is_as_the_writer_writes_it(name):
    text = (HERE / name).read_text()
    assert text == manifest_text(json.loads(text))


def test_the_majority_case_spans_many_json_write_batches(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(*solve_cases()["solve/majority-13/json/both"])
    doc = json.loads(out)
    assert code == 0 and len(doc["rows"]) == 2**13
    assert doc["quantifier_equilibria"] and doc["selection_equilibria"]
    chunks = json.JSONEncoder(indent=2, ensure_ascii=False).iterencode(doc)
    assert sum(1 for _ in chunks) > 100 * 4096


def test_the_analyze_cases_sweep_fractional_levels_and_exit_3(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cases = analyze_cases()
    code, out, _ = run(*cases["analyze/fractional-2x3/json"])
    assert code == 0
    assert [r["closed"] for r in json.loads(out)["players"]] == [True] * 2
    code, _, err = run(*cases["analyze/generated-3x6/table"])
    assert code == 3 and "contexts exceed the budget" in err


def test_the_cases_reach_the_vector_and_comma_joined_renderings(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cases = vector_cases()
    code, out, _ = run(*cases["generated-3x6/table/both"])
    assert code == 0 and "\nm0,m0,m0  (" in out
    code, out, _ = run(*cases["generated-3x6/json/both"])
    outcomes = {tuple(r["outcome"]) for r in json.loads(out)["rows"]}
    levels = {v for outcome in outcomes for v in outcome}
    assert code == 0 and levels == {"-2", "-3/4", "0", "1/3", "1", "5/2"}


def test_the_table_documents_solve_and_fail_as_intended(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    codes = {name: run(*case)[0] for name, case in parse_cases().items()}
    fine = {"heavy", "matrix", "matrix-trailing-comment", "matrix-entry-over-two-lines",
            "matrix-comment-after-entry", "matrix-comment-inside-entry",
            "matrix-trailing-semicolon", "matrix-comment-between-entries",
            "matrix-profile-over-two-lines", "matrix-crlf-and-tabs",
            "heavy-crlf-trailing-semicolon", "vectors-1000", "lexer-comment-in-table",
            "matrix-comment-before-first-entry", "matrix-comment-with-punctuation",
            "matrix-comment-before-the-closing-brace", "matrix-crlf-comment-between-entries",
            "heavy-comment-every-10th-entry"}
    fine |= {name for name in codes if name.startswith("builtin-")}
    assert {name for name, code in codes.items() if code == 0} == fine
    assert all(code == 2 for name, code in codes.items() if name not in fine)


def test_the_cli_cases_exit_as_intended(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    codes = {key: run(*case)[0] for key, case in cli_cases().items()}
    assert sum(key.startswith("profile/") for key in codes) == 2 * 56
    assert codes == {key: int(key[5]) if key.startswith("exit-") else 0 for key in codes}
