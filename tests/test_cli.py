"""Command line behaviour: formats, filters, and exit codes."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import hog.cli
from hog import (
    ArgmaxOrder,
    AtomOutcomes,
    Fix,
    Game,
    MoveSet,
    Player,
    PreferenceOrder,
    enumerate_contexts,
    is_closed,
    majority_rule,
)
from hog.cli import main
from test_engine import _Counted

REPO = Path(__file__).resolve().parent.parent

KEYNES_TABLE = """\
Strategy  Outcome  QuantifierEq  QDefects  SelectionEq  SDefects
AAA       A        yes           -         yes          -
AAB       A        yes           -         no           J3
ABA       A        yes           -         no           J2
ABB       B        yes           -         yes          -
BAA       A        yes           -         yes          -
BAB       B        no            J1        no           J1, J2
BBA       B        no            J1        no           J1, J3
BBB       B        yes           -         yes          -
"""

KEYNES_ANALYSIS = """\
Player  Closed  Witness                            AttainsLift
J1      yes     -                                  yes
J2      no      p={A->A, B->A}: picks A but not B  yes
J3      no      p={A->A, B->A}: picks A but not B  yes
"""

TINY_VECTOR = """\
game tiny
moves P1 = { H, T }
moves P2 = { H, T }
outcomes = vectors 2
outcome_fn = table {
  (H, H) -> (1/2, 1) ;
  (H, T) -> (-1, -1) ;
  (T, H) -> (-1, -1) ;
  (T, T) -> (1, 1/2)
}
player P1 = argmax(coord: 1)
player P2 = argmax(coord: 2)
"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_table_golden(capsys):
    code, out, err = run(capsys, "solve", "--builtin", "voting-keynes")
    assert code == 0 and err == ""
    assert out == KEYNES_TABLE


def test_solve_json_shape_and_aggregates(capsys):
    code, out, err = run(
        capsys, "solve", "--builtin", "voting-keynes", "--format", "json"
    )
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    assert doc["game"] == "voting-keynes"
    assert doc["players"] == ["J1", "J2", "J3"]
    assert doc["concept"] == "both"
    assert len(doc["rows"]) == 8
    assert doc["quantifier_equilibria"] == [
        ["A", "A", "A"],
        ["A", "A", "B"],
        ["A", "B", "A"],
        ["A", "B", "B"],
        ["B", "A", "A"],
        ["B", "B", "B"],
    ]
    assert doc["selection_equilibria"] == [
        ["A", "A", "A"],
        ["A", "B", "B"],
        ["B", "A", "A"],
        ["B", "B", "B"],
    ]
    bab = doc["rows"][5]
    assert bab["strategy"] == ["B", "A", "B"]
    assert bab["outcome"] == "B"
    assert bab["quantifier_eq"] is False
    assert bab["q_defects"] == ["J1"]
    assert bab["s_defects"] == ["J1", "J2"]


BOS_LEX_SELECTION_JSON = {
    "schema_version": 1,
    "game": "bos-lex",
    "players": ["W", "H"],
    "concept": "selection",
    "rows": [
        {"strategy": ["B", "B"], "outcome": ["B", "B"], "selection_eq": True, "s_defects": []},
        {"strategy": ["B", "F"], "outcome": ["B", "F"], "selection_eq": False,
         "s_defects": ["W", "H"]},
        {"strategy": ["F", "B"], "outcome": ["F", "B"], "selection_eq": False,
         "s_defects": ["W", "H"]},
        {"strategy": ["F", "F"], "outcome": ["F", "F"], "selection_eq": True, "s_defects": []},
    ],
    "selection_equilibria": [["B", "B"], ["F", "F"]],
}

BOS_LEX_QUANTIFIER_TABLE = """\
Strategy  Outcome  QuantifierEq  QDefects
BB        BB       yes           -
BF        BF       no            W, H
FB        FB       no            W, H
FF        FF       yes           -
"""


def test_solve_json_golden_for_one_concept(capsys):
    code, out, err = run(
        capsys, "solve", "--builtin", "bos-lex", "--concept", "selection", "--format", "json"
    )
    assert code == 0 and err == ""
    # the literal fixes the key order of the document, of each row and of
    # the aggregates; indent 2 is the CLI's layout
    assert out == json.dumps(BOS_LEX_SELECTION_JSON, indent=2) + "\n"


def test_solve_table_golden_for_the_quantifier_concept(capsys):
    code, out, err = run(capsys, "solve", "--builtin", "bos-lex", "--concept", "quantifier")
    assert code == 0 and err == ""
    assert out == BOS_LEX_QUANTIFIER_TABLE


PRODUCT_GAME = """\
game g
moves H = { B, F }
moves W = { B, F }
outcomes = moves
outcome_fn = table {
  (B, B) -> (B, B) ;
  (B, F) -> (B, B) ;
  (F, B) -> (F, B) ;
  (F, F) -> (F, F)
}
player H = fix(coord: 2)
player W = coord
"""


def test_analyze_golden_with_label_tuple_outcomes(tmp_path, capsys):
    path = tmp_path / "product.hog"
    path.write_text(PRODUCT_GAME)
    code, out, err = run(capsys, "analyze", str(path))
    assert code == 0 and err == ""
    assert out == (
        "Player  Closed  Witness                              AttainsLift\n"
        "H       no      p={B->BB, F->BB}: picks B but not F  yes\n"
        "W       yes     -                                    yes\n"
    )
    code, out, err = run(capsys, "analyze", str(path), "--format", "json")
    assert code == 0 and err == ""
    witness = {
        "context": {"B": ["B", "B"], "F": ["B", "B"]},
        "good_move": "B",
        "excluded_move": "F",
    }
    expected = {
        "schema_version": 1,
        "game": "g",
        "players": [
            {"name": "H", "closed": False, "witness": witness, "attains_lift": True},
            {"name": "W", "closed": True, "witness": None, "attains_lift": True},
        ],
    }
    assert out == json.dumps(expected, indent=2) + "\n"


def test_json_output_is_byte_stable(capsys):
    first = run(capsys, "solve", "--builtin", "bos-agreement", "--format", "json")
    second = run(capsys, "solve", "--builtin", "bos-agreement", "--format", "json")
    assert first == second
    assert first[0] == 0


def test_concept_filter_trims_table_columns(capsys):
    code, out, _ = run(
        capsys, "solve", "--builtin", "voting-keynes", "--concept", "selection"
    )
    assert code == 0
    header = out.splitlines()[0]
    assert "SelectionEq" in header and "Quantifier" not in header


def test_concept_filter_trims_json_keys(capsys):
    code, out, _ = run(
        capsys,
        "solve",
        "--builtin",
        "voting-keynes",
        "--concept",
        "quantifier",
        "--format",
        "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["concept"] == "quantifier"
    assert "selection_equilibria" not in doc
    assert all("selection_eq" not in row for row in doc["rows"])
    assert all("quantifier_eq" in row for row in doc["rows"])


def test_single_profile_mode(capsys):
    code, out, err = run(
        capsys, "solve", "--builtin", "bos-lex", "--profile", "F,B"
    )
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert len(lines) == 2
    assert lines[1].split() == ["FB", "FB", "no", "W,", "H", "no", "W,", "H"]


def test_single_profile_json_omits_aggregates(capsys):
    code, out, _ = run(
        capsys,
        "solve",
        "--builtin",
        "bos-lex",
        "--profile",
        "F,B",
        "--format",
        "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["rows"]) == 1
    assert "quantifier_equilibria" not in doc
    assert "selection_equilibria" not in doc


def test_invalid_profile_is_an_input_error(capsys):
    code, _, err = run(
        capsys, "solve", "--builtin", "bos-lex", "--profile", "F,Z"
    )
    assert code == 2 and "error" in err


def test_analyze_table_golden(capsys):
    code, out, err = run(capsys, "analyze", "--builtin", "voting-keynes")
    assert code == 0 and err == ""
    assert out == KEYNES_ANALYSIS


def test_analyze_json(capsys):
    code, out, _ = run(
        capsys, "analyze", "--builtin", "voting-keynes", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    rows = {row["name"]: row for row in doc["players"]}
    assert rows["J1"]["closed"] is True and rows["J1"]["witness"] is None
    assert rows["J2"]["closed"] is False
    assert rows["J2"]["witness"] == {
        "context": {"A": "A", "B": "A"},
        "good_move": "A",
        "excluded_move": "B",
    }
    assert all(row["attains_lift"] for row in doc["players"])


def test_analyze_sweeps_each_goal_once_and_stops_at_the_witness(capsys, monkeypatch):
    abc = MoveSet(("A", "B", "C"))
    atoms = AtomOutcomes(("A", "B", "C"))
    closed_goal = _Counted(ArgmaxOrder(PreferenceOrder(("B", "C", "A"))))
    open_goal = _Counted(Fix())
    game = Game(
        "counted",
        (Player("P1", abc, closed_goal), Player("P2", abc, open_goal)),
        atoms,
        majority_rule(),
    )
    monkeypatch.setattr(hog.cli, "builtin", lambda name: game)
    code, out, err = run(capsys, "analyze", "--builtin", "counted")
    assert code == 0 and err == ""
    assert len(closed_goal.seen) == len(atoms.labels) ** len(abc)
    assert out.splitlines()[2].split()[:2] == ["P2", "no"]
    witness = is_closed(Fix(), abc, atoms).witness
    contexts = list(enumerate_contexts(abc, atoms))
    first = contexts.index(witness.context) + 1
    assert 0 < len(open_goal.seen) <= first < len(contexts)


def test_list_mentions_every_builtin(capsys):
    code, out, err = run(capsys, "list")
    assert code == 0 and err == ""
    names = [line.split()[0] for line in out.splitlines()]
    assert names == [
        "voting-intro",
        "voting-classical",
        "voting-keynes",
        "voting-allfix",
        "voting-allpunk",
        "meeting-ny",
        "matching-pennies",
        "bos-lex",
        "bos-agreement",
    ]


def test_solving_a_file_matches_the_builtin(tmp_path, capsys):
    from hog import builtin, render_game

    path = tmp_path / "keynes.hog"
    path.write_text(render_game(builtin("voting-keynes")).text)
    code, out, err = run(capsys, "solve", str(path))
    assert (code, err) == (0, "")
    assert out == KEYNES_TABLE


def test_vector_game_cells_show_payoff_tuples(tmp_path, capsys):
    path = tmp_path / "tiny.hog"
    path.write_text(TINY_VECTOR)
    code, out, _ = run(capsys, "solve", str(path))
    assert code == 0
    assert "HH        (1/2, 1)" in out


def test_parse_errors_reach_stderr_with_positions(tmp_path, capsys):
    path = tmp_path / "broken.hog"
    path.write_text("game g\nmoves P1 = { A, A }\n")
    code, out, err = run(capsys, "solve", str(path))
    assert code == 2 and out == ""
    assert f"{path}:2:17: error: duplicate move label 'A'" in err


def test_overly_nested_goal_is_a_located_parse_error(tmp_path, capsys):
    goal = "fix"
    for _ in range(1999):
        goal = f"lex({goal}, fix)"
    path = tmp_path / "deep.hog"
    path.write_text(
        "game deep\n"
        "moves P1 = { A, B }\n"
        "outcomes = { A, B }\n"
        "outcome_fn = majority\n"
        f"player P1 = {goal}\n"
    )
    code, out, err = run(capsys, "solve", str(path))
    assert code == 2 and out == ""
    assert f"{path}:5:413: error: selection expression nests deeper than" in err
    assert "internal error" not in err


def test_a_file_that_is_not_utf8_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "latin1.hog"
    path.write_bytes(b"game g\xff\n")
    code, out, err = run(capsys, "solve", str(path))
    assert code == 2 and out == ""
    assert err.startswith(f"error: could not read {path}: ")


def test_missing_file_is_an_input_error(capsys):
    code, _, err = run(capsys, "solve", "/nonexistent/nowhere.hog")
    assert code == 2 and err != ""


def test_unknown_builtin_lists_the_catalog(capsys):
    code, _, err = run(capsys, "solve", "--builtin", "nope")
    assert code == 2
    assert "voting-keynes" in err


def test_exactly_one_input_is_required(tmp_path, capsys):
    path = tmp_path / "keynes.hog"
    path.write_text("game g\n")
    code, _, err = run(capsys, "solve")
    assert code == 2 and err != ""
    code, _, err = run(capsys, "solve", str(path), "--builtin", "voting-keynes")
    assert code == 2 and err != ""


def test_budget_exhaustion_has_its_own_exit_code(capsys):
    code, _, err = run(
        capsys, "solve", "--builtin", "voting-keynes", "--max-profiles", "2"
    )
    assert code == 3
    assert "budget" in err


def test_nonpositive_budget_is_an_input_error(capsys):
    code, _, err = run(
        capsys, "solve", "--builtin", "voting-keynes", "--max-profiles", "0"
    )
    assert code == 2 and err != ""


def test_console_script_is_wired_up(tmp_path):
    # The suite runs from an uninstalled checkout, so write the launcher that
    # installing the package would put on PATH, the way pip does, from the
    # entry point that pyproject.toml declares.
    tomllib = pytest.importorskip("tomllib")
    with open(REPO / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)
    module, attr = project["project"]["scripts"]["hog"].split(":")
    where = project["tool"]["setuptools"]["packages"]["find"]["where"]
    script = tmp_path / "bin" / "hog"
    script.parent.mkdir()
    script.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {module} import {attr}\n"
        f"sys.exit({attr}())\n"
    )
    script.chmod(0o755)

    env = dict(os.environ)
    env["PATH"] = os.pathsep.join([str(script.parent), env.get("PATH", "")])
    env["PYTHONPATH"] = os.pathsep.join(str(REPO / d) for d in where)
    exe = shutil.which("hog", path=env["PATH"])
    assert exe is not None and Path(exe) == script
    proc = subprocess.run(
        [exe, "solve", "--builtin", "voting-keynes"],
        capture_output=True,
        text=True,
        timeout=60,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == KEYNES_TABLE
