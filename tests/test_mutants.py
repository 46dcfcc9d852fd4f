"""The mutation catalogue (`tests/mutants.py`) still fits the code.

Running the mutants takes minutes and stays out of tier-1; this only checks
that each snippet occurs exactly once in its file and that every named test
file exists, so an edit that moves a snippet is caught here.
"""

import pytest

from mutants import MUTANTS, ROOT


def test_mutant_names_are_distinct():
    names = [m.name for m in MUTANTS]
    assert len(set(names)) == len(names)


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_each_snippet_occurs_exactly_once(mutant):
    text = (ROOT / mutant.file).read_text(encoding="utf-8")
    assert text.count(mutant.snippet) == 1
    assert mutant.replacement != mutant.snippet
    assert all((ROOT / t).is_file() for t in mutant.tests)
