"""A catalogue of hand-made mutants of hog, each with the tests that kill it.

    python3 tests/mutants.py              # run every mutant
    python3 tests/mutants.py NAME ...     # run the named mutants
    python3 tests/mutants.py --list       # list them

Each mutant is (file, snippet, replacement, test files): the snippet occurs
exactly once in the file, and the mutant is that file with the snippet
replaced.  The script copies the repository into a temporary directory,
applies one mutant at a time to the copy and runs its test files there with
pytest; a failing run kills the mutant.  It prints one line per mutant and
killed/total, and exits 1 if a mutant that is not a known survivor lives.

Stdlib only; pytest collects `test_*.py` files, so it never runs this one.
`tests/test_mutants.py` checks in tier-1 that every snippet still occurs
exactly once, so the catalogue cannot rot silently.
"""

import argparse
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple, Optional

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    snippet: str
    replacement: str
    tests: tuple  # test files, relative to the repository root
    survivor: Optional[str] = None  # why it is expected to live, if it is


ENGINE = "src/hog/engine.py"
CORE = "src/hog/core.py"
ENGINE_TESTS = ("tests/test_engine.py",)
TABLE_TESTS = ("tests/test_tables.py",)
CORE_TESTS = ("tests/test_core.py",)

MUTANTS = (
    # byte-keyed deviation lines
    Mutant(
        "byte-keys-unsorted-find", ENGINE,
        "for at in sorted(filter((-1).__ne__, map(key.find, range(d**k)))):",
        "for at in filter((-1).__ne__, map(key.find, range(d**k))):",
        ENGINE_TESTS,
    ),
    Mutant(
        "byte-keys-last-slot-unset", ENGINE,
        "for at in sorted(filter((-1).__ne__, map(key.find, range(d**k)))):",
        "for at in sorted(filter((-1).__ne__, map(key.find, range(d**k))))[:-1]:",
        ENGINE_TESTS,
    ),
    Mutant(
        "byte-keys-wrong-times-table", ENGINE,
        "times = bytes(range(0, d**k, d))",
        "times = bytes(range(0, d**(k - 1)))",
        ENGINE_TESTS,
    ),
    Mutant(
        "byte-keys-reversed-line-ids", ENGINE,
        "judge(tuple([column[at] for column in columns]))",
        "judge(tuple([column[at] for column in columns[::-1]]))",
        ENGINE_TESTS,
    ),
    Mutant(
        "byte-keys-lines-bound-off-by-one", ENGINE,
        "len(by_id) ** min(k, 9) < min(257, lines)",
        "len(by_id) ** min(k, 9) < min(256, lines)",
        ENGINE_TESTS,
    ),
    Mutant(
        "byte-ids-only-below-256", ENGINE,
        "ids = (bytes if len(by_id) <= 256 else list)",
        "ids = (bytes if len(by_id) < 256 else list)",
        ENGINE_TESTS,
    ),
    Mutant(
        "byte-keys-other-digit-order", ENGINE,
        # Horner's rule from the first column up, not from the last down
        "k, key = len(columns), columns[-1]\n"
        '    times = bytes(range(0, d**k, d)).ljust(256, b"\\0")  # x -> x * d, for x < d**(k-1)\n'
        "    for column in columns[-2::-1]:\n",
        "k, key = len(columns), columns[0]\n"
        '    times = bytes(range(0, d**k, d)).ljust(256, b"\\0")  # x -> x * d, for x < d**(k-1)\n'
        "    for column in columns[1:]:\n",
        ENGINE_TESTS,
        survivor="equivalent: the goal reads the line's ids, not the key, and "
        "any digit order is a bijection of keys",
    ),
    # one owner of profiles and labels
    Mutant(
        "move-set-membership-by-scan", CORE,
        "            return label in self._position\n",
        "            return label in self.labels\n",
        ENGINE_TESTS,
    ),
    Mutant(
        "atom-membership-by-scan", CORE,
        "return isinstance(value, str) and value in self._position",
        "return isinstance(value, str) and value in self.labels",
        ENGINE_TESTS,
    ),
    Mutant(
        "move-set-membership-raises-on-unhashable", CORE,
        "        except TypeError:  # an unhashable value is no label\n"
        "            return False\n",
        "        except KeyError:\n            return False\n",
        ("tests/test_core.py",),
    ),
    Mutant(
        "rank-without-length-check", CORE,
        "zip(self.coords, value, strict=True)",
        "zip(self.coords, value)",
        ENGINE_TESTS,
    ),
    Mutant(
        "table-shape-by-length-only", ENGINE,
        "        if profile not in profiles:\n",
        "        if len(profile) != profiles.arity:\n",
        ENGINE_TESTS,
    ),
    Mutant(
        "table-misses-miscounted", ENGINE,
        "    total = profiles.size()\n",
        "    total = profiles.size() - 1\n",
        ENGINE_TESTS,
    ),
    Mutant(
        "profiles-in-reverse-move-order", CORE,
        "return cartesian(*(m.labels for m in self.coords))",
        "return cartesian(*(m.labels[::-1] for m in self.coords))",
        ENGINE_TESTS,
    ),
    Mutant(
        # what the benchmark's tracer cannot patch: it wraps `vars(cls)["rank"]`
        "product-rank-out-of-the-class-body", CORE,
        "    def rank(self, value) -> int:\n        # lexicographic in declaration order",
        "    def _rank(self, value) -> int:\n        # lexicographic in declaration order",
        ("tests/test_bench_hooks.py",),
    ),
    # one ordered label set behind `MoveSet` and `AtomOutcomes`
    Mutant(
        "labels-empty-accepted", CORE,
        "        if not self.labels:\n            raise ValueError(self._empty)\n",
        "",
        CORE_TESTS,
    ),
    Mutant(
        "labels-duplicates-accepted", CORE,
        "        if len(set(self.labels)) != len(self.labels):\n"
        "            raise ValueError(self._duplicate.format(self.labels))\n",
        "",
        CORE_TESTS,
    ),
    Mutant(
        "labels-kept-as-given", CORE,
        'object.__setattr__(self, "labels", tuple(self.labels))',
        'object.__setattr__(self, "labels", self.labels)',
        CORE_TESTS,
    ),
    Mutant(
        "label-positions-from-one", CORE,
        "return {x: i for i, x in enumerate(self.labels)}",
        "return {x: i for i, x in enumerate(self.labels, 1)}",
        CORE_TESTS,
    ),
    Mutant(
        "label-lookup-leaks-its-key-error", CORE,
        "            return self.labels.index(label)\n",
        "            raise\n",
        CORE_TESTS,
    ),
    Mutant(
        "move-set-takes-the-outcome-messages", CORE,
        '    _empty = "a move set needs at least one move"\n'
        '    _duplicate = "duplicate move labels in {!r}"\n',
        '    _empty = "an outcome space needs at least one value"\n'
        '    _duplicate = "duplicate outcome labels in {!r}"\n',
        CORE_TESTS,
    ),
    Mutant(
        "atom-membership-takes-non-str", CORE,
        "return isinstance(value, str) and value in self._position",
        "return value in self._position",
        CORE_TESTS,
    ),
    Mutant(
        "label-lookups-bound-in-the-base", CORE,
        "            return self.labels.index(label)\n\n",
        "            return self.labels.index(label)\n\n    rank = index = _index\n\n",
        CORE_TESTS,
    ),
    Mutant(
        # `rank` still works, but through a base: the tracer wraps `vars(cls)["rank"]`
        "atom-rank-out-of-the-class-body", CORE,
        "class AtomOutcomes(_Labels):\n"
        '    """Outcomes are bare labels, e.g. the candidate elected."""\n\n'
        '    _empty = "an outcome space needs at least one value"\n'
        '    _duplicate = "duplicate outcome labels in {!r}"\n'
        "    rank = _Labels._index\n",
        "class _RankedLabels(_Labels):\n    rank = _Labels._index\n\n\n"
        "class AtomOutcomes(_RankedLabels):\n"
        '    """Outcomes are bare labels, e.g. the candidate elected."""\n\n'
        '    _empty = "an outcome space needs at least one value"\n'
        '    _duplicate = "duplicate outcome labels in {!r}"\n',
        ("tests/test_bench_hooks.py",),
    ),
    # payoff levels have one owner
    Mutant(
        "score-slice-at-coord", ENGINE,
        "levels[p.selection.coord - 1 :: codomain.dim]",
        "levels[p.selection.coord :: codomain.dim]",
        ENGINE_TESTS,
    ),
    Mutant(
        "vector-membership-without-type-check", CORE,
        "            and all(map(isinstance, value, repeat((int, Fraction))))\n",
        "",
        CORE_TESTS,
    ),
    Mutant(
        "levels-from-table-without-dedup", CORE,
        "return cls(dim, tuple(dict(zip(map(_level_key, payoffs), payoffs)).values()))",
        "return cls(dim, tuple(payoffs))",
        ENGINE_TESTS,
    ),
    # tables accepted in bulk, walked only to diagnose
    Mutant(
        "table-accept-without-count", ENGINE,
        "    if len(entries) != profiles.size():\n        return False\n",
        "",
        TABLE_TESTS,
    ),
    Mutant(
        "table-accept-subset-for-superset", ENGINE,
        "return listed.issuperset(profiles.iter_outcomes())",
        "return listed.issubset(profiles.iter_outcomes())",
        TABLE_TESTS,
    ),
    Mutant(
        "table-accept-raises-on-unhashable", ENGINE,
        "    except TypeError:\n        return False\n    return listed",
        "    except KeyError:\n        return False\n    return listed",
        TABLE_TESTS,
    ),
    Mutant(
        "table-accept-values-unchecked", ENGINE,
        "values_ok = values_ok or (lambda values: not any(map(value_problem, values)))",
        "values_ok = values_ok or (lambda values: True)",
        TABLE_TESTS,
    ),
    Mutant(
        "vector-accept-by-isinstance", CORE,
        "if not set(map(type, payoffs)) <= {int, Fraction}:",
        "if not all(map(isinstance, payoffs, repeat((int, Fraction)))):",
        TABLE_TESTS,
    ),
    Mutant(
        "vector-accept-without-dim", CORE,
        "set(map(type, values)) != {tuple} or set(map(len, values)) != {self.dim}",
        "set(map(type, values)) != {tuple}",
        TABLE_TESTS,
    ),
    Mutant(
        "vector-accept-without-tuple-type", CORE,
        "set(map(type, values)) != {tuple} or set(map(len, values)) != {self.dim}",
        "set(map(len, values)) != {self.dim}",
        TABLE_TESTS,
    ),
    Mutant(
        "distinct-payoffs-by-value", CORE,
        "return list(dict(zip(map(id, values), values)).values())",
        "return list(dict.fromkeys(values))",
        TABLE_TESTS,
    ),
    Mutant(
        "exact-keeps-fraction-subclass", CORE,
        "return payoff if type(payoff) is Fraction else Fraction(payoff)",
        "return payoff if isinstance(payoff, Fraction) else Fraction(payoff)",
        ENGINE_TESTS,
    ),
    Mutant(
        "game-order-checked-by-any", ENGINE,
        "if not all(map(eq, listed, self.profiles())):",
        "if not any(map(eq, listed, self.profiles())):",
        TABLE_TESTS,
    ),
)


def _copy(dest: Path) -> Path:
    shutil.copytree(
        ROOT, dest,
        ignore=shutil.ignore_patterns(
            ".git", ".bench_out", ".hypothesis", ".pytest_cache", "__pycache__"
        ),
    )
    return dest


def run(mutant: Mutant, tree: Path) -> bool:
    """Apply `mutant` to `tree`, run its tests, restore the file; killed?"""
    path = tree / mutant.file
    original = path.read_text(encoding="utf-8")
    if original.count(mutant.snippet) != 1:
        raise SystemExit(f"{mutant.name}: snippet does not occur exactly once in {mutant.file}")
    path.write_text(original.replace(mutant.snippet, mutant.replacement), encoding="utf-8")
    try:
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             *mutant.tests],
            cwd=tree, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
    finally:
        path.write_text(original, encoding="utf-8")
    return done.returncode != 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    parser.add_argument("--list", action="store_true", help="list the mutants")
    args = parser.parse_args(argv)
    by_name = {m.name: m for m in MUTANTS}
    unknown = [n for n in args.names if n not in by_name]
    if unknown:
        parser.error(f"unknown mutants: {', '.join(unknown)}")
    chosen = [by_name[n] for n in args.names] or list(MUTANTS)
    if args.list:
        for m in chosen:
            print(m.name, m.file, " ".join(m.tests), "(survivor)" if m.survivor else "")
        return 0
    killed, unexpected = 0, []
    with tempfile.TemporaryDirectory() as tmp:
        tree = _copy(Path(tmp) / "repo")
        for m in chosen:
            dead = run(m, tree)
            killed += dead
            note = f"  (known survivor: {m.survivor})" if m.survivor else ""
            print(f"{'killed' if dead else 'LIVED '}  {m.name}{note}", flush=True)
            if not dead and not m.survivor:
                unexpected.append(m.name)
    print(f"{killed}/{len(chosen)} killed")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
