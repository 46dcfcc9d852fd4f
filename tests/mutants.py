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
DSL = "src/hog/dsl.py"
ENGINE_TESTS = ("tests/test_engine.py",)
DSL_TESTS = ("tests/test_dsl.py",)
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
        "            return self._position.keys() >= set(values)\n",
        "            return all(map(self.labels.__contains__, values))\n",
        ENGINE_TESTS,
    ),
    Mutant(
        "atom-membership-by-scan", CORE,
        "and super()._contains_all(values)",
        "and all(map(self.labels.__contains__, values))",
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
        "all(map(isinstance, values, repeat(str)))",
        "all(map(isinstance, values, repeat(object)))",
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
        "score-slice-at-coord", CORE,
        "map(itemgetter(self.coord - 1), values)",
        "map(itemgetter(self.coord), values)",
        ENGINE_TESTS,
    ),
    Mutant(
        "vector-membership-without-type-check", CORE,
        "return all(map(isinstance, payoffs, repeat((int, Fraction)))) and all(\n"
        "            map(self._level_of.__contains__, map(_level_key, payoffs))\n"
        "        )\n",
        "return all(map(self._level_of.__contains__, map(_level_key, payoffs)))\n",
        CORE_TESTS,
    ),
    Mutant(
        "vector-keys-drop-a-coordinate", CORE,
        "for c in range(self.dim))",
        "for c in range(self.dim - 1))",
        ENGINE_TESTS,
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
        "and values_ok(\n        list(map(itemgetter(1), entries))",
        "and bool(\n        list(map(itemgetter(1), entries))",
        TABLE_TESTS,
    ),
    # one membership rule per space: `in` is the bulk rule on one value, so
    # the walk and the accept agree under these, and the pinned cases of
    # `in` in tests/test_core.py kill them
    Mutant(
        "vector-accept-by-exact-type", CORE,
        "all(map(isinstance, payoffs, repeat((int, Fraction))))",
        "set(map(type, payoffs)) <= {int, Fraction}",
        CORE_TESTS,
    ),
    Mutant(
        "vector-accept-without-dim", CORE,
        "        if not _tuples_of(values, self.dim):\n",
        "        if not all(map(isinstance, values, repeat(tuple))):\n",
        CORE_TESTS,
    ),
    Mutant(
        "vector-accept-without-tuple-type", CORE,
        "return all(map(isinstance, values, repeat(tuple))) and set(map(len, values)) <= {n}",
        "return set(map(len, values)) <= {n}",
        CORE_TESTS,
    ),
    Mutant(
        "tuple-check-without-length", CORE,
        " and set(map(len, values)) <= {n}",
        "",
        CORE_TESTS,
    ),
    Mutant(
        "atom-bulk-without-str-check", CORE,
        "return all(map(isinstance, values, repeat(str))) and super()._contains_all(values)",
        "return super()._contains_all(values)",
        CORE_TESTS,
    ),
    Mutant(
        "product-bulk-without-column-check", CORE,
        "return _tuples_of(values, len(self.coords)) and all(\n"
        "            m._contains_all(column) for m, column in zip(self.coords, zip(*values))\n"
        "        )",
        "return _tuples_of(values, len(self.coords))",
        CORE_TESTS,
    ),
    Mutant(
        "move-set-bulk-lets-type-error-escape", CORE,
        "        try:\n"
        "            return self._position.keys() >= set(values)\n"
        "        except TypeError:  # an unhashable value is no label\n"
        "            return False\n",
        "        return self._position.keys() >= set(values)\n",
        CORE_TESTS,
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
    # each caller asks its space about a whole sequence, and walks it only
    # to name the first value outside
    Mutant(
        "context-accepted-without-the-bulk-rule", CORE,
        "        if not self.codomain._contains_all(t):\n",
        "        if False:\n",
        ENGINE_TESTS,
    ),
    Mutant(
        "context-walk-names-the-last-fault", CORE,
        "v = next(v for v in t if v not in self.codomain)",
        "v = next(v for v in t[::-1] if v not in self.codomain)",
        ENGINE_TESTS,
    ),
    Mutant(
        "order-extras-always-empty", CORE,
        "extra = [] if codomain._contains_all(ranking) else "
        "[v for v in ranking if v not in codomain]",
        "extra = []",
        CORE_TESTS,
    ),
    Mutant(
        "order-walk-names-the-last-fault", CORE,
        "[v for v in ranking if v not in codomain]",
        "[v for v in ranking[::-1] if v not in codomain]",
        CORE_TESTS,
    ),
    Mutant(
        "table-row-moves-unchecked", CORE,
        "            if not domain._contains_all(moves):\n",
        "            if False:\n",
        CORE_TESTS,
    ),
    Mutant(
        "table-row-walk-names-the-last-fault", CORE,
        "m = next(m for m in moves if m not in domain)",
        "m = next(m for m in moves[::-1] if m not in domain)",
        CORE_TESTS,
    ),
    Mutant(
        "majority-winner-check-dropped", ENGINE,
        "        elif not outcomes._contains_all(move_sets[0].labels):\n",
        "        elif False:\n",
        ("tests/test_dsl.py",),
    ),
    Mutant(
        "profile-check-accepts-any-of-the-right-length", ENGINE,
        "        if not self._profiles._contains_all((profile,)):\n",
        "        if False:\n",
        ENGINE_TESTS,
    ),
    Mutant(
        "profile-walk-names-the-last-fault", ENGINE,
        "for x, p in zip(profile, self.players) if x not in p.moves)",
        "for x, p in list(zip(profile, self.players))[::-1] if x not in p.moves)",
        ENGINE_TESTS,
    ),
    # one body per mirrored goal pair: the subclasses pick the comparison
    Mutant(
        "fix-compares-by-ne", CORE,
        "class Fix(_Fixpoints):\n"
        '    """Moves the context maps to themselves; every move if none do."""\n\n'
        "    _op = eq\n",
        "class Fix(_Fixpoints):\n"
        '    """Moves the context maps to themselves; every move if none do."""\n\n'
        "    _op = ne\n",
        CORE_TESTS,
    ),
    Mutant(
        "nonfix-proj-compares-by-eq", CORE,
        "class NonFixProj(_Projections):\n"
        '    """Moves disagreeing with coordinate `coord` of the outcome; contrarians."""\n\n'
        "    _op = ne\n",
        "class NonFixProj(_Projections):\n"
        '    """Moves disagreeing with coordinate `coord` of the outcome; contrarians."""\n\n'
        "    _op = eq\n",
        CORE_TESTS,
    ),
    Mutant(
        "fixpoints-without-fallback", CORE,
        "return _with_fallback(p, _where(p, self._op, p.table, p.domain.labels))",
        "return _where(p, self._op, p.table, p.domain.labels)",
        CORE_TESTS,
    ),
    Mutant(
        "projections-without-fallback", CORE,
        "return _with_fallback(p, _where(p, self._op, picks, p.domain.labels))",
        "return _where(p, self._op, picks, p.domain.labels)",
        CORE_TESTS,
    ),
    # table bodies read in bulk, walked token by token only to diagnose
    Mutant(
        "bulk-body-accepted-unchecked", DSL,
        "        if not all(map(re.compile(_S + _ENTRY + _S).fullmatch, pieces)):\n",
        "        if False:\n",
        DSL_TESTS,
    ),
    Mutant(
        "bulk-body-lines-uncounted", DSL,
        "                line += newlines\n",
        "                line += 0\n",
        DSL_TESTS,
    ),
    Mutant(
        # the blank piece after it then fails its check: the body is walked
        "bulk-trailing-semicolon-kept-as-a-piece", DSL,
        "            pieces.pop()\n",
        "            pass\n",
        DSL_TESTS,
    ),
    Mutant(
        # a form feed or no-break space after the trailing ';' is dropped too
        "bulk-trailing-piece-blank-by-str-strip", DSL,
        "        if re.fullmatch(_S, pieces[-1]):  # a trailing ';'\n",
        "        if not pieces[-1].strip():  # a trailing ';'\n",
        DSL_TESTS,
    ),
    Mutant(
        "bulk-failure-not-walked-again", DSL,
        "    return result if result.ok else _parse(text, _PLAIN_RE)\n",
        "    return result\n",
        DSL_TESTS,
    ),
    Mutant(
        # `Fraction("1/0")` in `_entry` raises out of parse_game
        "bulk-entry-zero-denominator-accepted", DSL,
        '_RATIONAL = r"-?\\d+(?:/0*[1-9]\\d*)?"',
        '_RATIONAL = r"-?\\d+(?:/\\d+)?"',
        DSL_TESTS,
    ),
    Mutant(
        # a vertical tab, form feed or no-break space passes for a blank
        "bulk-blanks-any-whitespace", DSL,
        '_S = r"[ \\t\\r\\n]*"',
        '_S = r"\\s*"',
        DSL_TESTS,
    ),
    Mutant(
        # a commented body fails its check and is walked
        "bulk-comments-kept", DSL,
        '            text = re.sub(r"\\#[^\\n]*", "", text)\n',
        "            pass\n",
        DSL_TESTS,
    ),
    Mutant(
        # the same bodies match, but an unclosed one takes quadratic time
        "bulk-table-lead-ambiguous", DSL,
        r"(?:{_S}\#[^\n]*\n)*{_S}\(",
        r"{_S}{_COMMENTS}\(",
        DSL_TESTS,
    ),
    Mutant(
        # a payoff vector becomes a label tuple: a type mismatch
        "bulk-entry-numbers-as-labels", DSL,
        '        if value[0][0] in "-0123456789":\n',
        "        if False:\n",
        DSL_TESTS,
    ),
    # one profile check per evaluate_profile
    Mutant(
        "evaluate-profile-contexts-from-the-unchecked-profile", ENGINE,
        "        ctx = _context(game, s, i)\n",
        "        ctx = _context(game, profile, i)\n",
        ENGINE_TESTS,
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
