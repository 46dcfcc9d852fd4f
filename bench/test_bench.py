"""Self-test of the benchmark (not of hog).

    python3 bench/test_bench.py

Checks that two seeds give different inputs of the same sizes, that traced
runs repeat their call counters exactly, that the reference checks catch a
corrupted answer, that expected exits 2 and 3 count as successes and
unexpected ones as failures, that the pace sampler leaves its own time out
of what it times, that every metric named in BENCHMARK.json is printed with
its unit, and that the benchmark refuses to run where there is no `src/hog`
to measure.
"""

import json
import shutil
import statistics
import subprocess
import sys
import unittest
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from oracle import outcome_values  # noqa: E402
from pace import REFERENCE_S, Pace  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, check_cli, matrix_game  # noqa: E402

hog = run.import_hog()

#: a few cheap requests of each workload, so a traced pass takes seconds
SMALL = {
    "solve-majority": lambda specs: specs[:2],
    "solve-matrix": lambda specs: specs[:1],
    "law-sweeps": lambda specs: [s for s in specs if len(s[1]) == 5][:6],
    "cli-requests": lambda specs: specs,
}


def small(name):
    wl = WORKLOADS[name]

    class Small(type(wl)):
        def specs(self, seed):
            return SMALL[name](super().specs(seed))

    return Small()


class BenchTest(unittest.TestCase):
    def setUp(self):
        run.OUT.mkdir(exist_ok=True)
        self.workdir = run.OUT / f"selftest-{self.id().rsplit('.', 1)[-1]}"
        self.workdir.mkdir(exist_ok=True)

    def tearDown(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def one_pass(self, name, seed=3, tracer=None):
        r = run.Run(hog, small(name), seed, self.workdir)
        if tracer is None:
            r.one_pass()
            return r
        tracer.install(hog)
        try:
            r.one_pass(tracer)
        finally:
            tracer.uninstall()
        return r

    def test_traced_counters_repeat_exactly(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                counts = []
                for _ in range(2):
                    t = Tracer()
                    self.one_pass(name, tracer=t)
                    metrics = t.layer_metrics(1)
                    counts.append({k: v for k, v in metrics.items()
                                   if k.endswith((".calls", ".base", ".max"))})
                self.assertEqual(counts[0], counts[1])
                self.assertTrue(any(counts[0].values()))

    def test_seeds_change_inputs_but_not_their_sizes(self):
        def kinds(goal):  # the goal's constructors, without their parameters
            if goal[0] == "lex":
                return f"lex({kinds(goal[1])}, {kinds(goal[2])})"
            return goal[0]

        def game_size(game):
            if "payoff" in game:
                game = matrix_game(game)
            return (len(game["players"]),
                    tuple(len(m) for _, m, _ in game["players"]),
                    sorted(kinds(g) for _, _, g in game["players"]),
                    len(outcome_values(game["outcomes"])),
                    len(game["fn"][1]) if game["fn"][0] == "table" else 0)

        def size(name, spec):
            if name in ("solve-majority", "solve-matrix"):
                return game_size(spec)
            if name == "law-sweeps":
                law, moves, space, goal = spec
                return law, len(moves), len(outcome_values(space)), kinds(goal)
            argv, question, texts = spec
            game = question[1] if len(question) > 2 else None
            return len(argv), question[0], game and game_size(game), len(texts)

        for name, wl in WORKLOADS.items():
            with self.subTest(workload=name):
                a, b = wl.specs(1), wl.specs(2)
                self.assertNotEqual(a, b)
                self.assertEqual([size(name, s) for s in a], [size(name, s) for s in b])

    def test_uninstall_restores_hog(self):
        before = (hog.enumerate_equilibria, hog.cli.enumerate_equilibria,
                  hog.engine.GameContext.__post_init__, hog.core.Fix.__call__)
        t = Tracer()
        t.install(hog)
        self.assertIsNot(hog.cli.enumerate_equilibria, before[1])
        t.uninstall()
        after = (hog.enumerate_equilibria, hog.cli.enumerate_equilibria,
                 hog.engine.GameContext.__post_init__, hog.core.Fix.__call__)
        self.assertEqual(before, after)

    def corrupted(self, name, digest):
        if name == "solve-majority":
            first = digest[0]
            return ((first[0], first[1], not first[2]) + first[3:],) + digest[1:]
        if name == "solve-matrix":
            rows, q_eq, s_eq = digest
            return rows, q_eq, s_eq + (rows[0][0],)
        if name == "law-sweeps":
            return (not digest[0],) + digest[1:]
        code, out, err = digest
        return code, out.replace("yes", "no").replace("true", "false"), err

    def test_reference_flags_a_corrupted_verdict(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                r = self.one_pass(name)
                wl = r.wl
                self.assertEqual(r.check()[1], 0)
                flagged = 0
                for spec, seen in zip(r.specs, r.seen):
                    (digest,) = seen
                    bad = self.corrupted(name, digest)
                    if bad != digest:
                        self.assertFalse(wl.check(hog, spec, bad).ok)
                        flagged += 1
                self.assertGreater(flagged, 0)

    def test_expected_exits_pass_and_unexpected_fail(self):
        r = self.one_pass("cli-requests")
        errors = [(spec, seen) for spec, seen in zip(r.specs, r.seen)
                  if spec[1][0] == "error"]
        self.assertEqual({spec[1][1] for spec, _ in errors}, {2, 3})
        for spec, seen in errors:
            (digest,) = seen
            self.assertTrue(check_cli(spec[1], *digest).ok)
            self.assertFalse(check_cli(spec[1], 0, "", digest[2]).ok)
            self.assertFalse(check_cli(spec[1], 4, "", digest[2]).ok)
        # an answer that should have succeeded but exits 3 is a failure too
        spec, seen = next((s, seen) for s, seen in zip(r.specs, r.seen) if s[1][0] == "solve")
        self.assertFalse(check_cli(spec[1], 3, "", "error: over budget").ok)
        # and Run.check counts it against the attempts
        seen.clear()
        seen[(3, "", "error: over budget")] = 2
        attempted, failed, _, _ = r.check()
        self.assertEqual((attempted, failed), (len(r.specs) + 1, 2))

    def test_pace_leaves_its_samples_out_and_scales_by_them(self):
        with Pace() as pace:
            start, t0 = pace.now()
            spent = pace.spent
            while perf_counter() - start < 0.3:
                pass
            end, t1 = pace.now()
        self.assertGreater(len(pace.took), 5)
        self.assertAlmostEqual((end - start) - (t1 - t0), pace.spent - spent, places=9)
        self.assertAlmostEqual(pace.scale(start - 1, end + 1),
                               REFERENCE_S / statistics.mean(pace.took))

    def test_every_named_metric_is_printed_with_its_unit(self):
        declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            with self.subTest(kind=kind):
                done = subprocess.run(
                    [sys.executable, str(BENCH / "run.py"), "--workload", "cli-requests",
                     "--seed", "5", "--seconds", "1", "--trace", str(trace)],
                    capture_output=True, text=True, timeout=170)
                self.assertEqual(done.returncode, 0, done.stderr)
                result = json.loads(done.stdout.strip().splitlines()[-1])
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                want = {m["name"]: m["unit"] for m in declared[kind]}
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                self.assertEqual(got, want)
                for name, v in result["metrics"].items():
                    self.assertIsInstance(v["value"], (int, float), name)
                    if kind == "end_to_end":
                        self.assertGreater(v["value"], 0, name)
                        self.assertIn(f"# {name} ", done.stdout)

    def test_refuses_to_run_without_the_program(self):
        bare = self.workdir / "bare"
        shutil.copytree(BENCH, bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        done = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "solve-matrix", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    unittest.main()
