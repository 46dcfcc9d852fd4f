"""Benchmark of hog: end-to-end metrics, or per-layer metrics from a traced run.

    python3 bench/run.py --workload solve-majority --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all            # the four workloads in turn

It imports `hog` from `src/` next to this directory (nothing needs to be
installed), builds the workload's seeded inputs, and runs whole passes over
the workload's request list in this one process, on one thread, until the
next pass would end after `--seconds`.  Every answer is checked against
`oracle.py`, outside the timed region.  Between requests it launches the CLI
cold a few times with `python -m hog.cli`, since no `hog` console script is
installed where the benchmark was written.

With `--trace 0` it reports the end-to-end metrics named in BENCHMARK.json,
every time stated at the fixed reference pace of `pace.py`, with the process
and the ones it launches kept on one CPU (the times as measured are printed
beside them); with `--trace 1` it runs one untraced pass, then traced
passes, and reports the per-layer metrics, timed as measured.  Lines starting with `#` are for people; the last
line is the result as JSON.  Details, including the environment and, for
traced runs, every span, go to `.bench_out/` at the repository root.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter, namedtuple
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

from pace import Pace
from tracer import Tracer
from workloads import WORKLOADS, check_cli

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_RUNS = 5  # set-ups timed before the first pass (each pass adds one)
IMPORT_RUNS = 5  # fresh interpreters timed for `import hog`
COLD_RUNS = 11  # cold CLI launches per run

COLD_NOTE = ("cold launches run `python -m hog.cli`: no `hog` console script is "
             "installed here")

Raised = namedtuple("Raised", "type message")


def child_env():
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def import_hog():
    """Import hog from this checkout's src/, or exit with an error."""
    sys.path.insert(0, str(SRC))
    try:
        import hog
        import hog.cli  # noqa: F401  (the package does not import its CLI)
    except ImportError as e:
        sys.exit(f"error: cannot import hog from {SRC}: {e}")
    if not Path(hog.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"error: imported hog from {hog.__file__}, not from {SRC}")
    return hog


def environment(seed):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "cpu": cpu,
            "nproc": len(os.sched_getaffinity(0)), "git_sha": git_sha(), "seed": seed,
            "note": COLD_NOTE}


def git_sha():
    """HEAD's commit, read from .git directly; None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def percentile(values, pct):
    """Linear interpolation between closest ranks, as numpy's default."""
    xs = sorted(values)
    pos = (len(xs) - 1) * pct / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def plain_clock():
    t = perf_counter()
    return t, t


def time_children(argv, runs, pace=None):
    """(start, end, wall seconds) of each of `runs` sequential launches, and
    their output."""
    times, outputs = [], []
    for _ in range(runs):
        with pace.quiet() if pace else nullcontext():
            start = perf_counter()
            done = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True,
                                  text=True, timeout=120)
            end = perf_counter()
        times.append((start, end, end - start))
        outputs.append((done.returncode, done.stdout, done.stderr))
    return times, outputs


IMPORT_PROBE = "import time; t = time.perf_counter(); import hog; print(time.perf_counter() - t)"


class Run:
    """One workload at one seed: set-up, timed passes, and checks.

    Every timing is kept as (start, end, seconds): the wall-clock interval,
    for scaling to the reference pace, and the seconds the work took, which
    with a `Pace` leave out the time spent sampling it."""

    def __init__(self, hog, workload, seed, workdir, pace=None):
        self.hog, self.wl, self.seed, self.workdir = hog, workload, seed, workdir
        self.clock = pace.now if pace else plain_clock
        self.specs = workload.specs(seed)
        self.seen = [Counter() for _ in self.specs]  # digest -> executions
        self.setups = []
        self.requests = []  # one list per pass

    def setup(self):
        start, t0 = self.clock()
        specs = self.wl.specs(self.seed)
        calls = self.wl.build(self.hog, specs, self.workdir)
        end, t1 = self.clock()
        self.setups.append((start, end, t1 - t0))
        return calls

    def one_pass(self, tracer=None, label=0, after_request=None):
        calls = self.setup()
        requests = []
        for i, call in enumerate(calls):
            if tracer is not None:
                span = tracer.begin_request((label, i))
            start, t0 = self.clock()
            try:
                result = call()
            except Exception as e:  # a failed request is counted, not fatal
                result = Raised(type(e).__name__, str(e))
            end, t1 = self.clock()
            if tracer is not None:
                tracer.end_request(span)
            requests.append((start, end, t1 - t0))
            if not isinstance(result, Raised):
                try:
                    result = self.wl.digest(result)
                except Exception as e:
                    result = Raised(type(e).__name__, str(e))
            self.seen[i][result] += 1
            if after_request is not None:
                after_request()
        self.requests.append(requests)
        return sum(took for _, _, took in requests)

    def passes(self, seconds, tracer=None, between=None):
        """Whole passes while the next one is expected to end in time.

        `between(elapsed)` is called after each request; the time it takes
        does not count against `seconds`."""
        start = perf_counter()
        paused = 0.0

        def elapsed():
            return perf_counter() - start - paused

        def pause():
            nonlocal paused
            t = perf_counter()
            between(elapsed())
            paused += perf_counter() - t

        done = []
        while not done or elapsed() + statistics.mean(done) <= seconds:
            done.append(self.one_pass(tracer, len(self.requests), between and pause))
        return done

    def check(self):
        """(attempted, failed, profiles, contexts) over every execution."""
        attempted = failed = profiles = contexts = 0
        for spec, seen in zip(self.specs, self.seen):
            for digest, n in seen.items():
                try:
                    v = self.wl.check(self.hog, spec, digest)
                except Exception:
                    v = None
                ok = v is not None and v.ok and not isinstance(digest, Raised)
                attempted += n
                failed += 0 if ok else n
                if v is not None:
                    profiles += v.profiles * n
                    contexts += v.contexts * n
        return attempted, failed, profiles, contexts


class ColdLaunches:
    """Cold CLI launches spread evenly over the timed passes, between two
    requests, so that their median samples the whole run, not one moment
    of a machine whose speed drifts."""

    def __init__(self, wl, seed, workdir, seconds, pace):
        self.argv, self.question = wl.cold(seed, workdir)
        self.pace = pace
        self.due = [seconds * (k + 0.5) / COLD_RUNS for k in range(COLD_RUNS)]
        self.times, self.outputs = [], []

    def __call__(self, elapsed=float("inf")):
        while self.due and elapsed >= self.due[0]:
            self.due.pop(0)
            times, outputs = time_children([sys.executable, "-m", "hog.cli"] + self.argv, 1,
                                           self.pace)
            self.times += times
            self.outputs += outputs

    def failed(self):
        ok = {out: check_cli(self.question, *out).ok for out in set(self.outputs)}
        return sum(not ok[out] for out in self.outputs)


def end_to_end(hog, wl, seed, seconds, workdir):
    # One CPU for this process and the ones it launches, so that the pace
    # sampled here is the pace of the CPU every timed piece of work ran on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    with Pace() as pace:
        launches, outputs = time_children([sys.executable, "-c", IMPORT_PROBE], IMPORT_RUNS,
                                          pace)
        imports = [(start, end, float(out[1])) for (start, end, _), out in zip(launches, outputs)]
        run = Run(hog, wl, seed, workdir, pace)
        for _ in range(SETUP_RUNS):
            run.setup()
        cold = ColdLaunches(wl, seed, workdir, seconds, pace)
        began = perf_counter()
        run.passes(seconds, between=cold)
        cold()  # launches not yet due when the last pass ended
        measured = perf_counter() - began
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted, failed, profiles, contexts = run.check()

    def at_pace(timings):
        return [took * pace.scale(start, end) for start, end, took in timings]

    def as_measured(timings):
        return [took for _, _, took in timings]

    # every pass runs the same requests, so per-pass rates use the median pass
    pass_s = [sum(at_pace(p)) for p in run.requests]
    wall_s = statistics.median(pass_s)
    passes = len(pass_s)
    latency_s = at_pace(r for p in run.requests for r in p)
    n = len(latency_s)
    beyond = sum(x > percentile(latency_s, wl.tail_pct) for x in latency_s)
    metrics = {
        "wall_s": wall_s,
        "contexts_per_s": contexts / passes / wall_s,
        "verdict_ms.p50": 1000 * percentile(latency_s, 50),
        "verdict_ms.tail": 1000 * percentile(latency_s, wl.tail_pct),
        "cli_cold_ms.p50": 1000 * statistics.median(at_pace(cold.times)),
        "setup_s": statistics.median(at_pace(imports)) + statistics.median(at_pace(run.setups)),
        "peak_rss_mb": peak_rss_mb,
    }
    attempted += len(cold.times)
    failed += cold.failed()
    measured_latency = as_measured(r for p in run.requests for r in p)
    notes = {
        "wall_s": (f"median of {passes} passes of {len(run.specs)} requests; "
                   f"{statistics.median(sum(as_measured(p)) for p in run.requests):.4g} s "
                   "as measured"),
        "verdict_ms.p50": (f"{n} samples; {1000 * percentile(measured_latency, 50):.4g} ms "
                           "as measured"),
        "verdict_ms.tail": (f"p{wl.tail_pct} of {n} samples, {beyond} beyond it; "
                            f"{1000 * percentile(measured_latency, wl.tail_pct):.4g} ms "
                            "as measured"),
        "cli_cold_ms.p50": (f"{len(cold.times)} launches of python -m hog.cli "
                            f"{cold.argv[0]} ...; "
                            f"{1000 * statistics.median(as_measured(cold.times)):.4g} ms "
                            "as measured"),
        "setup_s": (f"import hog {statistics.median(at_pace(imports)):.4f} s "
                    f"(median of {len(imports)}) + set-up "
                    f"{statistics.median(at_pace(run.setups)):.4f} s "
                    f"(median of {len(run.setups)}); "
                    f"{statistics.median(as_measured(imports)) + statistics.median(as_measured(run.setups)):.4g} s "
                    "as measured"),
    }
    extra = {
        "profiles_per_s": (profiles / passes / wall_s if profiles else None, "1/s"),
        "failed_frac": (failed / attempted, "ratio"),
        "pace.reference_ms": (1000 * statistics.mean(pace.took), "ms"),
        "pace.samples": (len(pace.took), "count"),
        "pace.overhead_frac": (pace.spent / measured, "ratio"),
    }
    return metrics, notes, extra, attempted, failed, None


def per_layer(hog, wl, seed, seconds, workdir):
    run = Run(hog, wl, seed, workdir)
    untraced = run.one_pass()
    tracer = Tracer()
    tracer.install(hog)
    try:
        traced = run.passes(seconds, tracer)
    finally:
        tracer.uninstall()
    attempted, failed, _, _ = run.check()
    bare = [took for _, _, took in time_children([sys.executable, "-c", "pass"], IMPORT_RUNS)[0]]
    full = [took for _, _, took in
            time_children([sys.executable, "-c", "import hog"], IMPORT_RUNS)[0]]
    metrics = tracer.layer_metrics(len(traced))
    metrics.update({
        "import.hog_s": statistics.median(full) - statistics.median(bare),
        "import.bare_python_s": statistics.median(bare),
        "engine.nash_s": wl.reference_s(hog, run.specs),
        "trace.overhead_frac": statistics.mean(traced) / untraced - 1,
    })
    notes = {"trace.overhead_frac": f"{len(traced)} traced passes against 1 untraced",
             "engine.context_reuse": f"base: {tracer.contexts_built // len(traced)} "
                                     "unilateral contexts per pass"}
    return metrics, notes, {}, attempted, failed, tracer


def declared_units(kind):
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


def run_all(args):
    code = 0
    for name in ("solve-majority", "solve-matrix", "law-sweeps", "cli-requests"):
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        code = max(code, subprocess.run(argv).returncode)
    return code


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("solve-majority", "solve-matrix", "law-sweeps",
                             "cli-requests", "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if args.workload == "all":
        return run_all(args)

    hog = import_hog()
    wl = WORKLOADS[args.workload]
    kind = "per_layer" if args.trace else "end_to_end"
    units = declared_units(kind)
    env = environment(args.seed)
    print(f"# {wl.name}, seed {args.seed}, {args.seconds} s, trace {'on' if args.trace else 'off'}")
    print(f"# why: {wl.why}")
    print("# env: " + ", ".join(f"{k} {v}" for k, v in env.items() if k != "note"))
    print(f"# note: {COLD_NOTE}")
    if not args.trace:
        print("# times are stated at the fixed reference pace of bench/pace.py; "
              "the times as measured follow them")

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{wl.name}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        measure = per_layer if args.trace else end_to_end
        metrics, notes, extra, attempted, failed, tracer = measure(
            hog, wl, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if set(metrics) != set(units):
        sys.exit(f"error: metrics {sorted(set(metrics) ^ set(units))} do not match "
                 f"BENCHMARK.json's {kind}")

    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"# {name:40} {value:>14.6g} {units[name]}{note}")
    for name, (value, unit) in extra.items():
        shown = "n/a (no strategy profiles in this workload)" if value is None else f"{value:.6g}"
        print(f"# {name:40} {shown:>14} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"result-{stem}.json", "w", encoding="utf-8") as f:
        json.dump({"workload": wl.name, "why": wl.why, "seconds": args.seconds,
                   "environment": env, "notes": notes,
                   "extra": {k: {"value": v, "unit": u} for k, (v, u) in extra.items()},
                   **result}, f, indent=2)
    if tracer is not None:
        tracer.dump(OUT / f"trace-{stem}.json")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
