"""nimcolor benchmark: one workload per process, every answer checked.

    python3 perfbench/run.py --workload verify|exact|hill --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from `src/`.
A run does `rounds` whole rounds of its workload's fixed op list, where
`rounds` follows from `--seconds` and the workload's nominal round length;
the clock never cuts a run short, so every run with the same arguments
does the same work.  Set-up (fresh import of the package, input generation
and warm-up) is repeated SETUP_REPEATS times and its median reported;
every set-up compiles the package from source.

Timings are corrected for the machine's speed drift: a fixed pure-Python
search (the ruler) is timed before the first op and after every op, and
each op's time is scaled by RULER_REF_S over the mean of the two readings
around it.  The end-to-end timings are therefore seconds at the reference
speed; the plain wall-clock figures go to stderr.  See README.md, "Drift".

With `--trace 1` the op list runs once untraced and once traced, and the
per-layer metrics are printed instead of the end-to-end ones.  The last
line of stdout is one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)
# Every set-up compiles the package from source, whatever the environment:
# no bytecode is written, and none is read from a __pycache__ in src/ (the
# prefix directory is never created).
sys.dont_write_bytecode = True
sys.pycache_prefix = os.path.join(ROOT, ".perfbench_work", "no-pycache")

import checks  # noqa: E402

MODULES = ("cli", "constructions", "graphs", "nim", "patterns", "search", "turan")
SETUP_REPEATS = 7
# wall seconds one round takes on the reference machine (README: "Op lists")
NOMINAL_ROUND_S = {"verify": 5.0, "exact": 1.7, "hill": 1.0}
# median ruler reading on the reference machine (README: "Drift")
RULER_REF_S = 1.3e-3


class Ruler:
    """Times a fixed search written in the benchmark, as a reading of machine speed."""

    def __init__(self):
        self.n = 12
        self.colors = [0 if u // 4 == v // 4 else 1 for u, v in checks.pairs(self.n)]
        self.pattern = checks.Pattern("path:5")

    def read(self) -> float:
        gc.disable()  # the program's heap must not slow the ruler
        try:
            t0 = time.perf_counter()
            checks.nim_set(self.n, self.colors, self.pattern)
            return time.perf_counter() - t0
        finally:
            gc.enable()

    def corrected(self, seconds: list[float], readings: list[float]) -> list[float]:
        """Scale each span by the reference over the mean reading around it."""
        return [s * 2 * RULER_REF_S / (readings[i] + readings[i + 1]) for i, s in enumerate(seconds)]


def rounds_for(workload: str, seconds: int) -> int:
    return max(1, round(seconds / NOMINAL_ROUND_S[workload]))


def fresh_import():
    """Import the package from scratch, so each set-up pays the import again."""
    for name in [m for m in sys.modules if m == "nimcolor" or m.startswith("nimcolor.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    importlib.import_module("nimcolor")
    return SimpleNamespace(**{m: importlib.import_module(f"nimcolor.{m}") for m in MODULES})


def set_up(workloads, name: str, seed: int, rounds: int, workdir: str):
    gc.collect()  # the previous set-up's modules and inputs are not collected inside this one
    started = time.perf_counter()
    nc = fresh_import()
    workload = workloads.WORKLOADS[name](nc, seed, rounds, workdir)
    workload.warm_up()
    return workload, time.perf_counter() - started


def timed_pass(ops, ruler: Ruler):
    """Run every op once.

    Returns (wall-clock latencies, corrected latencies, [(op, output)],
    [(op, exception)]).
    """
    latencies, results, failures = [], [], []
    readings = [ruler.read()]
    for op in ops:
        t0 = time.perf_counter()
        try:
            output = op.run()
        except Exception as exc:  # an op that raises is counted as failed; the run goes on
            failures.append((op, exc))
        else:
            results.append((op, output))
        latencies.append(time.perf_counter() - t0)
        readings.append(ruler.read())
    return latencies, ruler.corrected(latencies, readings), results, failures


def tail_index(n: int) -> int:
    """Index in sorted order of the highest sample with ten samples beyond it."""
    return max(0, n - 11)


def timing_metrics(latencies: list[float], completed: int, setups: list[float]) -> dict:
    ordered = sorted(latencies)
    return {
        "ops_per_s": {"value": completed / sum(latencies), "unit": "1/s"},
        "latency_p50_ms": {"value": statistics.median(ordered) * 1e3, "unit": "ms"},
        "latency_tail_ms": {"value": ordered[tail_index(len(ordered))] * 1e3, "unit": "ms"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(NOMINAL_ROUND_S))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "nimcolor", "__init__.py")):
        print(f"error: no nimcolor package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import spans
    import workloads

    ruler = Ruler()
    rounds = rounds_for(args.workload, args.seconds)
    workdir = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        setups, readings = [], [ruler.read()]
        for _ in range(SETUP_REPEATS):
            workload, seconds = set_up(workloads, args.workload, args.seed, rounds, workdir)
            setups.append(seconds)
            readings.append(ruler.read())
        ops = workload.ops
        wall, corrected, results, failures = timed_pass(ops, ruler)
        attempted, completed = len(ops), len(results)
        if args.trace:
            tracer = spans.Tracer()
            tracer.install()
            try:
                _, traced, traced_results, traced_failures = timed_pass(ops, ruler)
            finally:
                tracer.uninstall()
            attempted += len(ops)
            results += traced_results
            failures += traced_failures
        for op, exc in failures:
            print(f"failed: {op.name}: {exc!r}", file=sys.stderr)
        try:
            answer_sum = workloads.check_all(workload, results)
            correct = True
        except checks.CheckFailed:
            traceback.print_exc()
            answer_sum, correct = 0, False
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass

    raw = timing_metrics(wall, completed, setups)
    print("wall-clock: " + ", ".join(f"{k}={v['value']:.4g}" for k, v in raw.items()), file=sys.stderr)
    if args.trace:
        metrics = tracer.metrics(sum(corrected), sum(traced))
        if tracer.absent_metrics():
            print(f"absent (reported as 0): {', '.join(tracer.absent_metrics())}", file=sys.stderr)
    else:
        metrics = timing_metrics(corrected, completed, ruler.corrected(setups, readings))
        metrics["peak_rss_mb"] = {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"}
        metrics["answer_sum"] = {"value": answer_sum, "unit": "count"}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
