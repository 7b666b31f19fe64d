"""Self-test of the benchmark: short passes, rejected wrong answers, tracing.

    python3 perfbench/selftest.py

Runs a short pass of each workload (two rounds of a few small cases) and
checks every answer; then shows that the checks refuse an answer that is
off by one, that the traced pass reports every per-layer metric (absent
ones as 0), and that the benchmark exits non-zero without a package.
It also recomputes the pinned answers of `exact` by brute force with
`checks` alone, which takes about two minutes.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from unittest import mock

HERE = os.path.dirname(os.path.abspath(__file__))
WORK = os.path.join(os.path.dirname(HERE), ".perfbench_work")
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
import checks  # noqa: E402
from checks import CheckFailed  # noqa: E402

SHORT = {
    "verify": {
        "VERIFY_CASES": [("p2k", 2, 10, True), ("p2k", 3, 27, False), ("tail", 3, 17, True), ("overlay", 4, 12, True)],
    },
    "exact": {
        "TURAN_CASES": [("path:4", 6), ("star:3", 6), ("spider:2,2,1", 6)],
        "EXHAUSTIVE_CASES": {("path:3", 5, 2): 2, ("star:3", 5, 3): 10},
    },
    "hill": {
        "HILL_CONSTRUCTED": [("overlay", "path:4", 8, 3), ("p2k", "path:4", 10, 4)],
        "HILL_RANDOM": [("star:3", 7, 3)],
    },
}


def short_workload(name: str, workdir: str, seed: int = 7):
    with mock.patch.multiple(workloads, **SHORT[name]):
        workload, _ = run.set_up(workloads, name, seed, 2, workdir)
    return workload


def off_by_one(output):
    """The same output with its first answer increased by one."""
    if isinstance(output, list):  # CLI stdout lines; the last is the NIM report
        report = json.loads(output[-1])
        report["count"] += 1
        report["nim_edges"].append(-1)  # keeps count == len(nim_edges)
        return output[:-1] + [json.dumps(report)]
    if hasattr(output, "best_count"):
        return dataclasses.replace(output, best_count=output.best_count + 1)
    return dataclasses.replace(output, value=output.value + 1)


class ShortPasses(unittest.TestCase):
    def setUp(self):
        self.workdir = tempfile.mkdtemp(prefix="selftest-", dir=WORK)
        self.addCleanup(shutil.rmtree, self.workdir, True)

    def short_pass(self, name: str):
        workload = short_workload(name, self.workdir)
        latencies, _, results, failures = run.timed_pass(workload.ops, run.Ruler())
        self.assertEqual(failures, [])
        self.assertEqual(len(latencies), len(workload.ops))
        return workload, results

    def test_each_workload_checks_out_and_refuses_an_off_by_one_answer(self):
        for name in SHORT:
            with self.subTest(workload=name):
                workload, results = self.short_pass(name)
                self.assertGreater(workloads.check_all(workload, results), 0)
                for i, (op, output) in enumerate(results):
                    wrong = results[:i] + [(op, off_by_one(output))] + results[i + 1 :]
                    with self.assertRaises(CheckFailed, msg=op.name):
                        workloads.check_all(workload, wrong)

    def test_verify_answer_sum_is_fixed_by_the_formulas(self):
        workload, results = self.short_pass("verify")
        # p2k k=2 n=10 (x2), p2k k=3 n=27, tail n=17 (x2), overlay P4 n=12 (x2); two rounds
        per_round = 2 * 30 + 275 + 2 * (10 + 5 * 12) + 2 * 12
        self.assertEqual(workloads.check_all(workload, results), 2 * per_round)

    def test_relabeled_count_must_match_the_original(self):
        workload, results = self.short_pass("verify")
        op, lines = next((op, out) for op, out in results if op.name.endswith("relabeled"))
        memo = {op.key: -1}
        with self.assertRaises(CheckFailed):
            op.check(lines, memo)


def colorings_up_to_renaming(m: int, k: int):
    """Every k-coloring of m edges whose colors first appear in the order 0, 1, ..."""

    def extend(prefix: list[int], top: int):
        if len(prefix) == m:
            yield prefix
            return
        for c in range(min(top + 2, k)):
            yield from extend(prefix + [c], max(top, c))

    return extend([], -1)


def free_graphs(n: int, edges: int, pat: checks.Pattern):
    """Every graph on n vertices with this many edges and no copy of the pattern."""
    for chosen in itertools.combinations(checks.pairs(n), edges):
        adj = [0] * n
        for u, v in chosen:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        if not checks.contains(adj, n, pat):
            yield adj


def add_vertex(adj: list[int], neighbors) -> list[int]:
    n = len(adj)
    grown = adj + [sum(1 << u for u in neighbors)]
    for u in neighbors:
        grown[u] |= 1 << n
    return grown


def has_free_graph(n: int, edges: int, pat: checks.Pattern, ex_below: int | None) -> bool:
    """Is some graph on n vertices with this many edges free of the pattern?

    Without `ex_below`, every graph is tried.  With ex_below = ex(n-1, H):
    a free graph with e edges has a vertex of degree d <= 2e/n, and deleting
    it leaves a free graph on n-1 vertices with e-d <= ex_below edges; so it
    is one of those with a vertex of degree d added.
    """
    if ex_below is None:
        return next(free_graphs(n, edges, pat), None) is not None
    for d in range(max(0, edges - ex_below), 2 * edges // n + 1):
        for adj in free_graphs(n - 1, edges - d, pat):
            for neighbors in itertools.combinations(range(n - 1), d):
                if not checks.contains(add_vertex(adj, neighbors), n, pat):
                    return True
    return False


class PinnedValues(unittest.TestCase):
    """The pinned answers of `exact`, recomputed by brute force."""

    def test_exhaustive_values(self):
        for (spec, n, k), expected in workloads.EXHAUSTIVE_CASES.items():
            with self.subTest(spec=spec, n=n, k=k):
                pat = checks.Pattern(spec)
                best = max(len(checks.nim_set(n, colors, pat)) for colors in colorings_up_to_renaming(n * (n - 1) // 2, k))
                self.assertEqual(best, expected)

    def test_spider_values(self):
        pat = checks.Pattern("spider:2,2,1")
        for n, expected in sorted(workloads.SPIDER_EX.items()):
            with self.subTest(n=n):
                ex_below = workloads.SPIDER_EX.get(n - 1)
                self.assertTrue(has_free_graph(n, expected, pat, ex_below))
                self.assertFalse(has_free_graph(n, expected + 1, pat, ex_below))


class Tracing(unittest.TestCase):
    def setUp(self):
        self.workdir = tempfile.mkdtemp(prefix="selftest-", dir=WORK)
        self.addCleanup(shutil.rmtree, self.workdir, True)

    def traced(self, name: str):
        workload = short_workload(name, self.workdir)
        tracer = spans.Tracer()
        tracer.install()
        try:
            latencies, _, results, failures = run.timed_pass(workload.ops, run.Ruler())
        finally:
            tracer.uninstall()
        self.assertEqual(failures, [])
        workloads.check_all(workload, results)
        return tracer, tracer.metrics(sum(latencies), sum(latencies))

    def test_every_layer_metric_is_reported_and_counts_where_work_happens(self):
        expected_work = {
            "verify": ["nim.queries", "nim.nim_edges_calls", "constructions.build_s", "cli.self_s", "graphs.coloring_build_s"],
            "exact": ["turan.oracle_queries", "search.exhaustive_queries", "search.exhaustive_leaves"],
            "hill": ["search.hill_evals", "search.hill_evals_per_s", "graphs.coloring_build_s"],
        }
        for name, busy in expected_work.items():
            with self.subTest(workload=name):
                tracer, metrics = self.traced(name)
                self.assertEqual(set(metrics), set(spans.METRICS))
                self.assertEqual(tracer.absent_metrics(), [])
                for metric in busy:
                    self.assertGreater(metrics[metric]["value"], 0, metric)

    def test_uninstall_restores_the_package(self):
        nc = run.fresh_import()
        before = (nc.nim.nim_edges, nc.search._find_through, nc.graphs.EdgeColoring.__dict__["from_json"])
        tracer = spans.Tracer()
        tracer.install()
        tracer.uninstall()
        after = (nc.nim.nim_edges, nc.search._find_through, nc.graphs.EdgeColoring.__dict__["from_json"])
        self.assertEqual(before, after)

    def test_a_renamed_function_is_reported_absent(self):
        nc = run.fresh_import()
        with mock.patch.object(nc.turan, "turan_oracle", None):
            tracer = spans.Tracer()
            tracer.install()
            tracer.uninstall()
        self.assertIn("turan.oracle_s", tracer.absent_metrics())
        self.assertEqual(tracer.metrics(1.0, 1.0)["turan.oracle_s"]["value"], 0)


class Standalone(unittest.TestCase):
    def test_exits_nonzero_without_the_package(self):
        bare = tempfile.mkdtemp(prefix="selftest-bare-", dir=WORK)
        self.addCleanup(shutil.rmtree, bare, True)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "exact", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    os.makedirs(WORK, exist_ok=True)
    outcome = unittest.main(exit=False).result
    try:
        os.rmdir(WORK)
    except OSError:
        pass
    sys.exit(not outcome.wasSuccessful())
