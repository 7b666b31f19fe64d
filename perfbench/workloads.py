"""The three workloads: their fixed op lists, how each op runs, and its checks.

A workload is built from the freshly imported package modules, the seed,
the number of rounds and a scratch directory.  Building it is the set-up:
it generates every input of the run, so the timed pass only calls the
program.  Each round repeats the same cases; the seed decides what varies
between rounds (vertex relabelings on `verify`, case order on `exact`,
random start colorings on `hill`).  Every op returns the program's raw
output, and `check` compares each answer with `checks`, outside the timed
pass.
"""

from __future__ import annotations

import io
import json
import os
import random
from contextlib import redirect_stdout
from dataclasses import dataclass
from typing import Any, Callable

import checks
from checks import Pattern, expect


class OpFailed(RuntimeError):
    """The program reported an error for an operation (non-zero exit code)."""


@dataclass
class Op:
    name: str
    key: tuple  # identifies the case; ops with equal keys must agree
    run: Callable[[], Any]
    check: Callable[[Any, dict], int]  # (raw output, memo) -> answer


def random_perm(n: int, rng: random.Random) -> list[int]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


# -- verify: CLI construct -> verify on large colorings -------------------------

TAIL_SPEC = "dstar:3+path:6"  # two components of 2a = 6 vertices, a = 3
TAIL_A = 3

# (family, parameter, n, relabeled in every round)
VERIFY_CASES = (
    [("p2k", 2, n, True) for n in (10, 16, 22, 28, 34, 40, 46, 52, 58, 64)]
    + [("p2k", 3, n, n in (27, 37, 47)) for n in (27, 28, 32, 33, 37, 38, 42, 43, 47, 48, 52, 53, 57, 58, 62, 63)]
    + [("p2k", 4, n, False) for n in (52, 53, 59, 60)]
    + [("tail", TAIL_A, n, n in (24, 28)) for n in (24, 28, 32, 36, 40)]
    + [("overlay", l, n, True) for l in (4, 6) for n in range(30, 65, 4)]
)


def verify_pattern(family: str, param: int) -> str:
    if family == "p2k":
        return f"path:{2 * param}"
    if family == "tail":
        return TAIL_SPEC
    return f"path:{param}"


class Verify:
    def __init__(self, nc, seed: int, rounds: int, workdir: str):
        self.nc = nc
        self.workdir = workdir
        rng = random.Random(seed)
        self.ops: list[Op] = []
        for r in range(rounds):
            for family, param, n, relabel in VERIFY_CASES:
                self.ops.append(self._construct_verify(family, param, n))
                if relabel:
                    self.ops.append(self._relabeled(family, param, n, random_perm(n, rng), r))

    def _construct_args(self, family: str, param: int, n: int) -> list[str]:
        args = ["construct", "--family", family, "--n", str(n)]
        if family == "p2k":
            return args + ["--k", str(param)]
        if family == "tail":
            return args + ["--a", str(param)]
        return args + ["--pattern", f"path:{param}"]

    def _cli(self, *calls: list[str]) -> list[str]:
        """Run CLI commands in-process; return their stdout lines."""
        out = io.StringIO()
        with redirect_stdout(out):
            for argv in calls:
                rc = self.nc.cli.main(argv)
                if rc != 0:
                    raise OpFailed(f"nimcolor {' '.join(argv)} exited {rc}")
        return out.getvalue().splitlines()

    def _construct_verify(self, family: str, param: int, n: int) -> Op:
        spec = verify_pattern(family, param)
        path = os.path.join(self.workdir, f"{family}-{param}-{n}.json")
        construct = self._construct_args(family, param, n) + ["-o", path]
        verify = ["verify", "--coloring", path, "--pattern", spec]

        def check(lines, memo):
            written = json.loads(lines[0])
            k = 2 * param if family == "p2k" else 2
            expect((written["n"], written["k"]) == (n, k), f"{family} n={n}: construct wrote {written}")
            with open(path, encoding="utf-8") as fh:
                colors = json.load(fh)["colors"]
            return self._check_report(json.loads(lines[1]), family, param, n, colors, list(range(n)), memo)

        return Op(f"{family}:{param} n={n}", (family, param, n), lambda: self._cli(construct, verify), check)

    def _relabeled(self, family: str, param: int, n: int, perm: list[int], r: int) -> Op:
        spec = verify_pattern(family, param)
        coloring = self._library_coloring(family, param, n)
        colors = checks.permute_colors(n, coloring.colors, perm)
        path = os.path.join(self.workdir, f"{family}-{param}-{n}-r{r}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"n": n, "k": coloring.k, "colors": colors}, fh)
        verify = ["verify", "--coloring", path, "--pattern", spec]

        def check(lines, memo):
            return self._check_report(json.loads(lines[0]), family, param, n, colors, perm, memo)

        return Op(f"{family}:{param} n={n} relabeled", (family, param, n), lambda: self._cli(verify), check)

    def _library_coloring(self, family: str, param: int, n: int):
        nc = self.nc
        if family == "p2k":
            return nc.constructions.p2k_multicoloring(n, param)[0]
        if family == "tail":
            return nc.constructions.tail_forest_coloring(n, param)
        h = nc.patterns.make_path(param)
        red = nc.turan.extremal_path_graph(n, param, nc.turan.ex_path(n, param).recipe["a"])
        return nc.constructions.extremal_overlay(n, h, red)

    def _check_report(self, report, family, param, n, colors, perm, memo) -> int:
        label = f"{family}:{param} n={n}"
        count, nim = report["count"], report["nim_edges"]
        expect(report["n"] == n and len(nim) == count, f"{label}: malformed report")
        if family == "p2k":
            expect(count == checks.p2k_count(n, param), f"{label}: count {count} != {checks.p2k_count(n, param)}")
        elif family == "tail":
            x = {perm[v] for v in range(2 * param - 1)}
            meets_x = [e for e, (u, v) in enumerate(checks.pairs(n)) if u in x or v in x]
            expect(count == checks.tail_count(n, param), f"{label}: count {count} != {checks.tail_count(n, param)}")
            expect(nim == meets_x, f"{label}: NIM set is not the edges meeting the (2a-1)-block")
        else:
            red = [e for e, c in enumerate(colors) if c == 0]
            expect(nim == red, f"{label}: NIM set is not the red class")
            expect(count == checks.ex_path(n, param), f"{label}: count {count} != ex(n, P_{param})")
        expect(memo.setdefault((family, param, n), count) == count, f"{label}: relabeled count differs")
        return count

    def warm_up(self) -> None:
        for family, param, n in (("p2k", 2, 10), ("tail", TAIL_A, 17), ("overlay", 4, 12)):
            path = os.path.join(self.workdir, "warm-up.json")
            spec = verify_pattern(family, param)
            self._cli(self._construct_args(family, param, n) + ["-o", path], ["verify", "--coloring", path, "--pattern", spec])
        for spec in ("path:6", "path:8"):
            self.nc.nim.nim_edges(self.nc.graphs.EdgeColoring.monochromatic(10, 2), self.nc.patterns.parse_pattern(spec))


# -- exact: Turan oracle and exhaustive search on small cases ---------------------

# No case takes much over half a second: the speed correction (run.py) reads
# the machine between ops, so a long op would blur it.  That leaves out
# path:3 at n=7 (1.4 s) and K_{1,3} at n=9 (1 s).
TURAN_CASES = (
    [("path:3", 9), ("path:4", 7), ("path:4", 8), ("path:4", 9), ("path:5", 7), ("path:5", 8), ("path:6", 7)]
    + [("star:3", 7), ("star:3", 8), ("star:4", 7), ("spider:2,2,1", 7), ("spider:2,2,1", 8)]
)
# f_k(n, H) of each exhaustive case, pinned: the self-test recomputes every
# one by brute force over all colorings with `checks.nim_set`.
EXHAUSTIVE_CASES = {
    ("path:3", 5, 2): 2, ("path:3", 6, 2): 3, ("path:3", 5, 3): 4,
    ("path:4", 5, 2): 4, ("path:4", 6, 2): 6, ("path:4", 7, 2): 6, ("path:4", 5, 3): 10,
    ("star:3", 5, 2): 10, ("star:3", 6, 2): 6, ("star:3", 7, 2): 7, ("star:3", 5, 3): 10,
}
# ex(n, spider:2,2,1), pinned; no closed form.  The self-test confirms each
# one by a search over graphs with `checks.contains`.
SPIDER_EX = {6: 10, 7: 11, 8: 13}


def ex_value(spec: str, n: int) -> int:
    family, _, arg = spec.partition(":")
    if family == "path":
        return checks.ex_path(n, int(arg))
    if family == "star":
        return checks.ex_star(n, int(arg))
    if spec == "spider:2,2,1":
        return SPIDER_EX[n]
    raise ValueError(spec)


class Exact:
    def __init__(self, nc, seed: int, rounds: int, workdir: str):
        self.nc = nc
        rng = random.Random(seed)
        cases = [self._turan(spec, n) for spec, n in TURAN_CASES]
        cases += [self._exhaustive(spec, n, k, f) for (spec, n, k), f in EXHAUSTIVE_CASES.items()]
        self.ops = []
        for _ in range(rounds):
            rng.shuffle(cases)
            self.ops.extend(cases)

    def _turan(self, spec: str, n: int) -> Op:
        h = self.nc.patterns.parse_pattern(spec)
        pat = Pattern(spec)

        def check(result, memo):
            label = f"ex({n}, {spec})"
            value, adj = result.value, list(result.witness.adj)
            expect(result.n == n and len(adj) == n, f"{label}: wrong witness order")
            expect(checks.edge_count(adj) == value, f"{label}: witness has {checks.edge_count(adj)} edges, value {value}")
            expect(not checks.contains(adj, n, pat), f"{label}: witness contains the pattern")
            expect(value == ex_value(spec, n), f"{label}: {value} != {ex_value(spec, n)}")
            return value

        return Op(f"turan {spec} n={n}", ("turan", spec, n), lambda: self.nc.turan.turan_oracle(n, h), check)

    def _exhaustive(self, spec: str, n: int, k: int, expected: int) -> Op:
        h = self.nc.patterns.parse_pattern(spec)
        pat = Pattern(spec)

        def check(result, memo):
            label = f"f_{k}({n}, {spec})"
            best, w = result.best_count, result.witness
            expect((w.n, w.k, result.exhaustive) == (n, k, True), f"{label}: wrong witness shape or not exhaustive")
            expect(best == expected, f"{label}: {best} != {expected}")
            recount = len(checks.nim_set(n, w.colors, pat))
            expect(recount == best, f"{label}: witness recounts to {recount}, reported {best}")
            return best

        return Op(f"exhaustive {spec} n={n} k={k}", ("exhaustive", spec, n, k), lambda: self.nc.search.exhaustive_f(n, k, h), check)

    def warm_up(self) -> None:
        for spec in sorted({spec for spec, _ in TURAN_CASES}):
            self.nc.turan.turan_oracle(5, self.nc.patterns.parse_pattern(spec))
        for spec in sorted({spec for spec, _, _ in EXHAUSTIVE_CASES}):
            self.nc.search.exhaustive_f(4, 2, self.nc.patterns.parse_pattern(spec))


# -- hill: local search from constructed and random starts ------------------------

# (construction, pattern, n, colors); "p2k" is the 4-coloring for k = 2.
# Climbed for up to 2 steps; the same starts in every round.
HILL_CONSTRUCTED = (
    [("overlay", "path:4", n, 3) for n in (12, 14)]
    + [("overlay", "path:5", n, 2) for n in (12, 14, 16)]
    + [("p2k", "path:4", n, 4) for n in (13, 14)]
)
# (pattern, n, colors); the coloring is drawn from the seed in every round and
# climbed for one step, which is always 1 + C(n,2)(k-1) evaluations.
HILL_RANDOM = (
    ("star:3", 10, 3), ("star:3", 12, 3), ("star:3", 14, 2), ("path:4", 12, 2),
    ("path:4", 10, 3), ("path:3", 12, 3), ("path:4", 14, 3), ("path:3", 14, 2),
)


class Hill:
    def __init__(self, nc, seed: int, rounds: int, workdir: str):
        self.nc = nc
        rng = random.Random(seed)
        constructed = [
            self._climb(self._constructed(c, spec, n, k), spec, 2, ("constructed", c, spec, n, k))
            for c, spec, n, k in HILL_CONSTRUCTED
        ]
        self.ops, self.reruns = [], []
        for r in range(rounds):
            randoms = []
            for spec, n, k in HILL_RANDOM:
                colors = tuple(rng.randrange(k) for _ in range(n * (n - 1) // 2))
                start = nc.graphs.EdgeColoring(n, k, colors)
                randoms.append(self._climb(start, spec, 1, ("random", r, spec, n, k)))
            self.ops += constructed + randoms
            self.reruns.append(randoms[r % len(randoms)])

    def _constructed(self, construction: str, spec: str, n: int, k: int):
        nc = self.nc
        if construction == "p2k":
            return nc.constructions.p2k_multicoloring(n, 2)[0]
        length = int(spec.partition(":")[2])
        red = nc.turan.extremal_path_graph(n, length, nc.turan.ex_path(n, length).recipe["a"])
        return nc.constructions.extremal_overlay(n, nc.patterns.make_path(length), red).with_colors(k)

    def _climb(self, start, spec: str, iterations: int, key: tuple) -> Op:
        h = self.nc.patterns.parse_pattern(spec)
        pat = Pattern(spec)
        n, k = start.n, start.k

        def run():
            return self.nc.search.hill_climb_f(n, k, h, iterations=iterations, seed_coloring=start)

        def check(result, memo):
            label = f"hill {key}"
            best, w = result.best_count, result.witness
            expect((w.n, w.k) == (n, k), f"{label}: witness has the wrong shape")
            if key in memo:  # the same start climbed before: same witness, same count
                expect(memo[key] == (w.colors, best), f"{label}: a rerun returned another witness or count")
                return best
            start_count = len(checks.nim_set(n, start.colors, pat))
            expect(best >= start_count, f"{label}: best {best} below the start's {start_count}")
            recount = len(checks.nim_set(n, w.colors, pat))
            expect(recount == best, f"{label}: witness recounts to {recount}, reported {best}")
            memo[key] = (w.colors, best)
            return best

        return Op(f"hill {spec} n={n} k={k} {key[0]}", key, run, check)

    def warm_up(self) -> None:
        for spec in sorted({spec for spec, _, _ in HILL_RANDOM} | {spec for _, spec, _, _ in HILL_CONSTRUCTED}):
            h = self.nc.patterns.parse_pattern(spec)
            self.nc.search.hill_climb_f(6, 2, h, iterations=1)


WORKLOADS = {"verify": Verify, "exact": Exact, "hill": Hill}


def check_all(workload, results: list) -> int:
    """Check every answer (and the hill reruns); return the answer sum."""
    memo: dict = {}
    total = 0
    for op, result in results:
        total += op.check(result, memo)
    for op in getattr(workload, "reruns", ()):
        op.check(op.run(), memo)
    return total

