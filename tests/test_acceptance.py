"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with -s or check the -v test report).  Tolerances are
exact equalities or inequalities as stated inline; time budgets are
asserted on the wall clock of the relevant computation.
"""

import functools
import random
import time
from math import comb

from nimcolor.cli import _append_ledger, read_ledger
from nimcolor.constructions import (
    extremal_overlay,
    p2k_multicoloring,
    tail_coloring_for,
    verify_layout,
)
from nimcolor.graphs import (
    EdgeColoring,
    SimpleGraph,
    disjoint_union,
    edge_unindex,
    join,
)
from nimcolor.nim import nim_edges
from nimcolor.patterns import make_path, make_spider, make_star, parse_pattern
from nimcolor.search import exhaustive_f
from nimcolor.turan import (
    ex_path,
    extremal_path_graph,
    path_extremal_t_range,
    turan_oracle,
    turan_value,
)
from oracles import is_isomorphic, lemma_gap, nim_edges_anchored, tail_expected_nim_indices


def criterion(number, name):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number} ({name}): FAIL", flush=True)
                raise
            elapsed = time.perf_counter() - start
            print(f"criterion {number} ({name}): PASS [{elapsed:.1f}s]", flush=True)

        return wrapper

    return deco


@criterion(1, "path formula agrees with the oracle")
def test_path_formula_vs_oracle():
    start = time.perf_counter()
    for length in (4, 5, 6):
        for n in range(length, 10):
            formula = ex_path(n, length).value
            oracle = turan_oracle(n, make_path(length)).value
            assert formula == oracle, (length, n, formula, oracle)
    assert time.perf_counter() - start < 300


@criterion(2, "2k-coloring layout, class shapes and exact NIM counts")
def test_p2k_construction():
    for n in (13, 16):
        start = time.perf_counter()
        coloring, layout = p2k_multicoloring(n, 2)
        report = verify_layout(layout)
        assert report.ok, report.violations
        shape = disjoint_union(
            disjoint_union(SimpleGraph.complete(3), SimpleGraph.complete(3)),
            join(SimpleGraph.complete(1), SimpleGraph.empty(n - 7)),
        )
        for i in range(3):
            assert is_isomorphic(coloring.color_class(i), shape), (n, i)
        count = nim_edges(coloring, make_path(4)).count
        assert count == 3 * ex_path(n, 4).value + 3, (n, count)
        assert count == {13: 39, 16: 48}[n]
        assert time.perf_counter() - start < 60

    start = time.perf_counter()
    coloring, layout = p2k_multicoloring(27, 3)
    assert verify_layout(layout).ok
    count = nim_edges(coloring, make_path(6)).count
    assert count == 5 * ex_path(27, 6).value + 2 * comb(5, 2) == 275
    assert time.perf_counter() - start < 600


@criterion(3, "tail construction: exact NIM set for the forest family")
def test_tail_construction_exact_sets():
    h = parse_pattern("dstar:3+path:6")
    for n in range(20, 25):
        start = time.perf_counter()
        coloring, a = tail_coloring_for(n, h)
        report = nim_edges(coloring, h)
        assert report.count == comb(5, 2) + 5 * (n - 5), (n, report.count)
        assert list(report.nim_edges) == tail_expected_nim_indices(n, a), n
        assert time.perf_counter() - start < 120


@criterion(4, "overlay colorings clear the Turan bound")
def test_overlays_meet_turan_bound():
    start = time.perf_counter()
    for length in (4, 6):
        h = make_path(length)
        for n in range(2, 31):
            for t in path_extremal_t_range(n, length):
                red = extremal_path_graph(n, length, t)
                coloring = extremal_overlay(n, h, red)
                count = nim_edges(coloring, h).count
                assert count >= ex_path(n, length).value, (n, length, t, count)
    assert time.perf_counter() - start < 300


@criterion(5, "exhaustive maxima: pinned small values, ledgered exploratory runs")
def test_exhaustive_search(tmp_path):
    start = time.perf_counter()
    for n in (4, 5):
        first = exhaustive_f(n, 2, make_path(3))
        again = exhaustive_f(n, 2, make_path(3))
        assert first.best_count == again.best_count == 2, n
        assert first.witness == again.witness
        assert first.colorings_examined == again.colorings_examined
    assert time.perf_counter() - start < 10

    ledger = str(tmp_path / "ledger.jsonl")
    for spec in ("path:4", "star:3"):
        h = parse_pattern(spec)
        for n in range(h.vertex_count, 7):
            result = exhaustive_f(n, 2, h)
            _append_ledger(ledger, "search", {"pattern": spec, "n": n, "k": 2}, result.to_dict())
            # lower bound via an overlay on a pattern-free extremal graph
            ex = turan_value(n, h)
            red = ex.witness if ex.witness is not None else extremal_path_graph(n, h.vertex_count, ex.recipe["a"])
            seed_count = nim_edges(extremal_overlay(n, h, red), h).count
            assert result.best_count >= seed_count >= ex.value, (spec, n)
            # witness re-validation
            assert nim_edges(result.witness, h).count == result.best_count

    records = read_ledger(ledger)
    assert [no for no, _ in records] == list(range(1, 7))
    for _, record in records:
        witness = EdgeColoring.from_dict(record["result"]["witness"])
        h = parse_pattern(record["result"]["pattern"])
        assert nim_edges(witness, h).count == record["result"]["best_count"]


@criterion(6, "primary and reference NIM implementations agree")
def test_dual_oracle_agreement():
    rng = random.Random(6)
    patterns = [make_path(3), make_path(4), make_star(3), make_spider([2, 2, 1])]
    mismatches = 0
    for _ in range(1000):
        n = rng.randrange(4, 11)
        k = rng.randrange(2, 5)
        coloring = EdgeColoring.random(n, k, rng)
        for h in patterns:
            a = nim_edges(coloring, h)
            b = nim_edges_anchored(coloring, h)
            if a.nim_edges != b.nim_edges or a.per_color != b.per_color:
                mismatches += 1
    assert mismatches == 0


@criterion(7, "shift inequality strict on the full grid")
def test_shift_inequality_grid():
    start = time.perf_counter()
    violations = 0
    for length in (4, 6):
        for n1 in range(length, 41):
            for n2 in range(length, 41):
                for c in range(0, n1 - length + 1):
                    lhs, rhs = lemma_gap(n1, n2, c, length)
                    if lhs >= rhs:
                        violations += 1
    assert violations == 0
    assert time.perf_counter() - start < 60


@criterion(8, "NIM for the 3-vertex path is exactly the isolated-edge set")
def test_p3_isolated_edge_characterization():
    rng = random.Random(8)
    h = make_path(3)
    mismatches = 0
    for _ in range(1000):
        n = rng.randrange(3, 11)
        k = rng.randrange(1, 5)
        coloring = EdgeColoring.random(n, k, rng)
        classes = [coloring.color_class(i) for i in range(k)]
        isolated = set()
        for e, i in enumerate(coloring.colors):
            u, v = edge_unindex(e, n)
            if classes[i].degree(u) == 1 and classes[i].degree(v) == 1:
                isolated.add(e)
        if set(nim_edges(coloring, h).nim_edges) != isolated:
            mismatches += 1
    assert mismatches == 0


@criterion(9, "recipe graphs stay within the squared-deficit bound")
def test_recipe_graphs_near_extremality():
    for k in (2, 3):
        length = 2 * k
        for n in range(0, 61):
            value = ex_path(n, length).value
            for t in path_extremal_t_range(n, length):
                g = extremal_path_graph(n, length, t)
                assert value - g.edge_count < (k - 1) ** 2, (k, n, t)
