import re
import sys
import time
import tracemalloc
from functools import partial
from itertools import combinations, product
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    contains_brute,
    degree_sequence,
    is_isomorphic,
    lemma_gap,
    max_pattern_free_edges_brute,
    turan_oracle_edge_bound,
    turan_oracle_plain,
)
import nimcolor.turan
from nimcolor.errors import ResourceLimitError, TuranUnavailableError
from nimcolor.graphs import SimpleGraph, all_pairs, components, join
from nimcolor.nim import contains
from nimcolor.patterns import (
    custom_pattern,
    forest_union,
    make_double_star,
    make_path,
    make_spider,
    make_star,
    parse_pattern,
)
from nimcolor.turan import (
    ex_balanced_forest,
    ex_path,
    extremal_path_graph,
    near_extremal_path_graph,
    path_extremal_t_range,
    turan_oracle,
    turan_value,
)


class TestExPath:
    @pytest.mark.parametrize(
        "n,length,value",
        [
            (13, 4, 12),  # 13 = 4*3 + 1
            (3, 4, 3),  # a triangle has no 4-vertex path
            (16, 4, 15),  # 16 = 5*3 + 1
            (7, 4, 6),
            (27, 6, 51),  # 27 = 5*5 + 2
            (5, 3, 2),  # matchings
            (0, 4, 0),
            (6, 2, 0),  # forbidding a single edge
        ],
    )
    def test_values(self, n, length, value):
        assert ex_path(n, length).value == value

    def test_recipe_records_split(self):
        r = ex_path(13, 4)
        assert r.recipe["a"] == 4 and r.recipe["b"] == 1
        assert r.recipe["t_range"] == [0, 1, 2, 3, 4]

    def test_unique_case_t_range(self):
        # odd length: only the clique decomposition is extremal
        assert list(path_extremal_t_range(9, 5)) == [2]
        # even length but remainder outside the split window
        assert list(path_extremal_t_range(6, 4)) == [2]

    def test_rejects_short_paths(self):
        for length in (0, 1):
            for call in (ex_path, path_extremal_t_range, lambda n, length: extremal_path_graph(n, length, 0)):
                with pytest.raises(ValueError, match="path length must be >= 2"):
                    call(5, length)

    def test_rejects_negative_n(self):
        # one check in path_extremal_t_range, which the other two call first
        for call in (ex_path, path_extremal_t_range, lambda n, length: extremal_path_graph(n, length, 0)):
            with pytest.raises(ValueError, match="n must be >= 0"):
                call(-3, 4)

    def test_monotone_in_n(self):
        for length in (3, 4, 5, 6, 8):
            values = [ex_path(n, length).value for n in range(0, 50)]
            assert all(a <= b for a, b in zip(values, values[1:]))


class TestExtremalPathGraph:
    def test_13_4_t2_structure(self):
        from nimcolor.graphs import disjoint_union

        g = extremal_path_graph(13, 4, 2)
        assert g.edge_count == 12
        star7 = join(SimpleGraph.complete(1), SimpleGraph.empty(6))
        target = disjoint_union(disjoint_union(SimpleGraph.complete(3), SimpleGraph.complete(3)), star7)
        assert is_isomorphic(g, target)

    def test_13_4_t4_is_clique_partition(self):
        g = extremal_path_graph(13, 4, 4)
        assert g.edge_count == 12
        assert sorted(len(c) for c in components(g)) == [1, 3, 3, 3, 3]

    def test_7_4_t0_is_star(self):
        g = extremal_path_graph(7, 4, 0)
        assert g.edge_count == 6
        assert degree_sequence(g) == (6, 1, 1, 1, 1, 1, 1)
        assert not contains(g, make_path(4))

    def test_invalid_t_rejected_with_context(self):
        with pytest.raises(ValueError, match="allowed t"):
            extremal_path_graph(9, 5, 0)

    def test_joined_case_is_the_near_extremal_graph(self):
        # t < a: t cliques K_{l-1}, then K_{l/2-1} joined to independent vertices
        from nimcolor.graphs import disjoint_union

        cases = 0
        for length in range(4, 13, 2):
            half = length // 2
            for n in range(70):
                for t in path_extremal_t_range(n, length)[:-1]:
                    expected = SimpleGraph.empty(0)
                    for _ in range(t):
                        expected = disjoint_union(expected, SimpleGraph.complete(length - 1))
                    rest = n - t * (length - 1) - (half - 1)
                    expected = disjoint_union(expected, join(SimpleGraph.complete(half - 1), SimpleGraph.empty(rest)))
                    assert extremal_path_graph(n, length, t) == expected == near_extremal_path_graph(n, half, t)
                    cases += 1
        assert cases == 864

    def test_vertex_numbering_matches_cliques_laid_out_one_by_one(self):
        # the overlay colors and the climber's constructed starts read this
        # numbering: t cliques K_{l-1} from vertex 0 up, then the b-clique
        # or, for t < a (even l only), K_{l/2-1} joined to the vertices after it
        def reference(n, length, t):
            start, hub = t * (length - 1), length // 2 - 1
            edges = [e for i in range(0, start, length - 1) for e in combinations(range(i, i + length - 1), 2)]
            if t == n // (length - 1):
                edges += combinations(range(start, n), 2)
            else:
                edges += combinations(range(start, start + hub), 2)
                edges += product(range(start, start + hub), range(start + hub, n))
            return SimpleGraph.from_edges(n, edges)

        cases = 0
        for length in range(2, 10):
            for n in range(41):
                for t in path_extremal_t_range(n, length):
                    assert extremal_path_graph(n, length, t) == reference(n, length, t), (n, length, t)
                    if t < n // (length - 1):
                        assert near_extremal_path_graph(n, length // 2, t) == reference(n, length, t)
                    cases += 1
        assert cases == 1403

    def test_p2_recipe_graphs_are_edgeless(self):
        for n in range(6):
            for t in path_extremal_t_range(n, 2):
                assert extremal_path_graph(n, 2, t) == SimpleGraph.empty(n)

    def test_path_freeness_is_checked_past_n_64(self, monkeypatch):
        calls = []

        def counting_contains(g, pattern):
            calls.append((g.n, pattern.n))
            return contains(g, pattern)

        monkeypatch.setattr(nimcolor.turan, "contains", counting_contains)
        extremal_path_graph(65, 4, path_extremal_t_range(65, 4)[-1])
        assert calls == [(65, 4)]

    @pytest.mark.parametrize("length", [4, 6])
    def test_all_recipe_graphs_are_path_free_and_extremal(self, length):
        for n in range(length, 25):
            for t in path_extremal_t_range(n, length):
                g = extremal_path_graph(n, length, t)
                assert g.edge_count == ex_path(n, length).value
                assert not contains(g, make_path(length))


class TestNearExtremalFamily:
    def test_edge_count_does_not_depend_on_t(self):
        for k in range(1, 5):
            for n in range(k - 1, 41):
                for t in range((n - k + 1) // (2 * k - 1) + 1):
                    assert near_extremal_path_graph(n, k, t).edge_count == (k - 1) * (n - k + 1) + comb(k - 1, 2)
        assert [near_extremal_path_graph(20, 3, t).edge_count for t in range(4)] == [37] * 4

    def test_deficit_is_choose_d_plus_1_2(self):
        # d is the distance of n mod 2k-1 from the two extremal residues k-1
        # and k, so the deficit is 0 there and at most C(k, 2) anywhere
        for k in range(1, 7):
            q = 2 * k - 1
            for n in range(k - 1, 81):
                d = min(abs(n % q - k + 1), abs(n % q - k))
                gap = ex_path(n, 2 * k).value - near_extremal_path_graph(n, k, 0).edge_count
                assert gap == comb(d + 1, 2), (k, n)

    def test_family_members_avoid_the_path(self):
        for k, n, t in ((2, 12, 1), (3, 30, 2)):
            assert not contains(near_extremal_path_graph(n, k, t), make_path(2 * k))

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            near_extremal_path_graph(5, 2, 2)


class TestBalancedForestFormula:
    def test_two_disjoint_edges(self):
        h = forest_union(make_path(2), make_path(2))
        r = ex_balanced_forest(10, h)
        assert r.value == 9
        assert r.method == "bushaw_kettle"
        assert r.below_threshold  # the certified range starts absurdly high

    def test_double_star_plus_path(self):
        h = parse_pattern("dstar:3+path:6")
        for n in (20, 21, 24, 100):
            assert ex_balanced_forest(n, h).value == 5 * (n - 5)

    def test_two_p4s(self):
        h = forest_union(make_path(4), make_path(4))
        assert ex_balanced_forest(20, h).value == comb(3, 2) + 3 * 17 == 54

    def test_rejects_connected(self):
        with pytest.raises(ValueError, match="two components"):
            ex_balanced_forest(20, make_path(4))

    def test_rejects_odd_order(self):
        h = forest_union(make_path(3), make_path(2))
        with pytest.raises(ValueError, match="even order"):
            ex_balanced_forest(20, h)

    def test_rejects_negative_n(self):
        with pytest.raises(ValueError, match="n must be >= 0, got -3"):
            ex_balanced_forest(-3, parse_pattern("dstar:3+path:6"))

    def test_rejects_unbalanced(self):
        h = forest_union(make_star(3), make_path(4))
        with pytest.raises(ValueError, match="balanced"):
            ex_balanced_forest(20, h)


class TestOracle:
    def test_p3_free_is_a_matching(self):
        assert turan_oracle(5, make_path(3)).value == 2

    def test_agrees_with_formula_spot(self):
        assert turan_oracle(7, make_path(4)).value == ex_path(7, 4).value == 6

    def test_claw_free_on_six_vertices(self):
        r = turan_oracle(6, make_star(3))
        assert r.value == 6
        # claw-free means maximum degree two
        assert max(r.witness.degree(v) for v in range(6)) <= 2

    def test_witness_attached_and_pattern_free(self):
        r = turan_oracle(6, make_path(4))
        assert r.witness.edge_count == r.value == 6
        assert not contains(r.witness, make_path(4))

    def test_matches_exhaustive_subset_enumeration(self):
        # full 2^m sweep as the independent reference at tiny sizes
        for n, h in ((4, make_path(3)), (5, make_path(4)), (5, make_star(3)), (5, make_spider([2, 1]))):
            assert turan_oracle(n, h).value == max_pattern_free_edges_brute(n, h.graph)

    def test_spider_and_double_star_small(self):
        assert turan_oracle(6, make_spider([2, 2])).value == ex_path(6, 5).value
        assert turan_oracle(7, make_double_star(2)).value == ex_path(7, 4).value

    def test_claw_free_on_ten_vertices(self):
        # once row 0 is done, deg(0) <= 2 caps every branch at 10 edges by the
        # degree-sum bound, so the first 10-edge graph ends the search
        assert turan_oracle(10, make_star(3)).value == 10

    def test_an_edgeless_pattern_is_refused(self):
        with pytest.raises(ValueError, match="^pattern needs at least one edge$"):
            turan_oracle(5, SimpleGraph.empty(2))

    def test_size_limits_lift_by_their_keyword(self):
        # n has no limit: the node budget bounds the work
        assert turan_oracle(11, make_star(3)).value == 11
        assert turan_oracle(8, make_path(13), max_pattern=13).value == 28

    @pytest.mark.parametrize("n, budget", [(6, -5), (6, 0), (0, 0)])
    def test_budget_under_one_is_refused(self, n, budget):
        # even K_0 takes a node, the pass that finds no edge left
        with pytest.raises(ValueError, match=f"^budget must be >= 1, got {budget}$"):
            turan_oracle(n, make_star(3), budget=budget)

    def test_depth_past_the_recursion_limit_is_refused_where_it_is_met(self):
        # the search recurses once per included edge, and a pattern with more
        # vertices than n includes all of K_46's 1,035, past the default limit of 1000
        limit = sys.getrecursionlimit()
        started = time.perf_counter()
        with pytest.raises(ResourceLimitError) as err:
            turan_oracle(46, make_path(47), max_pattern=47)
        assert time.perf_counter() - started < 1
        assert err.value.limit == f"oracle passed the recursion limit {limit}"
        assert err.value.hint == "sys.setrecursionlimit raises it"
        assert isinstance(err.value.__cause__, RecursionError)
        sys.setrecursionlimit(limit + 200)
        try:
            assert turan_oracle(46, make_path(47), max_pattern=47).value == 1035
        finally:
            sys.setrecursionlimit(limit)

    @pytest.mark.parametrize("n", [45, 50, 60])
    @pytest.mark.parametrize("length", [2, 3, 4])
    def test_path_values_past_n_44_match_the_formula(self, n, length):
        # an H-free graph recurses once per edge it holds, far below C(n, 2);
        # the stars past n = 44 are rows of TestDispatcher.test_oracle_values_at_larger_n
        assert turan_oracle(n, make_path(length)).value == ex_path(n, length).value

    @pytest.mark.parametrize("spec", ["star:3", "path:3", "path:3+path:3", "path:13"])
    def test_n_of_twice_the_recursion_limit_is_refused_before_any_work(self, spec):
        # every pattern of two or more edges has ex(n, H) >= n // 2, so the
        # search would nest that many calls; at n = 100,000 the parent built
        # C(n, 2) entries per table before its first node
        limit = sys.getrecursionlimit()
        h = parse_pattern(spec)
        for n in (2 * limit, 100_000):
            tracemalloc.start()
            started = time.perf_counter()
            try:
                with pytest.raises(ResourceLimitError) as err:
                    turan_oracle(n, h, max_pattern=13)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert time.perf_counter() - started < 0.1 and peak < 100_000
            assert (err.value.limit, err.value.hint) == (
                f"oracle passed the recursion limit {limit}", "sys.setrecursionlimit raises it",
            )
            assert err.value.__cause__ is None

    @pytest.mark.parametrize("n", [1000, 100_000])
    def test_one_edge_pattern_answers_zero_at_any_n(self, n):
        # below n = 2R the search answers with no include; past it, at once
        r = turan_oracle(n, make_path(2))
        assert (r.value, r.witness.n, r.witness.edge_count) == (0, n, 0)

    def test_memory_grows_with_the_nodes_not_the_edges_of_k_n(self):
        # K_1000 has 499,500 edges; the stores fill only at the edges the
        # search reaches, and no `all_pairs` table is built
        all_pairs.cache_clear()
        tracemalloc.start()
        try:
            assert turan_oracle(1000, make_path(2)).value == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000
        assert all_pairs.cache_info().currsize == 0


# Every (n, pattern) cell with n <= 7 the suite and the benchmark use, plus
# two odd cycles and a disconnected forest.  The triangle's rows hold on
# their own: a prefix row 0 under a single deg(u - 1) cap read ex(5, K_3)
# as 5, where Mantel gives 6.
CYCLES = {
    f"cycle:{c}": custom_pattern(SimpleGraph.from_edges(c, [(i, (i + 1) % c) for i in range(c)]), f"cycle:{c}")
    for c in (3, 5)
}


def pattern_of(spec):
    return CYCLES[spec] if spec in CYCLES else parse_pattern(spec)


ORACLE_CELLS = [
    *[(n, "path:3") for n in (4, 5)],
    *[(n, "path:4") for n in (4, 5, 6, 7)],
    *[(n, "path:5") for n in (5, 6, 7)],
    *[(n, "path:6") for n in (6, 7)],
    *[(n, "star:3") for n in (5, 6, 7)],
    (7, "star:4"),
    (5, "spider:2,1"),
    (6, "spider:2,2"),
    (7, "spider:2,2,1"),
    (7, "dstar:2"),
    *[(n, "cycle:3") for n in (5, 6, 7)],
    *[(n, "cycle:5") for n in (5, 6, 7)],
    *[(n, "path:2+path:3") for n in (5, 6, 7)],
]


@pytest.mark.parametrize("n, spec", ORACLE_CELLS, ids=[f"n{n}-{s}" for n, s in ORACLE_CELLS])
def test_oracle_matches_the_edge_bound_search(n, spec):
    h = pattern_of(spec)
    r = turan_oracle(n, h)
    old_value, old_witness = turan_oracle_edge_bound(n, h.graph)
    assert r.value == old_value
    assert r.witness.edge_count == r.value
    assert not contains_brute(r.witness, h.graph)
    assert old_witness.edge_count == old_value
    if spec == "cycle:3":
        assert r.value == n * n // 4  # Mantel


# Every Turan cell of the bench's `exact` workload (perfbench/workloads.py
# TURAN_CASES), every oracle cell the suite uses and TestOracle's calls at
# n = 11 and at pattern order 13, as (n, spec, keywords).  spider:2,2,2 at
# n = 9, the slowest, takes about 0.3 s on a 2-core box with the plain
# recursion and the call count, 6,356 calls.
BENCH_TURAN_CELLS = [
    (9, "path:3"), (7, "path:4"), (8, "path:4"), (9, "path:4"), (7, "path:5"), (8, "path:5"), (7, "path:6"),
    (7, "star:3"), (8, "star:3"), (7, "star:4"), (7, "spider:2,2,1"), (8, "spider:2,2,1"),
]
SUITE_TURAN_CELLS = [
    *[(n, "path:4") for n in range(4, 10)],
    *[(n, "path:5") for n in range(5, 10)],
    *[(n, "path:6") for n in range(6, 10)],
    (10, "star:3"),
]
PLAIN_CELLS = [(n, s, {}) for n, s in dict.fromkeys(ORACLE_CELLS + BENCH_TURAN_CELLS + SUITE_TURAN_CELLS)]
PLAIN_CELLS += [(11, "star:3", {}), (8, "path:13", {"max_pattern": 13}), (9, "spider:2,2,2", {})]


def oracle_calls(n, h, **kwargs):
    """`turan_oracle(n, h)` and the number of calls of its recursion: the
    root plus one per include branch, since exclusions loop in one call."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        code = frame.f_code
        if event == "call" and code.co_name == "rec" and code.co_filename == nimcolor.turan.__file__:
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        r = turan_oracle(n, h, **kwargs)
    finally:
        sys.setprofile(previous)
    return r, calls


@pytest.mark.parametrize("n, spec, kwargs", PLAIN_CELLS, ids=[f"n{n}-{s}" for n, s, _ in PLAIN_CELLS])
def test_oracle_matches_the_plain_recursion(n, spec, kwargs):
    # the stored copies only skip queries whose answer they already give
    h = pattern_of(spec)
    r, calls = oracle_calls(n, h, **kwargs)
    assert (r.value, r.witness.adj, calls) == turan_oracle_plain(n, h.graph)


def test_oracle_queries_pinned(monkeypatch):
    # 11,869 before the oracle stored the copies it found, 4,223 (3,683 of
    # them finding none) before it stored the graphs where it found none,
    # 615 (75 finding none) while it kept degrees sorted in vertex order,
    # 90 (21 finding none) while row 1 took every subset of vertices, and
    # 54 (20 finding none) while only rows 0 and 1 were prefixes
    calls = misses = 0
    find = nimcolor.turan._find_through

    def counted(*args):
        nonlocal calls, misses
        calls += 1
        copy = find(*args)
        misses += copy is None
        return copy

    monkeypatch.setattr(nimcolor.turan, "_find_through", counted)
    assert turan_oracle(8, parse_pattern("spider:2,2,1")).value == 13
    assert calls == 49
    assert misses == 20


@pytest.mark.parametrize("n, spec, calls", [(8, "spider:2,2,1", 56), (9, "path:4", 22)])
def test_oracle_recursion_pinned(n, spec, calls):
    # 16,088 and 6,658 when each exclusion was a call of its own; 3,684 and
    # 1,104 while degrees were sorted in vertex order, and then 1,117 on
    # path:4 if the row cap were tested only where the row starts; 263 on
    # the spider while row 1 took every subset of vertices; 58 and 36 while
    # only rows 0 and 1 were prefixes
    assert oracle_calls(n, parse_pattern(spec))[1] == calls


# Nodes of the oracle, one per pass of its loop: every bench `exact` cell,
# then the larger cells of TestDispatcher
ORACLE_NODES = {
    (9, "path:3"): 17, (7, "path:4"): 53, (8, "path:4"): 74, (9, "path:4"): 103, (7, "path:5"): 92,
    (8, "path:5"): 154, (7, "path:6"): 167, (7, "star:3"): 23, (8, "star:3"): 32, (7, "star:4"): 41,
    (7, "spider:2,2,1"): 161, (8, "spider:2,2,1"): 313,
    (12, "spider:2,2,1"): 2645, (13, "spider:2,2,2"): 75404, (12, "path:3+path:3"): 2363,
    (11, "dbroom:2,3,2"): 4724, (30, "star:3"): 88,
}


@pytest.mark.parametrize("cell", list(ORACLE_NODES), ids=[f"n{n}-{s}" for n, s in ORACLE_NODES])
def test_the_budget_counts_the_oracles_nodes(cell):
    n, spec = cell
    h, nodes = parse_pattern(spec), ORACLE_NODES[cell]
    r, unbounded = turan_oracle(n, h, budget=nodes), turan_oracle(n, h)
    assert (r.value, r.witness.adj) == (unbounded.value, unbounded.witness.adj)
    with pytest.raises(ResourceLimitError) as raised:
        turan_oracle(n, h, budget=nodes - 1)
    limit = f"oracle passed its budget of {nodes - 1} nodes"
    assert (raised.value.limit, raised.value.hint) == (limit, "pass a larger budget= to allow it")


# (n, spec) cells whose stores reach a small cap; cap 0 is the plain recursion
CAP_CELLS = [(7, "spider:2,2,1"), (8, "spider:2,2,1"), (8, "path:5"), (7, "cycle:5")]


@pytest.mark.parametrize("n, spec", CAP_CELLS, ids=[f"n{n}-{s}" for n, s in CAP_CELLS])
def test_dropping_stored_masks_at_the_cap_keeps_the_answer(n, spec, monkeypatch):
    h = pattern_of(spec)
    r, calls = oracle_calls(n, h)
    expected = (r.value, r.witness.adj, calls)
    for cap in (0, 1, 3):
        monkeypatch.setattr(nimcolor.turan, "_KNOWN_CAP", cap)
        r, calls = oracle_calls(n, h)
        assert (r.value, r.witness.adj, calls) == expected, cap


@st.composite
def small_patterns(draw):
    """A graph on 2..5 vertices with at least one edge, connected or not."""
    order = draw(st.integers(2, 5))
    edges = draw(st.lists(st.sampled_from(all_pairs(order)), min_size=1, unique=True))
    return SimpleGraph.from_edges(order, edges)


@settings(max_examples=100, deadline=None)
@given(small_patterns(), st.integers(0, 7))
def test_oracle_matches_the_plain_recursion_on_random_patterns(g, n):
    r, calls = oracle_calls(n, custom_pattern(g))
    assert (r.value, r.witness.adj, calls) == turan_oracle_plain(n, g)


@settings(max_examples=400, deadline=None)
@given(small_patterns(), st.integers(0, 7))
def test_oracle_matches_the_edge_bound_search_on_random_patterns(g, n):
    # the edge-bound search keeps degrees sorted in vertex order, so this
    # holds whatever vertex rule the oracle and its plain recursion share;
    # a prefix row 0 under a single deg(u - 1) cap failed it on each of 16
    # seeds at 400 draws, and on 6 of 9 at 100
    assert turan_oracle(n, custom_pattern(g)).value == turan_oracle_edge_bound(n, g)[0]


class TestLemmaGap:
    @pytest.mark.parametrize(
        "n1,n2,c,length,lhs,rhs",
        [
            (10, 10, 3, 4, 18, 22),
            (6, 6, 0, 4, 12, 15),
            (4, 4, 1, 4, 6, 12),
        ],
    )
    def test_reference_values(self, n1, n2, c, length, lhs, rhs):
        assert lemma_gap(n1, n2, c, length) == (lhs, rhs)

    def test_strict_on_sample(self):
        for length in (4, 6):
            for n1 in range(length, 20):
                for c in range(0, n1 - length + 1):
                    lhs, rhs = lemma_gap(n1, 15, c, length)
                    assert lhs < rhs

    def test_preconditions(self):
        with pytest.raises(ValueError):
            lemma_gap(3, 5, 4, 4)
        with pytest.raises(ValueError):
            lemma_gap(5, 5, 0, 1)


class TestDispatcher:
    def test_paths_use_formula(self):
        assert turan_value(40, make_path(4)).method == "faudree_schelp"

    def test_balanced_forests_use_formula(self):
        h = parse_pattern("dstar:3+path:6")
        assert turan_value(50, h).method == "bushaw_kettle"

    def test_small_everything_else_uses_oracle(self):
        assert turan_value(6, make_star(3)).method == "oracle"

    @pytest.mark.parametrize(
        "n, spec, value",
        [(5, "dstar:3+path:6", 10), (3, "path:2+path:2", 3), (7, "path:4+path:4", 21), (11, "dstar:3+path:6", 55)],
    )
    def test_a_pattern_larger_than_n_leaves_k_n_free(self, n, spec, value):
        # the balanced-forest formula gave 0, 2, 15 and 30, flagged below_threshold
        h = parse_pattern(spec)
        r = turan_value(n, h)
        assert (r.value, r.method, r.below_threshold) == (value, "complete", False)
        assert turan_oracle(n, h).value == value

    @pytest.mark.parametrize(
        "n, spec, value",
        [(12, "spider:2,2,1", 21), (13, "spider:2,2,2", 30), (12, "path:3+path:3", 16), (11, "dbroom:2,3,2", 25),
         (12, "star:3", 12), (30, "star:3", 30), (45, "star:3", 45), (50, "star:3", 50), (60, "star:3", 60),
         (45, "star:4", 67), (50, "star:4", 75), (60, "star:4", 90)],
    )
    def test_oracle_values_at_larger_n(self, n, spec, value):
        h = parse_pattern(spec)
        r = turan_value(n, h)
        assert (r.value, r.method) == (value, "oracle")
        edges = set(r.witness.edges())
        assert r.witness.n == n and len(edges) == value and all(0 <= u < v < n for u, v in edges)
        if h.family == "star":  # ex(n, K_{1,s}) = floor((s - 1)n/2) for n > s
            assert value == (h.vertex_count - 2) * n // 2
            # a graph holds K_{1,s} iff a vertex has degree s or more
            assert max(row.bit_count() for row in r.witness.adj) < h.vertex_count - 1
        # about 9 s and 1.5 s by brute force, and seconds to hours past n = 30,
        # where the star's degree check above stands in
        if n <= 30 and (n, spec) not in ((13, "spider:2,2,2"), (11, "dbroom:2,3,2")):
            assert not contains_brute(r.witness, h.graph)

    def test_unavailable(self, monkeypatch):
        with pytest.raises(TuranUnavailableError) as err:
            turan_value(6, make_star(3), allow_oracle=False)
        assert str(err.value) == "no Turan value available for star:3 at n=6"
        # the oracle's limit is named, and its error chained
        with pytest.raises(TuranUnavailableError) as err:
            turan_value(13, make_star(12))
        assert str(err.value) == (
            "no Turan value available for star:12 at n=13: oracle limited to pattern order <= 12, got 13"
        )
        assert isinstance(err.value.__cause__, ResourceLimitError)
        # the default budget stops a search after seconds, so a small one stands in for it
        monkeypatch.setattr(nimcolor.turan, "turan_oracle", partial(turan_oracle, budget=100))
        with pytest.raises(TuranUnavailableError) as err:
            turan_value(12, parse_pattern("spider:2,2,1"))
        assert str(err.value) == "no Turan value available for spider:2,2,1 at n=12: oracle passed its budget of 100 nodes"
        assert err.value.__cause__.limit == "oracle passed its budget of 100 nodes"
