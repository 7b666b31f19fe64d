import random
import re
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nimcolor.constructions import extremal_overlay, p2k_multicoloring, tail_coloring_for
from nimcolor.errors import ResourceLimitError
from nimcolor.graphs import EdgeColoring, SimpleGraph, _bits, all_pairs, disjoint_union, edge_index
from nimcolor.nim import _find_through, _query_plans, _twin_members, nim_edges
from nimcolor.patterns import custom_pattern, make_path, make_star, parse_pattern
from nimcolor.search import (
    _Blocking,
    _canonical_search,
    _nim_degree_cap,
    _NimState,
    _orbit_edges,
    _row_caps,
    _star_size,
    _StarState,
    exhaustive_f,
    hill_climb_f,
)
from nimcolor.turan import ex_path, extremal_path_graph, turan_value
from oracles import (
    canonical_search_plain,
    class_rows_per_edge,
    colored_twin_orbits,
    contains_brute,
    covered_edges_brute,
    exhaustive_f_first_edge_pin,
    hill_climb_recount,
    keeps_color_rules,
    nim_brute,
    prefix_ok,
    relabel_colors,
    vertex_cap,
)

P3 = make_path(3)
P4 = make_path(4)


class TestExhaustive:
    def test_k4_two_colors_p3(self):
        r = exhaustive_f(4, 2, P3)
        assert r.best_count == 2
        assert r.exhaustive and r.method == "exhaustive"
        assert nim_edges(r.witness, P3).count == 2

    def test_k5_two_colors_p3(self):
        r = exhaustive_f(5, 2, P3)
        assert r.best_count == 2

    def test_k3_two_colors_p3_enumeration_answer(self):
        # 2^3 colorings: the best pattern is one isolated edge in its color
        r = exhaustive_f(3, 2, P3)
        assert r.best_count == 1

    def test_budget_error_suggests_hill_climb(self):
        # (8, 2, path:4) takes 580 nodes, so a budget of 100 stops it
        with pytest.raises(ResourceLimitError) as raised:
            exhaustive_f(8, 2, P4, budget=100)
        assert raised.value.limit == "exhaustive search passed its budget of 100 nodes"
        assert raised.value.hint == "pass a larger budget= to allow it, or try hill_climb_f"
        assert str(raised.value) == f"{raised.value.limit}; {raised.value.hint}"

    @pytest.mark.parametrize("n, budget", [(4, -5), (4, 0), (1, 0)])
    def test_budget_under_one_is_refused(self, n, budget):
        # K_1 has no edges, so a search of it enters no node and could not reach budget 0
        with pytest.raises(ValueError, match=f"^budget must be >= 1, got {budget}$"):
            exhaustive_f(n, 2, P3, budget=budget)

    def test_deterministic_reruns(self):
        a = exhaustive_f(5, 2, P4)
        b = exhaustive_f(5, 2, P4)
        assert a.best_count == b.best_count
        assert a.witness == b.witness
        assert a.colorings_examined == b.colorings_examined

    def test_vertex_relabeling_does_not_change_value(self):
        # relabeling the pattern's vertices leaves the maximum alone
        spider_a = parse_pattern("spider:1,1")  # P_3 grown differently
        assert exhaustive_f(4, 2, spider_a).best_count == exhaustive_f(4, 2, P3).best_count

    def test_beats_every_construction_seed(self):
        red = extremal_path_graph(5, 4, 1)
        seed = extremal_overlay(5, P4, red)
        assert exhaustive_f(5, 2, P4).best_count >= nim_edges(seed, P4).count

    def test_single_color(self):
        r = exhaustive_f(4, 1, P3)
        assert r.best_count == 0
        assert r.colorings_examined == 1

    def test_single_color_at_large_n(self):
        # K_46 has 1,035 edges, deeper than the default recursion limit
        r = exhaustive_f(46, 1, P3)
        assert r.best_count == 0
        assert r.colorings_examined == 1

    def test_depth_past_the_recursion_limit_is_refused_up_front(self):
        # the search recurses once per edge: K_46 has 1,035, past the default limit of 1000
        with pytest.raises(ResourceLimitError) as err:
            exhaustive_f(46, 2, make_path(2))
        assert re.fullmatch(r"exhaustive search limited to n <= \d+ by the recursion limit \d+, got 46", err.value.limit)
        assert err.value.hint == "sys.setrecursionlimit raises it"

    def test_raw_graph_pattern(self):
        by_pattern = exhaustive_f(4, 2, P3)
        by_graph = exhaustive_f(4, 2, P3.graph)
        assert by_graph.pattern == "custom:3v2e"
        assert (by_graph.best_count, by_graph.witness, by_graph.colorings_examined) == (
            by_pattern.best_count, by_pattern.witness, by_pattern.colorings_examined
        )

    def test_a_pin_that_breaks_the_vertex_order_has_no_leaf(self):
        # (0,1) and (1,2), (1,3), (1,4) in class 0 but (0,2), (0,3), (0,4) not:
        # vertex 1 would outrank vertex 0 in class-0 degree, so no leaf is canonical
        cut = (0, 1, 1, 1, 0, 0, 0, 1, 1, 1)
        for h in (P3, P4):
            assert _canonical_search(5, 2, h, [(c,) for c in cut]) == (-1, (0,) * 10, 0)

    def test_matches_plain_enumeration_on_k4(self):
        # reference maximum over all 2^6 colorings straight from the definition
        for h in (P3, P4, make_star(3)):
            best = max(
                len(nim_brute(EdgeColoring(4, 2, colors), h.graph))
                for colors in product(range(2), repeat=6)
            )
            assert exhaustive_f(4, 2, h).best_count == best


# Every (n, k, pattern) cell with n <= 7 and k <= 3 the suite and the
# benchmark use, plus an odd cycle and a disconnected forest.
C5 = custom_pattern(SimpleGraph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)]), "cycle:5")
EXHAUSTIVE_CELLS = [
    *[(n, k, "path:3") for n, k in ((3, 2), (4, 1), (4, 2), (4, 3), (5, 2), (5, 3), (6, 2))],
    *[(n, k, "path:4") for n, k in ((4, 2), (5, 2), (5, 3), (6, 2), (7, 2))],
    *[(n, k, "star:3") for n, k in ((4, 2), (5, 2), (5, 3), (6, 2), (7, 2))],
    (4, 2, "spider:1,1"),
    *[(n, k, "cycle:5") for n, k in ((5, 2), (5, 3), (6, 2))],
    *[(n, k, "path:2+path:3") for n, k in ((5, 3), (6, 2))],
]


def full_choices(n: int, k: int) -> list:
    """The choices `exhaustive_f` hands the search: edge (0, 1) pinned to color 0."""
    m = n * (n - 1) // 2
    return [(0,)] + [range(k)] * (m - 1) if m else []


@pytest.mark.parametrize("n, k, spec", EXHAUSTIVE_CELLS, ids=[f"n{n}-k{k}-{s}" for n, k, s in EXHAUSTIVE_CELLS])
def test_exhaustive_matches_the_first_edge_pin_search(n, k, spec):
    h = C5 if spec == "cycle:5" else parse_pattern(spec)
    r = exhaustive_f(n, k, h)
    old_best, old_witness = exhaustive_f_first_edge_pin(n, k, h)
    assert r.best_count == old_best
    assert r.exhaustive
    assert len(nim_brute(r.witness, h.graph)) == nim_edges(r.witness, h).count == r.best_count
    assert nim_edges(old_witness, h).count == old_best
    # any sound bound keeps the first maximal leaf in search order, so the
    # recursion before forward checking returns the same witness
    assert (r.best_count, r.witness.colors) == canonical_search_plain(n, k, h, full_choices(n, k))[:2]


# Cells past the sizes above, with f and the witness colors that the
# search and the plain recursion both return on them.
OFF_BENCH = {
    (8, 2, "path:4"): (7, "0000000111111111111111111111"),
    (8, 2, "star:4"): (12, "0000111000111110011010100000"),
    (8, 2, "spider:2,1,1"): (12, "0000111111000110001000000111"),
    (7, 3, "path:4"): (12, "000000111222211211112"),
    (7, 3, "path:5"): (21, "000112001120221221000"),
}
OFF_BENCH_IDS = [f"n{n}-k{k}-{s}" for n, k, s in OFF_BENCH]


@pytest.mark.parametrize("cell", list(OFF_BENCH), ids=OFF_BENCH_IDS)
def test_search_keeps_the_plain_recursions_witness_off_the_bench(cell):
    n, k, spec = cell
    best, colors = OFF_BENCH[cell]
    h, choices = parse_pattern(spec), full_choices(n, k)
    pinned = (best, tuple(map(int, colors)))
    assert _canonical_search(n, k, h, choices)[:2] == pinned
    assert canonical_search_plain(n, k, h, choices)[:2] == pinned


MEMO_CELLS = [(5, 3, "path:4"), (5, 3, "star:3"), (6, 4, "path:4"), (6, 3, "spider:2,1,1")]


@pytest.mark.parametrize("cell", MEMO_CELLS, ids=[f"n{n}-k{k}-{s}" for n, k, s in MEMO_CELLS])
def test_emptying_the_memo_at_its_cap_keeps_the_answer(cell, monkeypatch):
    n, k, spec = cell
    h = parse_pattern(spec)
    expected = _canonical_search(n, k, h, full_choices(n, k))
    for cap in (1, 3):
        monkeypatch.setattr("nimcolor.search._MEMO_CAP", cap)
        assert _canonical_search(n, k, h, full_choices(n, k)) == expected


def test_unblocked_star_steps_leave_the_memo_alone(monkeypatch):
    # 116 when every star step took a memo entry: the memo then took 174
    # entries, not 114, reached its cap and forgot copies.  The search
    # fills only 114 entries here, far under the default cap, so a low cap
    # is set.  While row 1 took every subset of vertices, these read 319,
    # 325 and 256, and the search made 271 calls; while only rows 0 and 1
    # were prefixes, 151, 207 and 145, and 146 calls, with the witness
    # 000000000120120201000, 6 NIM edges and 7 leaves as well.
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return _find_through(*args)

    monkeypatch.setattr("nimcolor.search._find_through", counted)
    monkeypatch.setattr("nimcolor.search._MEMO_CAP", 128)
    best, colors, leaves = _canonical_search(7, 3, P3, full_choices(7, 3))
    assert (best, "".join(map(str, colors)), leaves) == (6, "000000000120201120000", 7)
    assert len(nim_brute(EdgeColoring(7, 3, colors), P3.graph)) == best
    assert calls == 114


# The bench's exhaustive star cells (path:3 is K_{1,2}): nodes below the
# root and anchored queries, with the NIM degree caps and without them.
# While only rows 0 and 1 were prefixes: (5, 3, path:3) without the caps
# (106, 47); (5, 2, star:3) (54, 13) and (58, 15); (6, 2, star:3) without
# (239, 122); (7, 2, star:3) (96, 57) and (849, 493); (5, 3, star:3)
# (62, 13) and (72, 16).
BENCH_STAR_CELLS = {
    (5, 2, "path:3"): ((16, 12), (32, 19)),
    (6, 2, "path:3"): ((37, 29), (73, 49)),
    (5, 3, "path:3"): ((51, 24), (105, 46)),
    (5, 2, "star:3"): ((53, 12), (57, 14)),
    (6, 2, "star:3"): ((64, 32), (214, 106)),
    (7, 2, "star:3"): ((92, 53), (561, 313)),
    (5, 3, "star:3"): ((61, 12), (71, 15)),
}


@pytest.mark.parametrize("cell", list(BENCH_STAR_CELLS), ids=[f"n{n}-k{k}-{s}" for n, k, s in BENCH_STAR_CELLS])
def test_degree_caps_only_cut_nodes_on_the_bench_star_cells(cell, monkeypatch):
    counts = {"nodes": 0, "queries": 0}
    step = _Blocking.step

    def counted_step(self, *args):
        counts["nodes"] += 1
        return step(self, *args)

    def counted_query(*args):
        counts["queries"] += 1
        return _find_through(*args)

    monkeypatch.setattr(_Blocking, "step", counted_step)
    monkeypatch.setattr("nimcolor.search._find_through", counted_query)
    n, k, spec = cell
    _canonical_search(n, k, parse_pattern(spec), full_choices(n, k))
    pinned, without_caps = BENCH_STAR_CELLS[cell]
    assert (counts["nodes"], counts["queries"]) == pinned
    assert pinned[0] <= without_caps[0] and pinned[1] <= without_caps[1]


@pytest.mark.parametrize("cell", list(BENCH_STAR_CELLS), ids=[f"n{n}-k{k}-{s}" for n, k, s in BENCH_STAR_CELLS])
def test_the_budget_counts_the_nodes_below_the_root(cell):
    # the budget's boundary is the node count pinned above: one node per color tried on an edge
    n, k, spec = cell
    h, nodes = parse_pattern(spec), BENCH_STAR_CELLS[cell][0][0]
    r, unbounded = exhaustive_f(n, k, h, budget=nodes), exhaustive_f(n, k, h)
    assert (r.best_count, r.witness, r.colorings_examined) == (
        unbounded.best_count, unbounded.witness, unbounded.colorings_examined
    )
    with pytest.raises(ResourceLimitError) as raised:
        exhaustive_f(n, k, h, budget=nodes - 1)
    assert raised.value.limit == f"exhaustive search passed its budget of {nodes - 1} nodes"


# Cells past the plain recursion's reach, each searched in about a second
# or less (the stars in under 0.1 s, by the NIM degree caps): f, the
# witness colors and the leaves scored.  The paths, spiders and double
# stars are ROADMAP item 4's frontier, where f = ex at k = 2; at k = 3 the
# stars and path:4 meet 2·ex, and (8, 3, spider:2,1,1) colors all of K_8
# NIM.  The leaves catch a vertex rule that keeps every maximum and witness
# but cuts other colorings: with u - 1's block judged by adjacency to
# 0..u-3 only, (8, 3, spider:2,1,1) scores 499 leaves.
FRONTIER = {
    (9, 2, "star:4"): (13, "000000110000111001011111001100000000", 14),
    (10, 2, "star:4"): (15, "000000111000001110000111111000110001000000000", 16),
    (8, 3, "path:3"): (8, "0000012000021012002100000000", 9),
    (9, 2, "path:5"): (12, "000000000000111111000110001000000111", 14),
    (10, 2, "path:5"): (13, "000000001000011101110000110000100000000110100", 14),
    (10, 2, "spider:2,1,1"): (13, "000000001000011101110000110000100000000110100", 14),
    (9, 2, "spider:2,2,1"): (16, "000001111111000111000110001000000111", 111),
    (9, 2, "dstar:3"): (16, "000001111111000111000110001000000111", 22),
    (8, 3, "path:4"): (14, "0000012000012000120012121210", 91),
    (11, 2, "path:5"): (15, "0000000011000011100111000001100000100000000001100100001", 16),
    (12, 2, "path:5"): (18, "000000001110000111000111000000110000001000000000000110001000000111", 19),
    (12, 2, "path:4"): (12, "000000000110000001100000110000110000001000000000000100000000100001", 13),
    (12, 2, "spider:2,1,1"): (18, "000000001110000111000111000000110000001000000000000110001000000111", 19),
    (10, 2, "spider:2,2,1"): (20, "000001111111100001110000110000100000000111111", 209),
    (10, 2, "dstar:3"): (20, "000001111111100001110000110000100000000111111", 30),
    (11, 2, "path:4"): (10, "0000000000111111111111111111111111111111111111111111111", 12),
    (11, 2, "spider:2,1,1"): (15, "0000000011000011100111000001100000100000000001100100001", 16),
    (8, 3, "spider:2,1,1"): (28, "0001122001122022112211000000", 515),
    (9, 3, "star:3"): (18, "000011220001122220011102012010200000", 19),
    (10, 3, "star:3"): (20, "000001122000011220020211212001102102000000000", 21),
}


@pytest.mark.parametrize("cell", list(FRONTIER), ids=[f"n{n}-k{k}-{s}" for n, k, s in FRONTIER])
def test_frontier_cells_and_their_witnesses(cell):
    n, k, spec = cell
    h = parse_pattern(spec)
    r = exhaustive_f(n, k, h)
    best, colors, leaves = FRONTIER[cell]
    assert (r.best_count, "".join(map(str, r.witness.colors)), r.colorings_examined) == (best, colors, leaves)
    assert len(nim_brute(r.witness, h.graph)) == best


@pytest.mark.parametrize("s, n", [(s, n) for s in (3, 4) for n in range(2 * s, 11)])
def test_two_colored_stars_meet_the_closed_form(s, n):
    # f(n, K_{1,s}) = ex(n, K_{1,s}) = floor((s - 1)n / 2) once n >= 2s: an
    # extremal graph in red gives it, and a vertex with n - 1 > 2(s - 1)
    # edges has degree >= s in one class, so at most s - 1 NIM edges
    r = exhaustive_f(n, 2, make_star(s))
    assert r.best_count == (s - 1) * n // 2


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("spec", ["path:2", "path:3", "star:4"])
def test_a_star_on_no_vertex_scores_one_empty_leaf(spec, k):
    # the star search reads NIM degree caps in base n, which K_0 has none of
    r = exhaustive_f(0, k, parse_pattern(spec))
    assert (r.best_count, r.colorings_examined, r.witness.colors) == (0, 1, ())


def test_p4_on_eight_vertices():
    r = exhaustive_f(8, 2, P4)
    assert r.best_count == 7
    assert len(nim_brute(r.witness, P4.graph)) == 7


def test_star_size_is_read_from_the_graph():
    assert [_star_size(parse_pattern(s).graph) for s in ("path:2", "path:3", "spider:1,1", "star:4")] == [1, 2, 2, 4]
    assert [_star_size(parse_pattern(s).graph) for s in ("path:4", "path:2+path:2", "star:3+path:2")] == [None] * 3


def _with_edge(rows, x, y):
    rows = list(rows)
    rows[x] |= 1 << y
    rows[y] |= 1 << x
    return rows


MASK_PATTERNS = [
    *map(parse_pattern, ["path:2", "path:3", "path:4", "path:5", "star:3", "spider:2,2,1", "path:2+path:3"]),
    C5,
    custom_pattern(SimpleGraph.from_edges(4, [(0, 1)]), "edge+2K1"),  # one edge, so never a star
]


@st.composite
def search_nodes(draw):
    """(n, k, nodes): two nodes of one search, each (colors, depth) with its
    first `depth` edges colored.  The second swaps colors 1 and 2 on some
    edges, so with k = 3 its class-0 graphs are the first node's."""
    n = draw(st.integers(2, 6))
    k = draw(st.sampled_from([2, 3]))
    m = n * (n - 1) // 2
    colors = draw(st.lists(st.integers(0, k - 1), min_size=m, max_size=m))
    swaps = draw(st.lists(st.booleans(), min_size=m, max_size=m))
    other = [3 - c if k == 3 and c and swap else c for c, swap in zip(colors, swaps)]
    depth = draw(st.integers(0, m))
    return n, k, [(colors, depth), (other, depth)]


@settings(max_examples=150, deadline=None)
@given(search_nodes(), st.sampled_from(MASK_PATTERNS))
# class 0 gains (0, 3) after (0, 1): path 3-0-1-2 now blocks (1, 2), an edge that misses (0, 3)
@example((4, 2, [((0, 1, 0, 0, 0, 0), 3)] * 2), P4)
def test_carried_blocked_masks_match_a_recount(search, h):
    # each class's mask carried through `step` as the search carries it; the
    # nodes share one `_Blocking`, so with k = 3 the second walk reads the memo
    n, k, nodes = search
    m = n * (n - 1) // 2
    pairs = all_pairs(n)
    blocking = _Blocking(n, k, h.graph)
    for colors, depth in nodes:
        adj = [[0] * n for _ in range(k)]
        blocked = [blocking.empty] * k
        for idx in range(depth):
            u, v = pairs[idx]
            c = colors[idx]
            adj[c] = _with_edge(adj[c], u, v)
            was_blocked = bool((blocked[c] >> idx) & 1)
            copy, blocked[c] = blocking.step(adj[c], idx, blocked[c])
            assert bool(copy) == was_blocked
            if was_blocked:
                # the copy through a blocked edge as it is colored
                edges = [pairs[e] for e in _bits(copy)]
                assert (copy >> idx) & 1 and len(edges) == h.edge_count
                assert all(adj[c][x] >> y & 1 for x, y in edges)
                assert contains_brute(SimpleGraph.from_edges(n, edges), h.graph)
        for c in range(k):
            for f in range(depth, m):
                rows = _with_edge(adj[c], *pairs[f])
                through = f in covered_edges_brute(SimpleGraph(n, tuple(rows)), h.graph)
                assert (blocked[c] >> f) & 1 == through


@settings(max_examples=100, deadline=None)
@given(st.data(), st.sampled_from(["star:1", "star:2", "star:3", "star:4", "path:3"]))
def test_star_degree_rule_matches_the_queries(data, spec):
    # a random class graph grown in canonical order, as the search grows one
    h = parse_pattern(spec)
    n = data.draw(st.integers(2, 7), label="n")
    m = n * (n - 1) // 2
    edges = data.draw(st.lists(st.booleans(), min_size=m, max_size=m), label="edges")
    pairs = all_pairs(n)
    blocking = _Blocking(n, 2, h.graph)
    assert blocking.star == h.vertex_count - 1
    rows, mask = [0] * n, blocking.empty
    for idx, (u, v) in enumerate(pairs):
        if edges[idx]:
            rows = _with_edge(rows, u, v)
            was_blocked = bool((mask >> idx) & 1)
            copy, mask = blocking.step(rows, idx, mask)
            assert bool(copy) == was_blocked
    for f, (x, y) in enumerate(pairs):
        if not edges[f]:
            closes = _find_through(_with_edge(rows, x, y), *_query_plans(h.graph, n), x, y) is not None
            assert (mask >> f) & 1 == closes


@st.composite
def colored_prefixes(draw):
    """(n, k, colors): the first edges of E(K_n), n <= 6, colored in
    canonical order, leaving at most 6 uncolored with k = 2 and 4 with k = 3."""
    n = draw(st.integers(2, 6), label="n")
    k = draw(st.integers(1, 3), label="k")
    m = n * (n - 1) // 2
    depth = draw(st.integers(max(0, m - (m, 6, 4)[k - 1]), m), label="depth")
    colors = draw(st.lists(st.integers(0, k - 1), min_size=depth, max_size=depth), label="colors")
    return n, k, tuple(colors)


@settings(max_examples=100, deadline=None)
@given(colored_prefixes(), st.integers(1, 4))
# each of the three cases of `_nim_degree_cap` is tight on one example:
# in the Ramsey range, every uncolored edge fits in a live class
@example((3, 2, (1,)), 4)
# vertex 0 has a dead class 0, and the other vertices fill their live classes
@example((5, 2, (0, 0, 0, 0, 0, 0, 1)), 2)
# with nothing colored yet, one of the two classes must reach s at every vertex
@example((4, 2, ()), 2)
def test_star_degree_caps_bound_every_completion(prefix, s):
    n, k, colors = prefix
    m = n * (n - 1) // 2
    degrees = [[0] * k for _ in range(n)]
    for (u, v), c in zip(all_pairs(n), colors):
        degrees[u][c] += 1
        degrees[v][c] += 1
    bound = sum(_nim_degree_cap(d, n - 1 - sum(d), s) for d in degrees) // 2
    h = make_star(s).graph
    best = max(
        len(nim_brute(EdgeColoring(n, k, colors + rest), h)) for rest in product(range(k), repeat=m - len(colors))
    )
    assert best <= bound


class TestHillClimb:
    def test_never_beats_exhaustive(self):
        exact = exhaustive_f(5, 2, P4).best_count
        heur = hill_climb_f(5, 2, P4, seed=1, iterations=10, restarts=4)
        assert heur.best_count <= exact
        assert not heur.exhaustive

    def test_deterministic_for_fixed_seed(self):
        a = hill_climb_f(6, 2, P4, seed=7, iterations=5, restarts=3)
        b = hill_climb_f(6, 2, P4, seed=7, iterations=5, restarts=3)
        assert a.best_count == b.best_count
        assert a.witness == b.witness
        assert a.colorings_examined == b.colorings_examined

    def test_one_seeded_start_draws_nothing_from_the_seed(self):
        start = extremal_overlay(8, P4, extremal_path_graph(8, 4, 2))
        a, b = (hill_climb_f(8, 2, P4, seed=s, iterations=3, seed_coloring=start).to_dict() for s in (0, 99))
        assert {**a, "elapsed": 0} == {**b, "elapsed": 0}

    def test_overlay_seed_guarantees_turan_bound(self):
        red = extremal_path_graph(7, 4, 2)
        seed = extremal_overlay(7, P4, red)
        r = hill_climb_f(7, 2, P4, iterations=2, restarts=2, seed_coloring=seed)
        assert r.best_count >= 6

    def test_p2k_seed(self):
        seed, _ = p2k_multicoloring(13, 2)
        r = hill_climb_f(13, 4, P4, iterations=1, restarts=1, seed_coloring=seed)
        assert r.best_count >= 39

    def test_tail_seed(self):
        h = parse_pattern("dstar:3+path:6")
        seed, _ = tail_coloring_for(20, h)
        r = hill_climb_f(20, 2, h, iterations=0, restarts=1, seed_coloring=seed)
        assert r.best_count >= 85

    def test_raw_graph_pattern(self):
        by_pattern = hill_climb_f(5, 2, P3, seed=3, restarts=2)
        by_graph = hill_climb_f(5, 2, P3.graph, seed=3, restarts=2)
        assert by_graph.pattern == "custom:3v2e"
        assert (by_graph.best_count, by_graph.witness, by_graph.colorings_examined) == (
            by_pattern.best_count, by_pattern.witness, by_pattern.colorings_examined
        )

    def test_needs_a_color(self):
        with pytest.raises(ValueError, match="k must be >= 1"):
            hill_climb_f(5, 0, P4)

    def test_seed_shape_checked(self):
        with pytest.raises(ValueError):
            hill_climb_f(6, 2, P4, seed_coloring=EdgeColoring.monochromatic(6, k=3))

    def test_negative_iterations_are_refused(self):
        with pytest.raises(ValueError, match=r"^iterations must be >= 0, got -1$"):
            hill_climb_f(5, 2, make_path(3), iterations=-1)

    def test_zero_restarts_are_refused(self):
        with pytest.raises(ValueError, match=r"^restarts must be >= 1, got 0$"):
            hill_climb_f(5, 2, make_path(3), restarts=0)


# Trees, forests and an odd cycle.  C_5 is the one pattern with a cycle;
# its pinned example below stays as a regression case for `gain`, since it
# caught a requery rule that skipped NIM edges a copy through e could cover.
PROPERTY_PATTERNS = [
    *map(parse_pattern, ["path:3", "path:4", "star:3", "spider:2,2,1", "path:3+path:3", "star:3+path:3"]),
    C5,
]


@st.composite
def colorings(draw):
    n = draw(st.integers(min_value=3, max_value=8))
    k = draw(st.sampled_from([2, 3]))
    colors = draw(st.lists(st.integers(0, k - 1), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))
    return EdgeColoring(n, k, tuple(colors))


def greedy_placement(rows) -> list[int]:
    """The vertex order every graph has under the vertex rules: the unplaced
    vertex of largest (adjacency to the placed vertices in order, degree)
    comes next, the lowest label first among ties."""
    placed, rest = [], list(range(len(rows)))
    while rest:
        w = max(rest, key=lambda w: ([rows[p] >> w & 1 for p in placed], rows[w].bit_count()))
        placed.append(w)
        rest.remove(w)
    return placed


def canonical_relabeling(coloring: EdgeColoring) -> EdgeColoring:
    """The relabeling the `exhaustive_f` docstring promises, built from its rules:
    a class of largest top degree becomes class 0, the vertices are placed
    in class 0's `greedy_placement` order, and colors 1..k-1 are renamed by
    first use."""
    n, k = coloring.n, coloring.k
    tops = [max(row.bit_count() for row in rows) for rows in coloring.class_adjacency()]
    first = tops.index(max(tops))
    swap = list(range(k))
    swap[0], swap[first] = first, 0
    swapped = relabel_colors(coloring, swap)
    perm = [0] * n  # old vertex -> new label
    for new, old in enumerate(greedy_placement(swapped.color_class(0).adj)):
        perm[old] = new
    permuted = swapped.permuted(perm)
    # colors 1..k-1 in first-use order, the unused ones after them
    order = list(dict.fromkeys(c for c in permuted.colors + tuple(range(1, k)) if c))
    rename = [0] * k  # old color -> new color
    for new, old in enumerate(order, 1):
        rename[old] = new
    return relabel_colors(permuted, rename)


# Class 0 is two disjoint cherries: vertex 0 is one center, vertex 1 one of
# its leaves, and the other center, vertex 3, is no neighbour of vertex 0,
# so it is in neither vertex 1's block nor vertex 2's and its cap is deg(0).
# It outranks vertex 1 in class-0 degree yet comes after it, so a cap of
# deg(1) or deg(2) on vertex 3 would cut this canonical coloring.  Class 1 is the 6-cycle 0-3-1-2-5-4 and class 2
# the path 0-5-1-4-2-3, so every class tops out at degree 2 and the cherries
# keep color 0; with two colors their complement, of top degree 4, took it.
TWO_CHERRIES = EdgeColoring(6, 3, tuple(
    0 if e in {(0, 1), (0, 2), (3, 4), (3, 5)} else 2 if e in {(0, 5), (1, 4), (1, 5), (2, 3), (2, 4)} else 1
    for e in all_pairs(6)
))
# Class 0 is a perfect matching, class 1 empty and class 2 the rest, of
# degree 4: classes 0 and 2 trade colors, and the matching's color becomes 1.
COCKTAIL_PARTY = EdgeColoring(6, 3, tuple(0 if e in {(0, 1), (2, 3), (4, 5)} else 2 for e in all_pairs(6)))
# Vertex 0 has class-0 degree 3 and neighbours 1, 2, 3, of degrees 3, 2, 2;
# the non-neighbours 4 and 5 have 3 and are in none of the blocks of 1, 2
# and 3, so their cap is deg(0).  They outrank 2 and 3 yet come after them,
# and a cap of deg(3) on vertex 4 would cut this canonical coloring.
FAR_HUBS = EdgeColoring(
    6, 2, tuple(0 if e in {(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (2, 4), (3, 5), (4, 5)} else 1 for e in all_pairs(6))
)
# Class 1 is (1, 5), (2, 4) and (3, 4), class 0 the rest: vertex 1's class-0
# neighbours 2, 3, 4 have degrees 4, 4, 3, and vertex 5, a neighbour of
# vertex 0 but not of vertex 1, has 4.  Vertex 5 is in vertex 1's block but
# in none of the later ones, so its cap is deg(1).  It outranks vertex 4 yet
# comes after it, so a cap of deg(4) on vertex 5, as if 2..5 were one block
# sorted by degree, would cut this canonical coloring.
LATE_NEIGHBOUR = EdgeColoring(6, 2, tuple(1 if e in {(1, 5), (2, 4), (3, 4)} else 0 for e in all_pairs(6)))


def test_the_two_cherries_are_already_canonical():
    # so the search meets vertex 3 after vertex 1 as the example is written
    assert canonical_relabeling(TWO_CHERRIES).colors == TWO_CHERRIES.colors


@settings(max_examples=150, deadline=None)
@given(colorings(), st.sampled_from(PROPERTY_PATTERNS))
@example(TWO_CHERRIES, P3)
@example(COCKTAIL_PARTY, P3)
@example(FAR_HUBS, P3)
@example(LATE_NEIGHBOUR, P3)
def test_every_coloring_has_a_relabeling_the_search_keeps(coloring, h):
    # the real search, pinned to one coloring, scores it, or finds no leaf
    # when symmetry breaking cuts it
    canonical = canonical_relabeling(coloring)
    best, colors, leaves = _canonical_search(coloring.n, coloring.k, h, [(c,) for c in canonical.colors])
    assert leaves == 1
    assert (best, colors) == (nim_edges(coloring, h).count, canonical.colors)


@settings(max_examples=100, deadline=None)
@given(st.data(), st.sampled_from(PROPERTY_PATTERNS))
def test_every_leaf_keeps_the_color_rules_and_the_maximum(data, h):
    # every coloring the search scores keeps both color rules, and cutting
    # the others loses no maximum of the search with edge (0, 1) pinned alone
    k = data.draw(st.integers(2, 4), label="k")
    n = data.draw(st.integers(2, 6 if k < 4 else 5), label="n")
    leaves = []

    def recorded(coloring, pattern):
        leaves.append(coloring.colors)
        return nim_edges(coloring, pattern)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("nimcolor.search.nim_edges", recorded)
        r = exhaustive_f(n, k, h)
    assert len(leaves) == r.colorings_examined
    assert all(keeps_color_rules(n, k, colors) for colors in leaves)
    assert r.best_count == exhaustive_f_first_edge_pin(n, k, h)[0]


@pytest.mark.parametrize("k, colors", [
    (3, (0, 0, 0, 2, 1, 1)),  # color 2 is used before color 1
    (4, (0, 1, 1, 2, 3, 0)),  # vertex 0: class-1 degree 2 once row 0 ends, class-0 degree 1
    (2, (0, 0, 1, 0, 1, 1)),  # vertex 3 reaches class-1 degree 3 on the last edge, vertex 0 has 2 in class 0
])
def test_a_pin_that_breaks_a_color_rule_has_no_leaf(k, colors):
    # each pin keeps the vertex rules and breaks one color rule at one vertex
    assert not keeps_color_rules(4, k, colors)
    assert _canonical_search(4, k, P3, [(c,) for c in colors]) == (-1, (0,) * 6, 0)


@pytest.mark.parametrize("n, k, gap, prefix", [
    # class 0 is the path 2-1-0-3 with (0, 2) in class 1, so vertex 0's
    # class-0 neighbours are 1 and 3, not 1 and 2; swapping 2 and 3 makes
    # them a prefix
    (4, 2, (0, 1, 0, 0, 1, 1), (0, 0, 1, 1, 0, 1)),
    # class 0 is the path 3-0-1-2-4, so vertex 2 (degree 2) comes before
    # vertex 0's neighbour 3 (degree 1), as sorting 2..n-1 by degree alone
    # would have it; swapping 2 and 3 makes the neighbours a prefix
    (5, 3, (0, 1, 0, 1, 0, 1, 2, 2, 0, 2), (0, 0, 1, 1, 1, 0, 2, 2, 2, 0)),
], ids=["n4", "n5"])
def test_a_pin_whose_row_0_is_no_class_0_prefix_has_no_leaf(n, k, gap, prefix):
    # both pins keep the color rules, and in both vertex 0 has the largest
    # class-0 degree
    assert keeps_color_rules(n, k, gap) and keeps_color_rules(n, k, prefix)
    assert _canonical_search(n, k, P3, [(c,) for c in gap]) == (-1, (0,) * len(gap), 0)
    count = nim_edges(EdgeColoring(n, k, prefix), P3).count
    assert _canonical_search(n, k, P3, [(c,) for c in prefix]) == (count, prefix, 1)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_row_caps_match_the_oracles_cap_of_each_vertex(data):
    # on any graph, the state carried row by row from row 0's: the starts
    # mask allows (u, v) exactly when the oracle's prefix does, and while
    # rows 0..u-1 are prefixes inside their blocks, as on every graph a
    # search reaches, each w >= u has the oracle's cap.  A graph in its
    # greedy placement order keeps every row a prefix.
    n = data.draw(st.integers(2, 9), label="n")
    mask = data.draw(st.integers(0, (1 << n * (n - 1) // 2) - 1), label="edges")
    g = SimpleGraph.from_edges(n, [e for i, e in enumerate(all_pairs(n)) if mask >> i & 1])
    if data.draw(st.booleans(), label="placed"):
        order = greedy_placement(g.adj)
        g = g.permuted([order.index(w) for w in range(n)])
    rows = g.adj
    caps, starts, prefixes = [n] * n, 0b10, True
    for u in range(n):
        if u:
            caps, starts = _row_caps(rows, u, caps, starts)
        later = range(u + 1, n)
        assert [(starts | rows[u] << 1) >> v & 1 for v in later] == [prefix_ok(rows, u, v) for v in later]
        if prefixes:
            assert caps[u:] == [vertex_cap(rows, u, w) for w in range(u, n)]
        prefixes = prefixes and all(prefix_ok(rows, u, v) for v in later if rows[u] >> v & 1)


@st.composite
def dense_colorings(draw):
    """A coloring of K_n, n <= 8, k <= 3, whose class 0 takes each edge with
    chance 0.8 and the other classes share the rest: class 0's least degree
    is often at or above h - 1, the dense degree of a forest on h vertices."""
    n = draw(st.integers(3, 8))
    k = draw(st.sampled_from([2, 3]))
    m = n * (n - 1) // 2
    dice = draw(st.lists(st.integers(0, 9), min_size=m, max_size=m))
    rest = draw(st.lists(st.integers(1, k - 1), min_size=m, max_size=m))
    return EdgeColoring(n, k, tuple(0 if d < 8 else r for d, r in zip(dice, rest)))


def _class_zero(g: SimpleGraph) -> EdgeColoring:
    """The 2-coloring of K_n whose class 0 is g and class 1 its complement."""
    return EdgeColoring(g.n, 2, tuple(0 if g.has_edge(u, v) else 1 for u, v in all_pairs(g.n)))


# the property patterns, plus K_2 (dense degree 1) and 2K_2 (3), whose
# copies can leave a class's component
DELTA_PATTERNS = [*PROPERTY_PATTERNS, *map(parse_pattern, ["path:2", "path:2+path:2"])]
STAR3 = parse_pattern("star:3")
# the stars the climber scores by degrees; P_2 is K_{1,1} and P_3 is K_{1,2}
STAR_PATTERNS = [*map(parse_pattern, ["path:2", "path:3", "star:4"]), STAR3]


class TestDeltaEvaluation:
    @settings(max_examples=200, deadline=None)
    @given(st.one_of(colorings(), dense_colorings()), st.sampled_from(DELTA_PATTERNS), st.integers(-2, 1))
    @example(EdgeColoring(7, 2, (1, 1, 0, 1, 1, 1, 0, 0, 0, 1, 0, 1, 1, 0, 1, 0, 0, 0, 0, 0, 1)), C5, -2)
    # class 0 is K_4, of least degree 3, the dense degree of 2K_2: each edge
    # leaving it leaves the opposite edge with no disjoint partner, so each
    # loss is 1 though both ends have degree exactly 3, and `loss` must query
    @example(_class_zero(SimpleGraph.complete(4)), parse_pattern("path:2+path:2"), -2)
    # K_5 less (3, 4), of least degree 3 = |P_4| - 1: the edges inside
    # {0, 1, 2} have both ends at degree 4 and score no loss with no query;
    # the edges at 3 or 4 get no such shortcut
    @example(_class_zero(SimpleGraph.from_edges(5, [p for p in all_pairs(5) if p != (3, 4)])), P4, 0)
    # K_5 beside a vertex of class 1 only: least degree 4 > |P_4| - 1, so
    # the walk skips class 0 and every loss there is 0 unqueried
    @example(_class_zero(SimpleGraph.from_edges(6, all_pairs(5))), P4, -2)
    # class 0 is the 4-cycle 0-1-2-3, of least degree 2 = |P_3| - 1: adding
    # a diagonal gains nothing unqueried, and adding (4, 5), whose ends have
    # no class-0 edge, makes a NIM edge, so `gain` must not fire there
    @example(_class_zero(SimpleGraph.from_edges(6, [(0, 1), (1, 2), (2, 3), (0, 3)])), P3, -2)
    # K_{4,4}, of least degree 4 = |C_5| - 1, has no odd cycle, so all its
    # edges are NIM; an edge inside a side closes a C_5, and the rule is off
    @example(_class_zero(SimpleGraph.from_edges(8, [(u, v) for u in range(4) for v in range(4, 8)])), C5, -2)
    # class 0 is K_5 beside K_3: the walk starts with the K_5 hit, of least
    # degree 4 = |P_4|, and the K_3 NIM, too small for P_4, and queries only
    # class 1, the K_{5,3} between them
    @example(_class_zero(disjoint_union(SimpleGraph.complete(5), SimpleGraph.complete(3))), P4, -2)
    # class 0 is K_6 beside the path 6-7-8: the K_6, of least degree 5 =
    # |P_2 + P_3|, starts hit, and each copy through a path edge puts P_2
    # or P_3 in the K_6, so the walk's witnesses span both components
    @example(_class_zero(disjoint_union(SimpleGraph.complete(6), make_path(3).graph)), parse_pattern("path:2+path:3"), -2)
    def test_every_delta_matches_a_fresh_count(self, coloring, h, floor):
        state = _NimState(coloring, h.graph)
        assert state.score == nim_edges(coloring, h).count
        for e, old in enumerate(coloring.colors):
            loss = state.loss(e)
            for c in range(coloring.k):
                if c == old:
                    continue
                exact = nim_edges(coloring.recolored(e, c), h).count - state.score - loss
                assert state.gain(e, c) == exact
                bounded = state.gain(e, c, floor)
                assert bounded == exact if exact > floor else bounded <= floor

    @pytest.mark.parametrize(
        "start, spec, queries, hits",
        [
            # P_3 is the star K_{1,2}: degrees score every move, with no
            # query (33 and 33 with the dense rule alone, 236 and 236 before it)
            (EdgeColoring.random(14, 2, random.Random(1)), "path:3", 0, 0),
            # 212 and 212 before the dense rule.  Class 0 has least degree
            # 4 = |P_4| and is skipped; class 1 has 3 = |P_4| - 1 and is
            # walked, and most losses and gains keep a class dense
            (EdgeColoring.random(12, 2, random.Random(1)), "path:4", 30, 30),
            # least degrees 1, 1, 1 and 2, all below |P_5| - 1 = 4: no dense
            # rule fires.  212 and 205 while the walk went class by class:
            # the move splits a P_3 off class 1, too small for P_5, and the
            # rebuilt state now settles its two edges NIM unqueried
            (EdgeColoring.random(12, 4, random.Random(1)), "path:5", 210, 205),
        ],
        ids=["star-14-2", "dense-12-2", "sparse-12-4"],
    )
    def test_query_counts_of_one_step(self, monkeypatch, start, spec, queries, hits):
        # the state's walk and its rebuild query through nim, loss and gain through search
        calls = []

        def counted(*args):
            witness = _find_through(*args)
            calls.append(witness is not None)
            return witness

        monkeypatch.setattr("nimcolor.nim._find_through", counted)
        monkeypatch.setattr("nimcolor.search._find_through", counted)
        hill_climb_f(start.n, start.k, parse_pattern(spec), iterations=1, seed_coloring=start)
        assert (len(calls), sum(calls)) == (queries, hits)

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(colorings(), dense_colorings()), st.sampled_from(STAR_PATTERNS), st.integers(-2, 1))
    # star:3 centred at 0 (degree exactly s) and at 4 (degree s + 1): removing
    # (0, 1) frees (0, 2) and (0, 3); removing (4, 5) frees nothing
    @example(_class_zero(SimpleGraph.from_edges(9, [(0, 1), (0, 2), (0, 3), (4, 5), (4, 6), (4, 7), (4, 8)])), STAR3, -2)
    # vertex 0 has class-0 degree exactly s - 1 = 2: adding (0, 3) takes
    # (0, 1) and (0, 2) away; vertex 4 has s already, so adding (3, 4) takes none
    @example(_class_zero(SimpleGraph.from_edges(8, [(0, 1), (0, 2), (4, 5), (4, 6), (4, 7)])), STAR3, -2)
    # n <= s: K_4 has no K_{1,4}, so every edge is NIM
    @example(EdgeColoring(4, 2, (0, 0, 1, 0, 1, 1)), parse_pattern("star:4"), 0)
    # K_2 is the star with s = 1: every edge is a copy, and no move scores
    @example(EdgeColoring(5, 3, (0, 1, 2, 0, 1, 2, 0, 1, 2, 0)), parse_pattern("path:2"), 1)
    def test_star_state_matches_the_queried_state(self, coloring, h, floor):
        state, reference = _StarState(coloring, _star_size(h.graph)), _NimState(coloring, h.graph)
        assert state.score == reference.score == nim_edges(coloring, h).count
        for e, old in enumerate(coloring.colors):
            loss = state.loss(e)
            assert loss == reference.loss(e)
            for c in range(coloring.k):
                if c == old:
                    continue
                exact = nim_edges(coloring.recolored(e, c), h).count - state.score - loss
                # exact whatever the floor
                assert state.gain(e, c, floor) == reference.gain(e, c) == exact

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(colorings(), dense_colorings()), st.sampled_from(DELTA_PATTERNS + STAR_PATTERNS))
    def test_scoring_every_move_leaves_the_kept_rows_alone(self, coloring, h):
        # `loss` and `gain` flip bits of the state's rows in place and restore them
        rows = class_rows_per_edge(coloring)
        assert coloring.class_adjacency() == rows  # the coloring now keeps its rows
        star = _star_size(h.graph)
        for state in [_NimState(coloring, h.graph)] + ([_StarState(coloring, star)] if star is not None else []):
            for e, old in enumerate(coloring.colors):
                state.loss(e)
                for c in range(coloring.k):
                    if c != old:
                        state.gain(e, c)
            assert state.adj == rows
            assert coloring.class_adjacency() == rows
            assert [coloring.color_class(c).adj for c in range(coloring.k)] == list(map(tuple, rows))


# two bench cells, one a star the degree caps cut
@pytest.mark.parametrize("cell", [(6, 2, "path:4"), (5, 3, "star:3")], ids=["n6-k2-path:4", "n5-k3-star:3"])
def test_each_leaf_hands_in_the_rows_of_its_colors(cell, monkeypatch):
    scored = []

    def checked(coloring, h):
        # each leaf carries no rows in; the ones it builds are those of its colors
        assert "_rows" not in vars(coloring)
        assert coloring.class_adjacency() == class_rows_per_edge(coloring)
        scored.append(coloring.colors)
        return nim_edges(coloring, h)

    monkeypatch.setattr("nimcolor.search.nim_edges", checked)
    n, k, spec = cell
    result = exhaustive_f(n, k, parse_pattern(spec))
    assert scored and result.witness.colors in scored


def _overlay(n, length, k):
    red = extremal_path_graph(n, length, ex_path(n, length).recipe["a"])
    return extremal_overlay(n, make_path(length), red).with_colors(k)


TAIL_17, _ = tail_coloring_for(17, parse_pattern("dstar:3+path:6"))
REFERENCE_GRID = {
    "overlay-p4-k3": ("path:4", 12, 3, dict(iterations=3, seed_coloring=_overlay(12, 4, 3))),
    "overlay-p5-k2": ("path:5", 12, 2, dict(iterations=3, seed_coloring=_overlay(12, 5, 2))),
    "p2k-p4-k4": ("path:4", 13, 4, dict(iterations=2, seed_coloring=p2k_multicoloring(13, 2)[0])),
    "random-p4-k2": ("path:4", 7, 2, dict(seed=2, iterations=20, restarts=3)),
    "random-star-k3": ("star:3", 7, 3, dict(seed=5, iterations=20, restarts=2)),
    # star cells take the degree-only state: 3 and 10 moves
    "random-p3-k2": ("path:3", 6, 2, dict(seed=5, iterations=20, restarts=2)),
    "random-star4-k3": ("star:4", 9, 3, dict(seed=4, iterations=20, restarts=2)),
    "random-spider-k3": ("spider:2,2,1", 8, 3, dict(seed=2, iterations=10, restarts=2)),
    "random-p4-k4": ("path:4", 7, 4, dict(seed=9, iterations=20, restarts=2)),
    "random-forest-k2": ("path:3+path:3", 7, 2, dict(seed=1, iterations=20, restarts=3)),
    "tail-forest-k2": ("dstar:3+path:6", 17, 2, dict(iterations=1, seed_coloring=TAIL_17)),
}


class TestReferenceClimber:
    @pytest.mark.parametrize("case", sorted(REFERENCE_GRID))
    def test_same_climb_as_full_recounts(self, case):
        spec, n, k, kwargs = REFERENCE_GRID[case]
        h = parse_pattern(spec)
        fast = hill_climb_f(n, k, h, **kwargs)
        slow = hill_climb_recount(n, k, h, **kwargs)
        assert fast.best_count == slow.best_count
        assert fast.witness == slow.witness
        assert fast.colorings_examined == slow.colorings_examined


@st.composite
def twin_colorings(draw):
    """A coloring of K_n, n <= 8, k <= 4, with twins planted: up to three
    times, one vertex's color row is copied onto another's."""
    n = draw(st.integers(2, 8), label="n")
    k = draw(st.integers(2, 4), label="k")
    m = n * (n - 1) // 2
    colors = draw(st.lists(st.integers(0, k - 1), min_size=m, max_size=m), label="colors")
    for _ in range(draw(st.integers(0, 3), label="plants")):
        x = draw(st.integers(0, n - 1))
        y = draw(st.integers(0, n - 2))
        y += y >= x
        for w in set(range(n)) - {x, y}:
            colors[edge_index(min(y, w), max(y, w), n)] = colors[edge_index(min(x, w), max(x, w), n)]
    return EdgeColoring(n, k, tuple(colors))


# the bench's constructed hill starts, their patterns and their colored-twin
# orbit counts; every class component is settled, dense ones hit and
# cliques, stars and small joins NIM
CONSTRUCTED_STARTS = {
    "overlay-p4-12": (_overlay(12, 4, 3), "path:4", 10),
    "overlay-p4-14": (_overlay(14, 4, 3), "path:4", 15),
    "overlay-p5-12": (_overlay(12, 5, 2), "path:5", 6),
    "overlay-p5-14": (_overlay(14, 5, 2), "path:5", 10),
    "overlay-p5-16": (_overlay(16, 5, 2), "path:5", 10),
    "p2k-13": (p2k_multicoloring(13, 2)[0], "path:4", 37),
    "p2k-14": (p2k_multicoloring(14, 2)[0], "path:4", 37),
}


class TestComponentSettling:
    @pytest.mark.parametrize("case", list(CONSTRUCTED_STARTS))
    def test_the_walk_makes_no_query_from_a_constructed_start(self, monkeypatch, case):
        # over the two-step climb the walk queried 39 and 42 times on the
        # path:4 overlays, 18, 19 and 24 on the path:5 overlays and 69 and
        # 81 on the p2k starts while it settled whole classes only
        start, spec, _ = CONSTRUCTED_STARTS[case]
        calls = []

        def counted(*args):
            calls.append(args)
            return _find_through(*args)

        monkeypatch.setattr("nimcolor.nim._find_through", counted)
        hill_climb_f(start.n, start.k, parse_pattern(spec), iterations=2, seed_coloring=start)
        assert calls == []

    @settings(max_examples=100, deadline=None)
    @given(
        st.one_of(twin_colorings(), dense_colorings(), st.sampled_from([start for start, _, _ in CONSTRUCTED_STARTS.values()])),
        st.sampled_from(DELTA_PATTERNS),
    )
    # class 0 is the path 0-1-...-5 on K_8, twin-free but for 6 and 7, which
    # it leaves isolated: the settle step keeps their shared twin class
    @example(EdgeColoring(8, 2, tuple(0 if v == u + 1 < 6 else 1 for u, v in all_pairs(8))), P4)
    def test_kept_twin_classes_are_the_classes_twin_classes(self, coloring, h):
        # those the settle step built, and, for a class it settled whole, the climber's own
        star = _star_size(h.graph)
        state = _NimState(coloring, h.graph) if star is None else _StarState(coloring, star)
        # hill_climb_f's one reader of a state's twin classes
        twins = [t or _twin_members(rows) for t, rows in zip(state.twins, state.adj)]
        assert twins == list(map(_twin_members, coloring.class_adjacency()))


class TestTwinOrbits:
    @settings(max_examples=200, deadline=None)
    @given(twin_colorings())
    # 0 and 1 are twins in classes 0 and 1 but not in 2 and 3; 2 and 3 are colored twins
    @example(EdgeColoring(4, 4, (0, 2, 2, 3, 3, 1)))
    def test_each_orbit_is_scored_at_its_lowest_edge(self, coloring):
        orbits = colored_twin_orbits(coloring)
        edges = _orbit_edges(map(_twin_members, coloring.class_adjacency()), coloring.n)
        assert list(edges) == [min(o) for o in orbits]

    @settings(max_examples=60, deadline=None)
    @given(twin_colorings(), st.sampled_from(PROPERTY_PATTERNS))
    def test_same_climb_as_full_recounts_from_a_start_with_twins(self, coloring, h):
        kwargs = dict(iterations=3, seed_coloring=coloring)
        fast = hill_climb_f(coloring.n, coloring.k, h, **kwargs)
        slow = hill_climb_recount(coloring.n, coloring.k, h, **kwargs)
        assert (fast.best_count, fast.witness, fast.colorings_examined) == (
            slow.best_count, slow.witness, slow.colorings_examined
        )

    @pytest.mark.parametrize("k", [2, 3])
    def test_a_twin_free_coloring_scores_every_edge(self, k):
        # class 0 is the path 0-1-...-5, whose open and closed rows all differ; a class 2 is empty
        path = {(v, v + 1) for v in range(5)}
        coloring = EdgeColoring(6, k, tuple(0 if e in path else 1 for e in all_pairs(6)))
        assert list(_orbit_edges(map(_twin_members, coloring.class_adjacency()), 6)) == list(range(15))
        assert all(len(o) == 1 for o in colored_twin_orbits(coloring))

    @pytest.mark.parametrize("case", list(CONSTRUCTED_STARTS))
    def test_orbits_of_the_constructions(self, case):
        start, _, orbits = CONSTRUCTED_STARTS[case]
        edges = list(_orbit_edges(map(_twin_members, start.class_adjacency()), start.n))
        assert edges == [min(o) for o in colored_twin_orbits(start)]
        assert len(edges) == orbits


class TestCompare:
    def test_zero_gap_for_small_p3(self):
        r = exhaustive_f(5, 2, P3)
        ex = turan_value(r.n, P3)
        assert ex.value == 2
        assert r.best_count - (r.k - 1) * ex.value == 0

    def test_tail_gap_is_the_block_clique(self):
        h = parse_pattern("dstar:3+path:6")
        seed, _ = tail_coloring_for(20, h)
        r = hill_climb_f(20, 2, h, iterations=0, restarts=1, seed_coloring=seed)
        ex = turan_value(r.n, h)
        assert ex.value == 75
        assert r.best_count - (r.k - 1) * ex.value == 10  # C(5,2)
        assert ex.below_threshold

    def test_p2k_gap_matches_added_cliques(self):
        seed, _ = p2k_multicoloring(13, 2)
        r = hill_climb_f(13, 4, P4, iterations=0, restarts=1, seed_coloring=seed)
        ex = turan_value(r.n, P4)
        assert (r.k - 1) * ex.value == 3 * 12
        assert r.best_count - (r.k - 1) * ex.value == 3  # (k-1) * C(2k-1, 2) with k = 2

    def test_star_uses_oracle(self):
        r = exhaustive_f(5, 2, make_star(3))
        assert turan_value(r.n, make_star(3)).method == "oracle"
