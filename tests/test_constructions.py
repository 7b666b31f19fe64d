from dataclasses import replace
from math import comb

import pytest

from nimcolor.cli import _construction
from nimcolor.constructions import (
    build_p2k_layout,
    extremal_overlay,
    p2k_expected_nim,
    p2k_multicoloring,
    tail_coloring_for,
    tail_forest_coloring,
    verify_layout,
)
from nimcolor.graphs import SimpleGraph, all_pairs, complete_edge_count, components
from nimcolor.nim import nim_edges
from nimcolor.patterns import custom_pattern, forest_union, has_perfect_matching_forest, make_path, parse_pattern
from nimcolor.turan import ex_path, extremal_path_graph, path_extremal_t_range
from oracles import (
    construction_colors_per_edge,
    is_isomorphic,
    nim_edges_anchored,
    tail_expected_nim_indices,
    verify_layout_per_edge,
)

H_FOREST = parse_pattern("dstar:3+path:6")


class TestExtremalOverlay:
    def test_star_overlay_beats_turan_value(self):
        red = extremal_path_graph(7, 4, 0)
        c = extremal_overlay(7, make_path(4), red)
        assert nim_edges(c, make_path(4)).count >= 6

    def test_matching_overlay_attains_f_of_small_case(self):
        red = SimpleGraph.from_edges(4, [(0, 1), (2, 3)])
        c = extremal_overlay(4, make_path(3), red)
        assert nim_edges(c, make_path(3)).count == 2

    def test_empty_red_leaves_nothing(self):
        c = extremal_overlay(3, make_path(3), SimpleGraph.empty(3))
        assert nim_edges(c, make_path(3)).count == 0

    def test_rejects_red_containing_pattern(self):
        with pytest.raises(ValueError, match="contains the pattern"):
            extremal_overlay(4, make_path(3), SimpleGraph.from_edges(4, [(0, 1), (1, 2)]))

    def test_rejects_size_mismatch(self):
        with pytest.raises(ValueError, match="vertices"):
            extremal_overlay(5, make_path(3), SimpleGraph.empty(4))


class TestTailColoring:
    def test_edge_counts_a3_n20(self):
        c = tail_forest_coloring(20, 3)
        red, blue = c.color_class(0), c.color_class(1)
        assert red.edge_count == 5 * 15
        assert blue.edge_count == comb(5, 2) + comb(15, 2)
        # blue side splits into the two cliques
        assert sorted(len(x) for x in components(blue)) == [5, 15]

    def test_exact_nim_set(self):
        c, a = tail_coloring_for(20, H_FOREST)
        assert a == 3
        report = nim_edges(c, H_FOREST)
        assert report.count == comb(5, 2) + 5 * 15 == 85
        assert list(report.nim_edges) == tail_expected_nim_indices(20, a)

    def test_minimum_size_enforced(self):
        with pytest.raises(ValueError, match="too small"):
            tail_forest_coloring(16, 3)

    def test_wrapper_rejects_perfect_matching_forest(self):
        h = forest_union(make_path(4), make_path(4))
        with pytest.raises(ValueError, match="perfect matching"):
            tail_coloring_for(12, h)

    def test_wrapper_rejects_wrong_shapes(self):
        with pytest.raises(ValueError, match="two components"):
            tail_coloring_for(30, make_path(4))
        three = forest_union(forest_union(make_path(2), make_path(2)), make_path(2))
        with pytest.raises(ValueError, match="two components"):
            tail_coloring_for(30, three)
        uneven = forest_union(make_path(2), make_path(6))
        with pytest.raises(ValueError, match="2a vertices"):
            tail_coloring_for(30, uneven)


class TestP2kColoring:
    def test_primality_gate(self):
        with pytest.raises(ValueError, match="primality"):
            p2k_multicoloring(90, 5)  # 2k-1 = 9
        p2k_multicoloring(26, 3)  # 2k-1 = 5, prime
        p2k_multicoloring(50, 4)  # 2k-1 = 7, prime

    def test_minimum_n(self):
        with pytest.raises(ValueError, match="too small"):
            p2k_multicoloring(9, 2)

    def test_every_edge_colored_exactly_once(self):
        # the builder writes one color byte per edge in canonical order;
        # summing class sizes confirms every edge lands in exactly one class
        for k, ns in ((2, range(10, 41)), (3, range(26, 41))):
            for n in ns:
                c, _ = p2k_multicoloring(n, k)
                total = sum(c.color_class(i).edge_count for i in range(2 * k))
                assert total == complete_edge_count(n)

    def test_k2_n13_reference_counts(self):
        c, layout = p2k_multicoloring(13, 2)
        assert verify_layout(layout).ok
        report = nim_edges(c, make_path(4))
        assert report.count == 39
        assert p2k_expected_nim(13, 2) == 39
        assert report.per_color == (12, 12, 12, 3)

    def test_last_class_has_isolated_cliques(self):
        # rows k+1..2k-1 stay whole cliques in the final color and are NIM
        for n, k in ((13, 2), (27, 3)):
            c, layout = p2k_multicoloring(n, k)
            last = c.color_class(2 * k - 1)
            comps = {tuple(sorted(x)) for x in components(last) if len(x) > 1}
            for i in range(k, 2 * k - 1):
                assert tuple(layout.rows[i]) in comps
            report = nim_edges(c, make_path(2 * k))
            assert report.per_color[2 * k - 1] == (k - 1) * comb(2 * k - 1, 2)

    def test_k4_hits_target_too(self):
        # third prime block size; 52 = 7*7 + 3 sits on the good residue
        c, layout = p2k_multicoloring(52, 4)
        assert verify_layout(layout).ok
        report = nim_edges(c, make_path(8))
        assert report.count == p2k_expected_nim(52, 4) == 7 * 150 + 3 * comb(7, 2)

    @pytest.mark.parametrize("n, k", [(13, 2), (27, 3), (52, 4), (60, 4), (122, 6)])
    def test_colors_agree_with_their_layout(self, n, k):
        # the colors come from the plane's arithmetic and the sidecar from
        # the layout's tables; each edge must have the color the tables give
        coloring, layout = p2k_multicoloring(n, k)
        last = 2 * k - 1
        head = {v for row in layout.rows[:k] for v in row}  # rows 1..k
        want = {}
        for j, per_j in enumerate(layout.sigma):  # sigma[j + 1], color j
            for i, verts in enumerate(per_j):
                for s, u in enumerate(verts):
                    for v in verts[s + 1 :]:
                        want[min(u, v), max(u, v)] = last if i == 0 and {u, v} <= head else j
            want.update(((u, w), j) for u in layout.sigma_diamond[j] for w in layout.w)
        for row in layout.rows:
            want.update(((u, v), last) for s, u in enumerate(row) for v in row[s + 1 :])
        want.update(((u, w), last) for u in head for w in layout.w)
        want.update(((u, v), last) for s, u in enumerate(layout.w) for v in layout.w[s + 1 :])
        assert dict(zip(all_pairs(n), coloring.colors)) == want

    @pytest.mark.parametrize("n, k, message", [(10, 1, "k must be >= 2"), (5, 2, "n=5 too small; need n >= 10")])
    def test_expected_nim_refuses_what_the_layout_refuses(self, n, k, message):
        for call in (p2k_expected_nim, build_p2k_layout):
            with pytest.raises(ValueError, match=f"^{message}$"):
                call(n, k)

    @pytest.mark.parametrize("k, ns", [(2, range(10, 71)), (3, range(26, 71)), (4, range(50, 71)), (6, range(122, 133))])
    def test_expected_count_holds_at_every_residue(self, k, ns):
        # colors 0..q-1 are near-extremal path graphs, every edge NIM, and
        # color q keeps its k-1 isolated row cliques; off the residues k-1
        # and k, each of the q near-extremal classes is C(d+1, 2) below ex
        q = 2 * k - 1
        for n in ns:
            c, _ = p2k_multicoloring(n, k)
            report = nim_edges(c, make_path(2 * k), max_n=n)
            near = (k - 1) * (n - k + 1) + comb(k - 1, 2)
            assert report.per_color == (near,) * q + ((k - 1) * comb(q, 2),), n
            d = min(abs(n % q - k + 1), abs(n % q - k))
            residue_formula = q * ex_path(n, 2 * k).value + q * ((k - 1) ** 2 - comb(d + 1, 2))
            assert report.count == p2k_expected_nim(n, k) == residue_formula, n


class TestBuildersAgainstTheDefinitions:
    # each builder fills one byte per edge; the colors must be those its
    # definition gives edge by edge

    @pytest.mark.parametrize("k", [2, 3, 4, 6])
    def test_p2k_at_every_residue(self, k):
        q = 2 * k - 1
        for n in range(q * q + 1, q * q + 1 + 2 * q):  # every residue of n mod q, twice
            coloring = p2k_multicoloring(n, k)[0]
            assert coloring.colors == tuple(construction_colors_per_edge("p2k", n, k)), n

    @pytest.mark.parametrize("a", [2, 3])
    def test_tail(self, a):
        for n in range(6 * a - 1, 6 * a + 7):
            coloring = tail_forest_coloring(n, a)
            assert coloring.colors == tuple(construction_colors_per_edge("tail", n, a)), n

    @pytest.mark.parametrize("length", [4, 5, 6, 7, 8])
    def test_overlay_with_and_without_t(self, length):
        h = make_path(length)
        for n in range(length, 4 * length):
            for t in [None, *path_extremal_t_range(n, length)]:
                coloring, _ = _construction("overlay", n, t, h)
                red = extremal_path_graph(n, length, ex_path(n, length).recipe["a"] if t is None else t)
                assert coloring.colors == tuple(construction_colors_per_edge("overlay", n, red)), (n, t)


class TestLayoutVerification:
    def test_clean_layouts_pass(self):
        for n, k in ((13, 2), (16, 2), (26, 3), (27, 3)):
            layout = build_p2k_layout(n, k)
            report = verify_layout(layout)
            assert report.ok, report.violations

    def test_corrupted_sigma_is_caught(self):
        layout = build_p2k_layout(13, 2)
        sigma = [list(map(list, per_j)) for per_j in layout.sigma]
        sigma[0][0][0], sigma[0][1][0] = sigma[0][1][0], sigma[0][0][0]
        bad = replace(
            layout,
            sigma=tuple(tuple(tuple(c) for c in per_j) for per_j in sigma),
        )
        report = verify_layout(bad)
        assert not report.ok
        assert any("covered" in v for v in report.violations)

    def test_corrupted_diamond_is_caught(self):
        layout = build_p2k_layout(13, 2)
        diamonds = [list(d) for d in layout.sigma_diamond]
        diamonds[0] = diamonds[1]
        bad = replace(layout, sigma_diamond=tuple(tuple(d) for d in diamonds))
        report = verify_layout(bad)
        assert not report.ok
        assert any("overlap" in v or "diamond" in v for v in report.violations)

    def test_every_violation_kind_is_reported(self):
        layout = build_p2k_layout(13, 2)  # q = 3
        sigma = [list(per_j) for per_j in layout.sigma]
        sigma[0][0] = sigma[0][0][:2]  # two vertices, not a 3-clique
        sigma[0][1] = layout.rows[0]  # three vertices, all in row 1
        sigma[1] = sigma[2]  # a repeated parallel class covers its 9 edges twice
        diamonds = list(layout.sigma_diamond)
        diamonds[2] = layout.sigma[2][0][1:]  # rows 2-3, where k - 1 = 1 vertex belongs
        bad = replace(layout, sigma=tuple(map(tuple, sigma)), sigma_diamond=tuple(diamonds))
        report = verify_layout(bad)
        assert not report.ok
        found = report.violations
        assert "sigma[1][1] is not a 3-clique vertex set" in found
        assert "sigma[1][2] does not meet every row once" in found
        assert sum(v.startswith("U-edge ") for v in found) == 5
        assert any(v.startswith("... and ") and v.endswith(" more multiply covered edges") for v in found)
        assert "diamond[3] has 2 vertices, expected 1" in found

    def test_reports_match_the_per_edge_check_on_every_prime_layout(self):
        # every (n, k) the suite and the benchmark build, and more
        for k, ns in ((2, range(10, 65)), (3, range(26, 65)), (4, range(50, 65))):
            for n in ns:
                layout = build_p2k_layout(n, k)
                assert verify_layout(layout) == verify_layout_per_edge(layout)

    @pytest.mark.parametrize("n, k", [(13, 2), (27, 3), (52, 4)])
    @pytest.mark.parametrize(
        "mutant",
        ["swapped vertices", "dropped clique", "repeated class", "W vertex", "repeated vertex", "reversed clique"],
    )
    def test_reports_match_the_per_edge_check_on_mutants(self, n, k, mutant):
        layout = build_p2k_layout(n, k)
        sigma = [list(map(list, per_j)) for per_j in layout.sigma]
        if mutant == "swapped vertices":  # across two cliques of one class
            sigma[0][0][1], sigma[0][1][1] = sigma[0][1][1], sigma[0][0][1]
        elif mutant == "dropped clique":
            sigma[1][2] = []
        elif mutant == "repeated class":
            sigma[2] = sigma[1]
        elif mutant == "W vertex":  # inside a sigma clique
            sigma[1][1][-1] = layout.w[0]
        elif mutant == "repeated vertex":
            sigma[0][2][1] = sigma[0][2][0]
        else:  # the same edges, listed backwards
            sigma[1][0].reverse()
        bad = replace(layout, sigma=tuple(tuple(tuple(c) for c in per_j) for per_j in sigma))
        report = verify_layout(bad)
        assert report == verify_layout_per_edge(bad)
        assert report.ok is (mutant == "reversed clique")

    def test_layout_cell_lookup(self):
        layout = build_p2k_layout(13, 2)
        assert layout.vertex(1, 1) == 0
        assert layout.vertex(3, 3) == 8
        assert layout.w == (9, 10, 11, 12)
        with pytest.raises(ValueError):
            layout.vertex(0, 1)

    def test_sidecar_dict_shape(self):
        layout = build_p2k_layout(13, 2)
        payload = layout.to_dict()
        assert payload["k"] == 2 and payload["n"] == 13
        assert len(payload["sigma"]) == 3 and len(payload["sigma"][0]) == 3
        assert len(payload["sigma_diamond"]) == 3
        assert all(len(d) == 1 for d in payload["sigma_diamond"])
        assert [1, 1, 0] in payload["label_map"] and [3, 3, 8] in payload["label_map"]


def _trees(order):
    """Every tree on `order` >= 2 vertices up to isomorphism, as edge lists.

    Each tree on m + 1 vertices is one on m with a leaf m hung on some
    vertex; duplicates are dropped by the least AHU string of the tree
    rooted at one of its centers, a complete invariant of trees.
    """
    def canonical(edges, m):
        adj = [[] for _ in range(m)]
        for u, v in edges:
            adj[u].append(v)
            adj[v].append(u)
        degree = [len(a) for a in adj]
        layer = [v for v in range(m) if degree[v] <= 1]
        left = m
        while left > 2:
            left -= len(layer)
            nxt = []
            for v in layer:
                for w in adj[v]:
                    degree[w] -= 1
                    if degree[w] == 1:
                        nxt.append(w)
            layer = nxt

        def ahu(v, parent):
            return "(" + "".join(sorted(ahu(w, v) for w in adj[v] if w != parent)) + ")"

        return min(ahu(c, -1) for c in layer)

    trees = [[(0, 1)]]
    for m in range(2, order):
        grown = {}
        for edges in trees:
            for v in range(m):
                bigger = edges + [(v, m)]
                grown.setdefault(canonical(bigger, m + 1), bigger)
        trees = list(grown.values())
    return trees


class TestP2kBeyondPaths:
    # the p2k coloring's first 2k - 1 classes are K_{2k-1}'s beside K_{k-1}
    # joined to independent vertices; the joined part holds a tree T on 2k
    # vertices iff T has a vertex cover of k - 1 vertices, that is (by
    # König) iff T has no perfect matching.  The whole count, last class
    # included, is P_2k's for each tree with a perfect matching and smaller
    # for every other tree, at the n tried
    @pytest.mark.parametrize("k, ns, trees, matched", [(2, (12, 13), 2, 1), (3, (30, 31), 6, 2), (4, (56, 57), 23, 5)])
    def test_trees_with_a_perfect_matching_get_the_path_count(self, k, ns, trees, matched):
        graphs = [SimpleGraph.from_edges(2 * k, edges) for edges in _trees(2 * k)]
        assert len(graphs) == trees
        assert not any(is_isomorphic(g, h) for i, g in enumerate(graphs) for h in graphs[:i])
        assert sum(map(has_perfect_matching_forest, graphs)) == matched
        colorings = {n: p2k_multicoloring(n, k)[0] for n in ns}
        for g in graphs:
            pattern = custom_pattern(g)
            for n in ns:
                count = nim_edges(colorings[n], pattern).count
                if has_perfect_matching_forest(g):
                    assert count == p2k_expected_nim(n, k), (pattern.spec, n)
                else:
                    assert count < p2k_expected_nim(n, k), (pattern.spec, n)
                if k == 2:
                    assert nim_edges_anchored(colorings[n], pattern, max_n=13).count == count
