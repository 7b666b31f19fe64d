from dataclasses import replace
from math import comb

import pytest

from nimcolor.constructions import (
    build_p2k_layout,
    extremal_overlay,
    p2k_expected_nim,
    p2k_multicoloring,
    tail_coloring_for,
    tail_forest_coloring,
    verify_layout,
)
from nimcolor.graphs import SimpleGraph, complete_edge_count, components
from nimcolor.nim import nim_edges
from nimcolor.patterns import forest_union, make_path, parse_pattern
from nimcolor.turan import extremal_path_graph
from oracles import tail_expected_nim_indices

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
        # the builder raises on any overwrite; summing class sizes confirms
        # the catch-all step filled everything that was left
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
        assert p2k_expected_nim(13, 2) == (39, True)
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
        target, exact = p2k_expected_nim(52, 4)
        assert exact and report.count == target == 7 * 150 + 3 * comb(7, 2)

    def test_expected_nim_residue_flag(self):
        assert p2k_expected_nim(13, 2)[1] is True  # 13 % 3 == 1 == k-1
        assert p2k_expected_nim(14, 2)[1] is True  # 14 % 3 == 2 == k
        assert p2k_expected_nim(15, 2)[1] is False
        assert p2k_expected_nim(27, 3)[1] is True  # 27 % 5 == 2 == k-1

    def test_off_residue_count_still_at_least_classes_sum(self):
        # outside the two good residues the first 2k-1 classes are merely
        # near-extremal; the count still clears (2k-1) times their edges
        n, k = 15, 2
        c, _ = p2k_multicoloring(n, k)
        report = nim_edges(c, make_path(4))
        per_class = c.color_class(0).edge_count
        assert report.count >= 3 * per_class + comb(3, 2)


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
