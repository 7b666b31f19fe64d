from functools import reduce

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import degree_sequence, is_isomorphic, perfect_matchings_brute, tails_brute
from nimcolor.errors import NotBipartiteError
from nimcolor import patterns
from nimcolor.graphs import SimpleGraph, components
from nimcolor.patterns import (
    MAX_SPEC_SUM,
    PatternSyntaxError,
    bipartition,
    custom_pattern,
    find_tails,
    forest_union,
    has_perfect_matching_forest,
    is_balanced,
    is_forest,
    make_double_broom,
    make_double_star,
    make_path,
    make_spider,
    make_star,
    parse_pattern,
    pattern_spec,
)


def cycle(n):
    return SimpleGraph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


class TestGenerators:
    def test_path_2_is_single_edge(self):
        h = make_path(2)
        assert h.graph.edge_count == 1 and h.vertex_count == 2

    def test_path_4_tails_are_the_two_end_triples(self):
        h = make_path(4)
        assert set(h.tails) == {(2, 1, 0), (1, 2, 3)}

    def test_star_bipartition_sizes(self):
        h = make_star(3)
        assert h.family == "star"
        assert tuple(map(len, h.bipartition)) == (1, 3)

    def test_spider_all_unit_branches_is_star(self):
        h = make_spider([1, 1, 1])
        assert is_isomorphic(h.graph, make_star(3).graph)

    def test_spider_two_branches_is_path(self):
        h = make_spider([2, 2])
        assert is_isomorphic(h.graph, make_path(5).graph)
        assert h.family == "spider"

    def test_spider_221_degree_sequence(self):
        h = make_spider([2, 2, 1])
        assert h.vertex_count == 6
        assert degree_sequence(h.graph) == (3, 2, 2, 1, 1, 1)

    def test_spider_rejects_empty_and_zero(self):
        with pytest.raises(ValueError):
            make_spider([])
        with pytest.raises(ValueError):
            make_spider([2, 0])

    def test_double_broom_211_is_p4(self):
        assert is_isomorphic(make_double_broom(2, 1, 1).graph, make_path(4).graph)

    def test_double_broom_222_has_no_perfect_matching(self):
        h = make_double_broom(2, 2, 2)
        assert not h.has_perfect_matching
        assert perfect_matchings_brute(h.graph) == 0

    def test_double_broom_312_vertex_count(self):
        assert make_double_broom(3, 1, 2).vertex_count == 6

    def test_double_broom_end_degrees(self):
        h = make_double_broom(4, 2, 3)
        degs = sorted(h.graph.degree(v) for v in (0, 3))
        assert degs == [3, 4]

    def test_double_broom_needs_path(self):
        with pytest.raises(ValueError):
            make_double_broom(1, 2, 2)

    def test_double_star_2_is_p4_with_matching(self):
        h = make_double_star(2)
        assert is_isomorphic(h.graph, make_path(4).graph)
        assert h.has_perfect_matching and h.balanced

    def test_double_star_3_balanced_no_matching(self):
        h = make_double_star(3)
        assert h.balanced and not h.has_perfect_matching

    def test_double_star_4_degree_sequence(self):
        h = make_double_star(4)
        assert h.vertex_count == 8
        assert degree_sequence(h.graph) == (4, 4, 1, 1, 1, 1, 1, 1)

    def test_double_star_rejects_small(self):
        with pytest.raises(ValueError):
            make_double_star(1)

    @pytest.mark.parametrize("a", range(2, 7))
    def test_double_star_equals_symmetric_broom(self, a):
        assert is_isomorphic(make_double_star(a).graph, make_double_broom(2, a - 1, a - 1).graph)

    @given(st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=4))
    def test_generated_spiders_are_trees(self, lengths):
        h = make_spider(lengths)
        g = h.graph
        assert g.edge_count == g.n - 1
        assert len(components(g)) == 1


class TestForestUnion:
    def test_union_flags(self):
        h = forest_union(make_double_star(3), make_path(6))
        assert h.vertex_count == 12
        assert h.balanced
        assert not h.has_perfect_matching

    def test_two_single_edges_have_matching(self):
        h = forest_union(make_path(2), make_path(2))
        assert h.has_perfect_matching

    def test_two_p4_balanced_with_matching(self):
        h = forest_union(make_path(4), make_path(4))
        assert h.balanced and h.has_perfect_matching

    def test_rejects_cycles(self):
        with pytest.raises(ValueError):
            forest_union(custom_pattern(cycle(3)), make_path(2))


class TestTails:
    def test_k13_has_no_tails(self):
        assert find_tails(make_star(3)) == []

    def test_union_tails_come_from_the_path_only(self):
        h = forest_union(make_double_star(3), make_path(6))
        assert set(h.tails) == tails_brute(h.graph)
        # both tails live in the path component (vertices 6..11)
        assert all(min(t) >= 6 for t in h.tails)

    @pytest.mark.parametrize(
        "h",
        [
            make_path(3),
            make_path(6),
            make_spider([2, 2, 1]),
            make_double_broom(3, 1, 2),
            forest_union(make_path(4), make_star(2)),
            custom_pattern(cycle(5)),
        ],
    )
    def test_exhaustive_triple_scan_agreement(self, h):
        assert set(find_tails(h)) == tails_brute(h.graph if hasattr(h, "graph") else h)


class TestBipartitionMatchingBalance:
    def test_c4_splits_evenly(self):
        a, b = bipartition(custom_pattern(cycle(4)))
        assert (len(a), len(b)) == (2, 2)
        assert 0 in a

    def test_k3_not_bipartite(self):
        with pytest.raises(NotBipartiteError):
            bipartition(custom_pattern(cycle(3)))

    def test_side_a_never_larger(self):
        for h in (make_star(5), make_double_broom(4, 1, 3), make_path(7)):
            a, b = bipartition(h)
            assert len(a) <= len(b)

    def test_greedy_matching_agrees_with_enumeration(self, rng):
        # random forests on up to 10 vertices
        for _ in range(60):
            n = rng.randrange(2, 11)
            edges = []
            for v in range(1, n):
                if rng.random() < 0.8:
                    edges.append((rng.randrange(v), v))
            g = SimpleGraph.from_edges(n, edges)
            assert has_perfect_matching_forest(g) == (perfect_matchings_brute(g) > 0)

    def test_matching_rejects_cycles(self):
        with pytest.raises(ValueError):
            has_perfect_matching_forest(cycle(4))

    def test_balance_rejects_cycles(self):
        with pytest.raises(ValueError):
            is_balanced(cycle(4))

    def test_balanced_forest_detection(self):
        assert is_balanced(make_path(4).graph)
        assert not is_balanced(make_star(3).graph)
        assert is_balanced(forest_union(make_path(2), make_path(6)).graph)

    def test_unbalanced_when_the_root_side_is_larger(self):
        # the BFS puts each component's lowest vertex on side 0, here the larger side
        assert not is_balanced(make_path(3).graph)
        assert not is_balanced(forest_union(make_path(2), make_path(5)).graph)

    def test_custom_cycle_pattern_flags(self):
        h = custom_pattern(cycle(4))
        assert not h.balanced and not h.has_perfect_matching
        assert not is_forest(h)

    def test_annotations_are_computed_on_first_use(self):
        from nimcolor.graphs import EdgeColoring
        from nimcolor.nim import nim_edges

        annotations = ("bipartition", "tails", "balanced", "has_perfect_matching")
        for spec in ("dstar:3+path:6", "path:8", "spider:2,2,1"):
            h = parse_pattern(spec)
            nim_edges(EdgeColoring.monochromatic(6, 2), h)  # counting reads none of them
            assert not set(annotations) & set(vars(h))
            g = h.graph
            forest = is_forest(g)
            assert (h.bipartition, h.tails, h.balanced, h.has_perfect_matching) == (
                bipartition(g),
                tuple(find_tails(g)),
                forest and is_balanced(g),
                forest and has_perfect_matching_forest(g),
            )
            assert set(annotations) <= set(vars(h))
        odd = custom_pattern(cycle(5))
        assert odd.bipartition is None and odd.tails == ()

    def test_raw_graphs_are_named_by_order_and_size(self):
        from nimcolor.graphs import EdgeColoring
        from nimcolor.nim import nim_edges
        from nimcolor.turan import turan_oracle

        c5 = cycle(5)
        assert pattern_spec(c5) == custom_pattern(c5).spec == "custom:5v5e"
        assert nim_edges(EdgeColoring.monochromatic(6), c5).pattern == "custom:5v5e"
        assert turan_oracle(5, c5).pattern == "custom:5v5e"
        assert custom_pattern(c5, "ring").spec == "ring"
        assert pattern_spec(make_path(4)) == "path:4"


class TestParse:
    @pytest.mark.parametrize(
        "text,vertices,edges",
        [
            ("path:4", 4, 3),
            ("star:3", 4, 3),
            ("spider:2,2,1", 6, 5),
            ("dbroom:3,1,2", 6, 5),
            ("dstar:3", 6, 5),
            ("dstar:3+path:6", 12, 10),
            ("path:2+path:2+path:2", 6, 3),
        ],
    )
    def test_valid_specs(self, text, vertices, edges):
        h = parse_pattern(text)
        assert h.vertex_count == vertices
        assert h.graph.edge_count == edges
        assert h.spec == text

    def test_parse_matches_generator(self):
        assert parse_pattern("dstar:3+path:6").graph == forest_union(
            make_double_star(3), make_path(6)
        ).graph

    def test_a_union_of_many_atoms_is_not_walked_per_atom(self, monkeypatch):
        # a left fold of forest_union walked both sides of every union: 8,190 walks here
        walks = 0
        real = patterns._bfs_forest

        def counted(g):
            nonlocal walks
            walks += 1
            return real(g)

        monkeypatch.setattr("nimcolor.patterns._bfs_forest", counted)
        h = parse_pattern("+".join(["path:1"] * 4096))
        assert walks <= 1
        assert (h.vertex_count, h.edge_count, h.family) == (4096, 0, "union")

    @pytest.mark.parametrize(
        "text", ["path:3+star:2", "path:2+path:2+path:2", "spider:2,1+path:1+dstar:2+dbroom:2,1,2", "star:0+star:0"]
    )
    def test_a_union_is_the_fold_of_forest_union(self, text):
        folded = reduce(forest_union, map(parse_pattern, text.split("+")))
        h = parse_pattern(text)
        assert (h.spec, h.family, h.graph) == (folded.spec, folded.family, folded.graph)

    def test_unknown_family_position(self):
        with pytest.raises(PatternSyntaxError) as err:
            parse_pattern("path:4+blob:3")
        assert err.value.position == 7

    def test_missing_colon(self):
        with pytest.raises(PatternSyntaxError):
            parse_pattern("path4")

    def test_non_integer_argument(self):
        with pytest.raises(PatternSyntaxError, match="non-integer"):
            parse_pattern("path:x")

    def test_semantic_error_propagates(self):
        with pytest.raises(PatternSyntaxError, match="at least 2 vertices"):
            parse_pattern("dbroom:1,1,1")

    @pytest.mark.parametrize(
        "text, order",
        [
            ("path:4096", 4096),
            ("spider:" + ",".join(["1"] * 4096), 4097),
            ("path:4000+path:96", 4096),
            ("+".join(["star:0"] * 8 + ["path:4088"]), 4096),
        ],
    )
    def test_a_spec_at_the_size_limit_parses(self, text, order):
        assert MAX_SPEC_SUM == 4096
        assert parse_pattern(text).vertex_count == order

    @pytest.mark.parametrize(
        "text, total",
        [
            ("path:4097", 4097),
            ("spider:" + ",".join(["1"] * 4097), 4097),
            ("path:4000+path:97", 4097),
            # an integer under 1 counts as 1, so one-vertex atoms cannot pile up unbounded
            ("+".join(["star:0"] * 9 + ["path:4088"]), 4097),
            ("path:4097+path:-1", 4098),
            # path:0 would fail to build; the sum is checked first, with nothing built
            ("path:0+path:5000", 5001),
        ],
    )
    def test_a_spec_past_the_size_limit_is_refused(self, text, total):
        with pytest.raises(PatternSyntaxError, match=f"sum to {total}, over the limit of 4096"):
            parse_pattern(text)

    def test_empty(self):
        with pytest.raises(PatternSyntaxError):
            parse_pattern("")
