import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import coloring_error_scan, degree_sequence, is_isomorphic
from nimcolor.graphs import (
    EdgeColoring,
    SimpleGraph,
    _bits,
    all_pairs,
    complement,
    complete_edge_count,
    components,
    disjoint_union,
    edge_index,
    edge_rank_offsets,
    edge_unindex,
    join,
)


class TestEdgeIndex:
    def test_first_pair(self):
        assert edge_index(0, 1, 4) == 0

    def test_last_pair_of_k4(self):
        assert edge_index(2, 3, 4) == 5

    def test_rank_matches_lex_enumeration_of_k5(self):
        # derived by enumerating pairs of K_5 in lexicographic order
        ranked = {pair: i for i, pair in enumerate(all_pairs(5))}
        assert ranked[(1, 3)] == 5
        assert edge_index(1, 3, 5) == 5

    def test_orientation_agnostic(self):
        assert edge_index(3, 1, 5) == edge_index(1, 3, 5)

    @pytest.mark.parametrize("u,v,n", [(0, 0, 4), (0, 4, 4), (-1, 2, 4), (5, 1, 4)])
    def test_invalid_arguments(self, u, v, n):
        with pytest.raises(ValueError):
            edge_index(u, v, n)

    def test_roundtrip_exhaustive_up_to_64(self):
        for n in range(2, 65):
            for i, (u, v) in enumerate(all_pairs(n)):
                assert edge_index(u, v, n) == i
                assert edge_unindex(i, n) == (u, v)

    def test_rank_offsets_match_edge_index(self):
        for n in (0, 1, 2, 7, 64):
            offset = edge_rank_offsets(n)
            assert len(offset) == n
            for u, v in all_pairs(n):
                assert offset[u] + v == edge_index(u, v, n)

    def test_large_n_support(self):
        n = 4096
        m = complete_edge_count(n)
        assert edge_unindex(edge_index(4000, 4095, n), n) == (4000, 4095)
        assert edge_index(n - 2, n - 1, n) == m - 1

    @given(st.integers(min_value=2, max_value=200), st.data())
    def test_roundtrip_random(self, n, data):
        i = data.draw(st.integers(min_value=0, max_value=complete_edge_count(n) - 1))
        u, v = edge_unindex(i, n)
        assert u < v < n
        assert edge_index(u, v, n) == i


class TestBits:
    # 2,100 bits hold the C(64, 2) = 2,016 edge bits of the largest host;
    # dense masks come from the integers, sparse ones from position sets
    @given(
        st.one_of(
            st.integers(min_value=0, max_value=(1 << 2100) - 1),
            st.sets(st.integers(min_value=0, max_value=2099)).map(lambda ps: sum(1 << p for p in ps)),
        )
    )
    def test_set_bits_in_ascending_order(self, mask):
        # the cover pass queries in canonical order through it
        assert _bits(mask) == [p for p in range(mask.bit_length()) if mask >> p & 1]


class TestSimpleGraph:
    def test_complete_graph_counts(self):
        g = SimpleGraph.complete(5)
        assert g.edge_count == 10
        assert degree_sequence(g) == (4, 4, 4, 4, 4)

    def test_no_loops_allowed(self):
        with pytest.raises(ValueError):
            SimpleGraph.from_edges(3, [(1, 1)])

    def test_a_row_with_a_bit_past_n_is_refused(self):
        with pytest.raises(ValueError, match=r"^vertex 0 has a neighbour at or past n=2$"):
            SimpleGraph(2, (0b100, 0))

    def test_edge_count_is_half_degree_sum(self):
        g = SimpleGraph.from_edges(5, [(0, 1), (1, 2), (3, 4), (0, 2)])
        assert sum(g.degree(v) for v in range(5)) == 2 * g.edge_count

    def test_join_of_vertex_and_independent_set_is_star(self):
        star = join(SimpleGraph.complete(1), SimpleGraph.empty(3))
        assert degree_sequence(star) == (3, 1, 1, 1)
        assert star.edge_count == 3

    def test_disjoint_union_and_components(self):
        k3 = SimpleGraph.complete(3)
        g = disjoint_union(k3, k3)
        assert g.edge_count == 6
        assert components(g) == [[0, 1, 2], [3, 4, 5]]
        assert disjoint_union(k3, SimpleGraph.empty(1), k3) == SimpleGraph(7, g.adj[:3] + (0,) + tuple(r << 1 for r in g.adj[3:]))
        assert disjoint_union() == SimpleGraph.empty(0)

    def test_complement_of_perfect_matching_is_c4(self):
        pm = SimpleGraph.from_edges(4, [(0, 1), (2, 3)])
        c4 = complement(pm)
        assert c4.edge_count == 4
        assert degree_sequence(c4) == (2, 2, 2, 2)
        assert is_isomorphic(c4, SimpleGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]))

    def test_complement_involution(self):
        g = SimpleGraph.from_edges(6, [(0, 1), (1, 2), (2, 5), (3, 4)])
        assert complement(complement(g)) == g

    def test_permuted_preserves_structure(self):
        g = SimpleGraph.from_edges(4, [(0, 1), (1, 2)])
        h = g.permuted([3, 2, 1, 0])
        assert h.edge_count == g.edge_count
        assert h.has_edge(3, 2) and h.has_edge(2, 1)

    def test_permuted_refuses_a_non_permutation(self):
        g = SimpleGraph.from_edges(3, [(0, 1), (1, 2)])
        c = EdgeColoring(3, 2, (0, 1, 0))
        for perm in ([0, 1], [0, 1, 2, 3], [0, 1, 0], [0, 1, 3], [-1, 0, 1]):
            for x in (g, c):
                with pytest.raises(ValueError, match=re.escape(f"{perm} is not a permutation of 0..2")):
                    x.permuted(perm)

    def test_has_edge_refuses_vertices_outside_the_graph(self):
        g = SimpleGraph.from_edges(3, [(0, 1), (1, 2)])
        assert g.has_edge(2, 1) and not g.has_edge(0, 2) and not g.has_edge(1, 1)
        for u, v in ((-1, 1), (1, -1), (3, 0), (0, 3)):
            with pytest.raises(ValueError, match=rf"^invalid edge \({u}, {v}\) for n=3$"):
                g.has_edge(u, v)

    def test_isomorphism_rejects_c6_vs_two_triangles(self):
        c6 = SimpleGraph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
        two_k3 = disjoint_union(SimpleGraph.complete(3), SimpleGraph.complete(3))
        # same degree sequence, different component structure
        assert degree_sequence(c6) == degree_sequence(two_k3)
        assert not is_isomorphic(c6, two_k3)

    def test_isomorphism_accepts_relabeling(self):
        g = SimpleGraph.from_edges(6, [(0, 1), (1, 2), (2, 3), (1, 4), (4, 5)])
        h = g.permuted([5, 3, 1, 0, 2, 4])
        assert is_isomorphic(g, h)


@st.composite
def colorings_with_bad_entries(draw):
    """(n, k, colors): a short color list, its length sometimes off by one,
    with entries out of range, negative, past one byte or not ints (bool
    included) at its first, middle or last position; k > 255 at times."""
    n = draw(st.integers(2, 6))
    k = draw(st.sampled_from([0, 1, 2, 3, 255, 256, 300]))
    m = complete_edge_count(n)
    length = draw(st.sampled_from([m, m, m, m - 1, m + 1]))
    colors = draw(st.lists(st.integers(0, max(k - 1, 0)), min_size=length, max_size=length))
    bad = st.sampled_from([k, k + 1, 255, 256, -1, -256, 1.0, 0.5, "1", True, False, None])
    for i in draw(st.sets(st.sampled_from([0, length // 2, length - 1]))) if length else ():
        colors[i] = draw(bad)
    return n, k, colors


class TestEdgeColoring:
    @settings(max_examples=400, deadline=None)
    @given(colorings_with_bad_entries())
    def test_validation_raises_what_the_per_element_scan_names(self, case):
        n, k, colors = case
        expected = coloring_error_scan(n, k, colors)
        for build in (
            lambda: EdgeColoring(n, k, tuple(colors)),
            lambda: EdgeColoring(n, k, colors),
            lambda: EdgeColoring.from_dict({"n": n, "k": k, "colors": colors}),
        ):
            if expected is None:
                assert build().colors == tuple(colors)
            else:
                with pytest.raises(ValueError) as caught:
                    build()
                assert str(caught.value) == expected

    def test_non_int_colors_are_refused(self):
        with pytest.raises(ValueError, match=r"^color 1\.0 at edge 1 is not an integer$"):
            EdgeColoring(3, 2, (0, 1.0, 0))
        with pytest.raises(ValueError, match="^color True at edge 1 is not an integer$"):
            EdgeColoring.from_dict({"n": 3, "k": 2, "colors": [0, True, 0]})

    def test_a_color_list_is_stored_as_a_hashable_tuple(self):
        c = EdgeColoring(3, 2, [0, 1, 0])
        assert c.colors == (0, 1, 0)
        assert hash(c) == hash(EdgeColoring(3, 2, (0, 1, 0)))

    def test_palettes_past_one_byte(self):
        colors = tuple(range(300))  # n = 25 has 300 edges
        assert EdgeColoring(25, 300, colors).colors == colors
        with pytest.raises(ValueError, match="^color 299 at edge 299 not in 0..298$"):
            EdgeColoring(25, 299, colors)

    def test_length_validation_message(self):
        with pytest.raises(ValueError, match="colors length 77 != 78"):
            EdgeColoring(13, 2, (0,) * 77)

    def test_color_range_validation(self):
        with pytest.raises(ValueError, match="not in 0..1"):
            EdgeColoring(3, 2, (0, 1, 2))

    def test_recoloring_refuses_a_color_past_the_palette(self):
        with pytest.raises(ValueError, match=r"^color 2 not in 0\.\.1$"):
            EdgeColoring(3, 2, (0, 1, 0)).recolored(0, 2)

    def test_a_palette_cannot_shrink(self):
        with pytest.raises(ValueError, match="^cannot shrink palette$"):
            EdgeColoring(3, 2, (0, 1, 0)).with_colors(1)

    def test_color_class_of_monochromatic_k3(self):
        c = EdgeColoring.monochromatic(3, k=2)
        assert c.color_class(0) == SimpleGraph.complete(3)
        assert c.color_class(1) == SimpleGraph.empty(3)

    def test_color_class_bad_index(self):
        c = EdgeColoring.monochromatic(3, k=2)
        with pytest.raises(ValueError):
            c.color_class(2)

    def test_classes_partition_all_edges(self, rng):
        for _ in range(20):
            n = rng.randrange(3, 9)
            k = rng.randrange(1, 5)
            c = EdgeColoring.random(n, k, rng)
            total = sum(c.color_class(i).edge_count for i in range(k))
            assert total == complete_edge_count(n)

    def test_json_roundtrip_bit_exact(self):
        c = EdgeColoring(4, 3, (0, 1, 2, 0, 1, 2))
        again = EdgeColoring.from_json(c.to_json())
        assert again == c
        payload = json.loads(c.to_json())
        assert set(payload) == {"n", "k", "colors"}

    def test_from_dict_missing_field(self):
        with pytest.raises(ValueError, match="missing field 'colors'"):
            EdgeColoring.from_dict({"n": 3, "k": 2})

    def test_negative_n_is_refused(self):
        with pytest.raises(ValueError, match="n must be >= 0, got -1"):
            EdgeColoring(-1, 2, (0,))

    def test_recolored(self):
        c = EdgeColoring.monochromatic(3, k=2)
        c2 = c.recolored(1, 1)
        assert c2.colors == (0, 1, 0)
        assert c.colors == (0, 0, 0)

    @pytest.mark.parametrize("idx", [-1, -3, 3, 10])
    def test_recolored_refuses_an_index_outside_the_edges(self, idx):
        with pytest.raises(ValueError, match=rf"^edge index {idx} out of range for n=3$"):
            EdgeColoring.monochromatic(3, k=2).recolored(idx, 1)
