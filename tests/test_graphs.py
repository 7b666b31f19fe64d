import json
import re
from dataclasses import fields

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import class_rows_per_edge, coloring_error_scan, degree_sequence, is_isomorphic
from nimcolor.constructions import extremal_overlay, p2k_multicoloring, tail_forest_coloring
from nimcolor.graphs import (
    EdgeColoring,
    SimpleGraph,
    _bits,
    _canonical_fields,
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
from nimcolor.patterns import make_path
from nimcolor.turan import ex_path, extremal_path_graph


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

    @pytest.mark.parametrize(
        "adj, message",
        [
            ((0b100, 0), "vertex 0 has a neighbour at or past n=2"),
            ((0,), "adjacency length 1 != n=2"),
            # from_edges refuses a loop first, so only the constructor reaches this check
            ((0, 0b10), "loop at vertex 1"),
        ],
    )
    def test_malformed_rows_are_refused(self, adj, message):
        with pytest.raises(ValueError, match=rf"^{message}$"):
            SimpleGraph(2, adj)

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


@st.composite
def byte_color_cases(draw):
    """(n, k, colors): a color list of plain ints in 0..255 for K_n with
    n in 0..24 and k in 0..255, small k drawn often so that the class rows
    come from the byte matrix too; at times its length is off by one or
    one color is at or past k."""
    n = draw(st.integers(0, 24))
    k = draw(st.one_of(st.integers(1, 3), st.integers(0, 255)))
    m = complete_edge_count(n)
    length = draw(st.sampled_from([m, m, m, m + 1] + ([m - 1] if m else [])))
    colors = draw(st.lists(st.integers(0, max(k - 1, 0)), min_size=length, max_size=length))
    if colors and draw(st.integers(0, 3)) == 0:
        colors[draw(st.integers(0, length - 1))] = draw(st.integers(k, 255))
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

    @settings(max_examples=300, deadline=None)
    @given(byte_color_cases())
    @example((4, 2, [0, 1, 1, 0, 1, 2]))
    @example((3, 2, [0, 1]))
    @example((23, 2, [i % 2 for i in range(253)]))
    def test_byte_colors_make_the_tuple_coloring(self, case):
        # bytes skip the type scan; the coloring, its checks and their
        # messages are those of the tuple, and the kept bytes stay a copy
        n, k, colors = case
        expected = parsed(lambda c: EdgeColoring(n, k, tuple(c)), colors)
        for kind in (bytes, bytearray):
            given_colors = kind(colors)
            coloring = parsed(lambda c: EdgeColoring(n, k, c), given_colors)
            assert coloring == expected
            if not isinstance(expected, EdgeColoring):
                continue
            if kind is bytearray:  # later changes to the argument change nothing
                given_colors[:] = bytes(c ^ 1 for c in given_colors) + b"\0"
            assert hash(coloring) == hash(expected)
            assert repr(coloring) == repr(expected) == f"EdgeColoring(n={n}, k={k}, colors={tuple(colors)!r})"
            assert coloring.to_dict() == expected.to_dict() == {"n": n, "k": k, "colors": tuple(colors)}
            assert type(coloring.colors) is tuple and [f.name for f in fields(coloring)] == ["n", "k", "colors"]
            assert coloring.to_json() == expected.to_json() == json.dumps(expected.to_dict())
            assert coloring.class_adjacency() == expected.class_adjacency() == class_rows_per_edge(expected)
            for c in (coloring, expected):
                kept = vars(c)["_bytes"]
                assert type(kept) is bytes and kept == bytes(colors)

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
        with pytest.raises(ValueError, match=rf"^edge index {idx} out of range for n=3$"):
            edge_unindex(idx, 3)


@st.composite
def colorings(draw, max_n=70, max_k=8):
    """A uniform random coloring of K_n with n in 0..max_n and k in 1..max_k."""
    n = draw(st.integers(0, max_n))
    k = draw(st.integers(1, max_k))
    colors = draw(st.lists(st.integers(0, k - 1), min_size=complete_edge_count(n), max_size=complete_edge_count(n)))
    return EdgeColoring(n, k, colors)


def overlay(n: int, length: int) -> EdgeColoring:
    return extremal_overlay(n, make_path(length), extremal_path_graph(n, length, ex_path(n, length).recipe["a"]))


class TestClassRows:
    # rows built on either side of the pass's crossover, n = 14 + 4k, and by the loop past 254 colors
    @settings(max_examples=150, deadline=None)
    @given(colorings())
    @example(EdgeColoring(0, 3, ()))
    @example(EdgeColoring(1, 2, ()))
    @example(EdgeColoring(25, 300, tuple(range(300))))
    def test_rows_are_the_per_edge_rows(self, coloring):
        assert coloring.class_adjacency() == class_rows_per_edge(coloring)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: p2k_multicoloring(13, 2)[0],
            lambda: p2k_multicoloring(70, 2)[0],
            lambda: p2k_multicoloring(33, 3)[0],
            lambda: p2k_multicoloring(47, 3)[0],
            lambda: p2k_multicoloring(52, 4)[0],
            lambda: tail_forest_coloring(20, 3),
            lambda: tail_forest_coloring(64, 2),
            lambda: overlay(13, 4),
            lambda: overlay(64, 6),
        ],
        ids=["p2k-13-2", "p2k-70-2", "p2k-33-3", "p2k-47-3", "p2k-52-4", "tail-20-3", "tail-64-2", "overlay-13-4", "overlay-64-6"],
    )
    def test_every_family_has_the_per_edge_rows(self, make):
        coloring = make()
        rows = class_rows_per_edge(coloring)
        assert coloring.class_adjacency() == rows
        assert [coloring.color_class(i).adj for i in range(coloring.k)] == list(map(tuple, rows))

    @settings(max_examples=60, deadline=None)
    @given(colorings(max_n=40, max_k=5), st.data())
    def test_derived_colorings_have_the_per_edge_rows(self, coloring, data):
        # the parent keeps its rows once read, and each derived coloring builds its own on first use
        n, k = coloring.n, coloring.k
        assert coloring.class_adjacency() == class_rows_per_edge(coloring)
        for _ in range(data.draw(st.integers(1, 8))):
            step = data.draw(st.sampled_from(["recolored", "with_colors", "permuted"] if n >= 2 else ["with_colors"]))
            if step == "recolored":
                idx = data.draw(st.integers(0, complete_edge_count(n) - 1))
                derived = coloring.recolored(idx, data.draw(st.integers(0, k - 1)))
            elif step == "with_colors":
                derived = coloring.with_colors(k + data.draw(st.integers(0, 2)))
            else:
                derived = coloring.permuted(data.draw(st.permutations(range(n))))
            rebuilt = EdgeColoring(n, derived.k, derived.colors)
            assert derived == rebuilt and derived.to_json() == rebuilt.to_json()
            assert "_rows" not in vars(derived)
            assert derived.class_adjacency() == class_rows_per_edge(rebuilt)
            coloring, k = derived, derived.k

    def test_returned_rows_are_fresh_lists(self):
        for coloring in (p2k_multicoloring(13, 2)[0], overlay(40, 4), EdgeColoring(25, 300, tuple(range(300)))):
            expected = class_rows_per_edge(coloring)
            assert coloring.class_adjacency() == expected  # kept; the derived colorings build their own
            for derived in (coloring, coloring.recolored(0, 1), coloring.with_colors(coloring.k + 1)):
                first = derived.class_adjacency()
                for rows in first:
                    rows[1] ^= 1
                    rows.append(7)
                first.append([])
                rows = class_rows_per_edge(derived)
                assert derived.class_adjacency() == rows
                assert [derived.color_class(i).adj for i in range(derived.k)] == list(map(tuple, rows))
            assert coloring.class_adjacency() == expected

    def test_kept_rows_leave_the_fields_and_json_alone(self):
        coloring = p2k_multicoloring(13, 2)[0]
        text, shown = coloring.to_json(), repr(coloring)
        coloring.class_adjacency()
        old = coloring.colors[3]
        derived = coloring.recolored(3, (old + 1) % coloring.k).recolored(3, old)
        for c in (coloring, derived):
            assert c.to_json() == text and repr(c) == shown and list(c.to_dict()) == ["n", "k", "colors"]
        assert derived == coloring and hash(derived) == hash(coloring)


# one edit each: a leading zero in n, k or a color, a color JSON reads as
# another type or out of range, a one-character token that is no number,
# the wrong length, a trailing comma, other keys or key order, whitespace
# outside the object (form feed is not JSON whitespace), a comma with no
# space or a two-character separator other than ", ", a closing bracket
# swapped for another character, text past the end, a non-ASCII key or
# digit (JSON reads only ASCII digits)
FILE_EDITS = (
    "none", "n", "k", "zero color", "true", "-1", "1.5", "two digits", "past k", "one char",
    "drop color", "extra color", "trailing comma", "extra key", "keys reordered", "leading space",
    "trailing whitespace", "crlf", "form feed", "no space", "separator", "bracket", "trailing brackets",
    "non-ascii digit", "non-ascii key",
)


@st.composite
def coloring_files(draw, edit):
    """(coloring, text): a coloring of K_n with n in 0..24 and k in 1..12,
    so colors of one and of two digits, and a file text of it written
    token by token with `edit`, one of FILE_EDITS."""
    coloring = draw(colorings(max_n=24, max_k=12))
    head = {"n": str(coloring.n), "k": str(coloring.k)}
    tokens = list(map(str, coloring.colors))
    i = draw(st.integers(0, max(len(tokens) - 1, 0)))
    if edit in head:
        head[edit] = "0" + head[edit]
    elif tokens and edit == "zero color":
        tokens[i] = "0" + tokens[i]
    elif tokens and edit in ("true", "-1", "1.5"):
        tokens[i] = edit
    elif tokens and edit == "two digits":
        tokens[i] = str(draw(st.integers(10, 99)))
    elif tokens and edit == "past k":
        tokens[i] = str(draw(st.integers(coloring.k, 12)))
    elif tokens and edit == "one char":
        tokens[i] = draw(st.sampled_from(["x", "-", "+", ".", " ", "a"]))
    elif tokens and edit == "non-ascii digit":
        tokens[i] = "\u0663"  # ARABIC-INDIC DIGIT THREE
    elif tokens and edit == "drop color":
        del tokens[i]
    elif edit == "extra color":
        tokens.append(str(draw(st.integers(0, coloring.k - 1))))
    seps = [", "] * (len(tokens) - 1)
    if seps and edit == "no space":
        seps[min(i, len(seps) - 1)] = ","
    elif seps and edit == "separator":
        seps[min(i, len(seps) - 1)] = draw(st.sampled_from(["  ", "; ", "0 ", ",\n", ",\t", ",,", ",x", " ,"]))
    body = "".join(sep + token for sep, token in zip([""] + seps, tokens))
    if edit == "trailing comma":
        body += draw(st.sampled_from([",", ", "]))
    close = draw(st.sampled_from([")", " ", "0", "}"])) if edit == "bracket" else "]"
    items = [f'"n": {head["n"]}', f'"k": {head["k"]}', f'"colors": [{body}{close}']
    if edit == "keys reordered":
        items = items[1:] + items[:1]
    elif edit in ("extra key", "non-ascii key"):
        items.insert(draw(st.integers(0, 3)), '"x": 1' if edit == "extra key" else '"\u00e9": 1')
    text = "{" + ", ".join(items) + "}"
    if edit == "leading space":
        text = draw(st.sampled_from([" ", "\n", "\t"])) + text
    elif edit == "trailing whitespace":
        text += draw(st.sampled_from([" ", "\n", " \t\r\n"]))
    elif edit == "crlf":
        text += "\r\n"
    elif edit == "form feed":
        text += "\f"
    elif edit == "trailing brackets":
        text += "]}"
    return coloring, text


def parsed(parse, text):
    """What `parse` makes of `text`: its coloring, or its error's type and message."""
    try:
        return parse(text)
    except Exception as error:
        return type(error), str(error)


class TestColoringFiles:
    @pytest.mark.parametrize("edit", FILE_EDITS)
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_from_json_reads_as_json_loads_and_to_json_writes_as_json_dumps(self, edit, data):
        coloring, text = data.draw(coloring_files(edit))
        assert coloring.to_json() == json.dumps(coloring.to_dict())
        expected = parsed(lambda t: EdgeColoring.from_dict(json.loads(t)), text)
        assert parsed(EdgeColoring.from_json, text) == expected
        if edit in ("none", "trailing whitespace"):
            assert expected == coloring
            assert text.rstrip() == coloring.to_json()
            # the digit path reads every canonical file whose colors are digits
            digits = 0 < len(coloring.colors) and max(coloring.colors) < 10
            assert _canonical_fields(text) == ((coloring.n, coloring.k, bytes(coloring.colors)) if digits else None)

    def test_a_bool_palette_is_written_as_json_writes_it(self):
        # True is a palette of one color, and JSON writes it true
        coloring = EdgeColoring(3, True, (0, 0, 0))
        assert coloring.to_json() == json.dumps(coloring.to_dict()) == '{"n": 3, "k": true, "colors": [0, 0, 0]}'

    def test_files_of_every_family_read_back_by_the_digit_path(self):
        for coloring in (p2k_multicoloring(13, 2)[0], p2k_multicoloring(52, 4)[0], tail_forest_coloring(20, 3), overlay(30, 6)):
            text = coloring.to_json()
            assert text == json.dumps(coloring.to_dict())
            assert _canonical_fields(text + "\n") == (coloring.n, coloring.k, bytes(coloring.colors))
            assert EdgeColoring.from_json(text + "\n") == coloring
