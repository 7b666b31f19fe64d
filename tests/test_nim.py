import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    contains_brute,
    covered_edges_brute,
    cover_pass_per_edge,
    find_through_all_plans,
    is_isomorphic,
    nim_brute,
    nim_edges_anchored,
)
from nimcolor import nim, search, turan
from nimcolor.constructions import extremal_overlay, p2k_multicoloring, tail_forest_coloring
from nimcolor.graphs import EdgeColoring, SimpleGraph, _bits, all_pairs, disjoint_union, edge_index, edge_unindex, join
from nimcolor.nim import _anchor_plans, _cover_pass, _find_through, _twin_classes, contains, nim_edges
from nimcolor.errors import ResourceLimitError
from nimcolor.patterns import (
    custom_pattern,
    forest_union,
    make_double_star,
    make_path,
    make_spider,
    make_star,
    parse_pattern,
)
from nimcolor.search import _NimState, exhaustive_f, hill_climb_f
from nimcolor.turan import ex_path, extremal_path_graph, turan_oracle

P3 = make_path(3)
P4 = make_path(4)
CLAW = make_star(3)
SPIDER = make_spider([2, 2, 1])
C5 = custom_pattern(SimpleGraph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]))


def c4():
    return SimpleGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])


class TestContains:
    def test_triangle_has_p3(self):
        assert contains(SimpleGraph.complete(3), P3)

    def test_c4_has_no_claw(self):
        assert not contains(c4(), CLAW)

    def test_small_host_fails_fast(self):
        assert not contains(SimpleGraph.complete(3), P4)

    def test_bipartite_block_cannot_host_both_components(self):
        # both forest components need three vertices on the small side, and
        # 3 + 3 exceeds 5
        host = join(SimpleGraph.empty(5), SimpleGraph.empty(15))
        h = parse_pattern("dstar:3+path:6")
        assert not contains(host, h)
        # either component alone fits
        assert contains(host, make_double_star(3))
        assert contains(host, make_path(6))

    def test_forest_across_components(self):
        from nimcolor.graphs import disjoint_union

        host = disjoint_union(SimpleGraph.complete(4), SimpleGraph.complete(4))
        assert contains(host, forest_union(make_path(4), make_path(4)))
        assert not contains(host, make_path(5))

    def test_edgeless_pattern(self):
        assert contains(SimpleGraph.complete(2), custom_pattern(SimpleGraph.empty(2)))
        assert not contains(SimpleGraph.complete(2), custom_pattern(SimpleGraph.empty(3)))


def through(g: SimpleGraph, h, e: tuple[int, int]) -> bool:
    """True iff some copy of pattern h in g uses edge e."""
    return _find_through(g.adj, g.n, h.graph, *e) is not None


class TestContainsThroughEdge:
    def test_identity_embedding(self):
        g = make_path(4).graph
        assert through(g, P4, (1, 2))

    def test_star_has_no_p4_anywhere(self):
        g = CLAW.graph
        for e in g.edges():
            assert not through(g, P4, e)

    def test_small_component_edge(self):
        from nimcolor.graphs import disjoint_union

        g = disjoint_union(
            disjoint_union(SimpleGraph.complete(3), SimpleGraph.complete(3)),
            join(SimpleGraph.complete(1), SimpleGraph.empty(6)),
        )
        assert not through(g, P4, (0, 1))

    def test_witness_is_the_edge_mask_of_a_copy_through_the_edge(self, rng):
        c5 = custom_pattern(SimpleGraph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]))
        for _ in range(12):
            n = rng.randrange(4, 10)
            p = rng.choice([0.3, 0.5, 0.7])
            edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
            g = SimpleGraph.from_edges(n, edges)
            in_class = sum(1 << e for e in g.edge_indices())
            for h in (P3, P4, CLAW, SPIDER, c5):
                covered = covered_edges_brute(g, h.graph)
                for u, v in g.edges():
                    e = edge_index(u, v, n)
                    witness = _find_through(g.adj, n, h.graph, u, v)
                    assert (witness is None) == (e not in covered), (n, h.spec, u, v)
                    if witness is None:
                        continue
                    assert witness.bit_count() == h.edge_count
                    assert (witness >> e) & 1 and not witness & ~in_class
                    copy = SimpleGraph.from_edges(n, (edge_unindex(f, n) for f in _bits(witness)))
                    assert contains_brute(copy, h.graph)


ORBIT_PATTERNS = [
    make_path(6),
    CLAW,
    SPIDER,
    C5,
    custom_pattern(SimpleGraph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])),  # K_4 minus an edge
    forest_union(P3, P3),
    custom_pattern(SimpleGraph.from_edges(5, [(0, 1), (1, 2), (1, 3)])),  # a claw beside an isolated vertex
]


@st.composite
def small_hosts(draw):
    """A graph on at most 9 vertices, each pair an edge with a drawn density."""
    n = draw(st.integers(2, 9))
    density = draw(st.integers(2, 9))
    dice = draw(st.lists(st.integers(0, 9), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))
    return SimpleGraph.from_edges(n, (pair for pair, d in zip(all_pairs(n), dice) if d < density))


class TestAnchorOrbits:
    @pytest.mark.parametrize(
        "spec, plans",
        [
            ("path:2", 1),
            ("path:3", 2),
            ("path:4", 3),
            ("path:6", 5),
            ("path:8", 7),
            ("star:3", 2),
            ("star:6", 2),
            ("spider:2,2,1", 6),
            ("dstar:3+path:6", 8),
        ],
    )
    def test_one_plan_per_orbit_of_oriented_edges(self, spec, plans):
        # every oriented edge has a plan of its own without the dedupe:
        # 2, 4, 6, 10, 14, 6, 12, 10 and 20
        assert len(_anchor_plans(parse_pattern(spec).graph.adj)) == plans

    @settings(max_examples=300, deadline=None)
    @given(small_hosts(), st.sampled_from(ORBIT_PATTERNS))
    def test_copy_masks_match_trying_every_plan(self, g, h):
        for x, y in g.edges():
            for u, v in ((x, y), (y, x)):
                got = _find_through(g.adj, g.n, h.graph, u, v)
                assert got == find_through_all_plans(g.adj, g.n, h.graph, u, v), (h.spec, u, v)

    @pytest.mark.parametrize(
        "run, spec, entered",
        [
            # 905 when every oriented edge had a plan
            (lambda h: nim_edges(p2k_multicoloring(60, 4)[0], h), "path:8", 492),
            # 36,980 when every oriented edge had a plan, 24,043 before the
            # oracle stored the copies it found, 11,308 before it stored the
            # graphs where it found none; the closing `contains` check on
            # the witness adds its own
            (lambda h: turan_oracle(8, h), "spider:2,2,1", 1108),
        ],
        ids=["nim-p2k-60-4-path8", "turan-8-spider"],
    )
    def test_plans_entered(self, monkeypatch, run, spec, entered):
        # a query enters a plan by calling _search at position 2
        h = parse_pattern(spec)
        _anchor_plans(h.graph.adj)  # build the plans first: the orbit check calls _search too
        calls = 0

        def counted(adj, full, plan, img, used, pos):
            nonlocal calls
            calls += pos == 2
            return search(adj, full, plan, img, used, pos)

        search = nim._search
        monkeypatch.setattr(nim, "_search", counted)
        run(h)
        assert calls == entered


class TestNimEdges:
    def test_monochromatic_k4_has_none_for_p3(self):
        c = EdgeColoring.monochromatic(4, k=1)
        assert nim_edges(c, P3).count == 0

    def test_red_matching_blue_c4(self):
        red = SimpleGraph.from_edges(4, [(0, 1), (2, 3)])
        colors = [1] * 6
        for u, v in red.edges():
            colors[edge_index(u, v, 4)] = 0
        c = EdgeColoring(4, 2, tuple(colors))
        report = nim_edges(c, P3)
        assert report.count == 2
        assert set(report.nim_edges) == {edge_index(0, 1, 4), edge_index(2, 3, 4)}
        assert report.per_color == (2, 0)

    def test_report_invariants(self, rng):
        c = EdgeColoring.random(7, 3, rng)
        r = nim_edges(c, P4)
        assert r.count == len(r.nim_edges) == sum(r.per_color)
        # reported edges really admit no monochromatic copy through them
        for e in r.nim_edges:
            i = c.colors[e]
            cls = c.color_class(i)
            assert not through(cls, P4, edge_unindex(e, c.n))

    def test_rejects_single_vertex_pattern(self):
        with pytest.raises(ValueError):
            nim_edges(EdgeColoring.monochromatic(4), make_path(1))

    def test_guardrails(self):
        with pytest.raises(ResourceLimitError):
            nim_edges(EdgeColoring.monochromatic(70), P3)

    def test_limits_name_their_keyword(self):
        with pytest.raises(ResourceLimitError, match=r"NIM count limited to n <= 64, got 70; pass max_n=70"):
            nim_edges(EdgeColoring.monochromatic(70), P3)
        with pytest.raises(ResourceLimitError, match=r"NIM count limited to pattern order <= 16, got 17; pass max_pattern=17"):
            nim_edges(EdgeColoring.monochromatic(4), make_path(17))
        assert nim_edges(EdgeColoring.monochromatic(70), P3, max_n=70).count == 0
        assert nim_edges(EdgeColoring.monochromatic(4), make_path(17), max_pattern=17).count == 6

    def test_limit_and_hint_are_kept_apart(self):
        with pytest.raises(ResourceLimitError) as err:
            nim_edges(EdgeColoring.monochromatic(4), make_path(17))
        assert err.value.limit == "NIM count limited to pattern order <= 16, got 17"
        assert err.value.hint == "pass max_pattern=17 to allow it"

    def test_negative_n_is_refused(self):
        with pytest.raises(ValueError, match="n must be >= 0, got -1"):
            nim_edges(EdgeColoring(-1, 2, (0,)), P3)

    def test_matches_definition_on_random_colorings(self, rng):
        two_edges = forest_union(make_path(2), make_path(2))
        for _ in range(40):
            n = rng.randrange(3, 7)
            k = rng.randrange(1, 4)
            c = EdgeColoring.random(n, k, rng)
            h = rng.choice([P3, P4, CLAW, two_edges])
            assert set(nim_edges(c, h).nim_edges) == nim_brute(c, h.graph)

    def test_contains_matches_brute_force_on_random_graphs(self, rng):
        # contains starts at position 0 of the first anchor plan, which need not
        # be a max-degree vertex in the largest component: the custom patterns
        # (one with an isolated vertex, C_5) and path:2+path:3 cover that, and
        # n from 2 gives hosts smaller than the pattern
        pats = [
            P3,
            P4,
            CLAW,
            SPIDER,
            make_path(5),
            custom_pattern(SimpleGraph.from_edges(4, [(1, 2), (2, 3)])),
            C5,
            parse_pattern("path:2+path:3"),
        ]
        for _ in range(60):
            n = rng.randrange(2, 8)
            edges = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < 0.5
            ]
            g = SimpleGraph.from_edges(n, edges)
            for h in pats:
                assert contains(g, h) == contains_brute(g, h.graph), (edges, h.spec)


# each exact entry point: a call at (n, pattern), its label, its two limits,
# and whether it takes the max_n and max_pattern keywords its hint names
ENTRY_POINTS = {
    "nim_edges": (lambda n, h: nim_edges(EdgeColoring.monochromatic(n), h), "NIM count", 64, 16, True),
    "exhaustive_f": (lambda n, h: exhaustive_f(n, 2, h), "exhaustive search", 64, 16, False),
    "hill_climb_f": (lambda n, h: hill_climb_f(n, 2, h), "hill climb", 40, 16, False),
    "turan_oracle": (lambda n, h: turan_oracle(n, h), "oracle", 10, 12, True),
}


class TestEntryGate:
    @pytest.fixture
    def queries(self, monkeypatch):
        """The anchored queries made, from whichever module makes them."""
        calls = []
        real = nim._find_through

        def counting(*args):
            calls.append(args)
            return real(*args)

        for module in (nim, search, turan):
            monkeypatch.setattr(module, "_find_through", counting)
        return calls

    @pytest.mark.parametrize("spec", ["path:1", "star:0"])
    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_refuses_a_pattern_under_two_vertices(self, queries, entry, spec):
        call = ENTRY_POINTS[entry][0]
        with pytest.raises(ValueError, match=r"^pattern needs at least 2 vertices$"):
            call(3, parse_pattern(spec))
        assert queries == []

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_limits_share_one_message(self, queries, entry):
        call, label, max_n, max_pattern, tunable = ENTRY_POINTS[entry]
        over = [
            (max_n + 1, P3, "n", "max_n", max_n),
            (4, make_path(max_pattern + 1), "pattern order", "max_pattern", max_pattern),
        ]
        for n, h, what, key, limit in over:
            got = n if what == "n" else h.vertex_count
            with pytest.raises(ResourceLimitError) as err:
                call(n, h)
            assert err.value.limit == f"{label} limited to {what} <= {limit}, got {got}"
            assert err.value.hint == (f"pass {key}={got} to allow it" if tunable else "")
        assert queries == []


class TestDualImplementations:
    def test_agree_on_random_colorings(self, rng):
        pats = [P3, P4, CLAW, SPIDER]
        for i in range(80):
            n = rng.randrange(4, 11)
            k = rng.randrange(2, 5)
            c = EdgeColoring.random(n, k, rng)
            h = pats[i % 4]
            assert nim_edges(c, h).nim_edges == nim_edges_anchored(c, h).nim_edges

    def test_agree_on_structured_colorings(self):
        # construction-shaped colorings are far from uniform noise
        from nimcolor.constructions import p2k_multicoloring, tail_forest_coloring

        cases = []
        for n in (10, 11, 12):
            cases.append((p2k_multicoloring(n, 2)[0], P4))
        cases.append((tail_forest_coloring(11, 2), forest_union(P4, P4)))
        cases.append((tail_forest_coloring(12, 2), forest_union(make_path(2), make_path(2))))
        for coloring, h in cases:
            assert nim_edges(coloring, h).nim_edges == nim_edges_anchored(coloring, h).nim_edges

    def test_reference_respects_its_limit(self):
        with pytest.raises(ResourceLimitError):
            nim_edges_anchored(EdgeColoring.monochromatic(13), P3)


class TestP3Characterization:
    def isolated_edges(self, c: EdgeColoring) -> set[int]:
        out = set()
        for e, i in enumerate(c.colors):
            u, v = edge_unindex(e, c.n)
            cls = c.color_class(i)
            if cls.degree(u) == 1 and cls.degree(v) == 1:
                out.add(e)
        return out

    def test_matches_isolated_edge_rule(self, rng):
        for _ in range(50):
            n = rng.randrange(3, 9)
            k = rng.randrange(1, 5)
            c = EdgeColoring.random(n, k, rng)
            assert set(nim_edges(c, P3).nim_edges) == self.isolated_edges(c)


class TestSymmetries:
    def test_color_permutation_invariance(self, rng):
        c = EdgeColoring.random(7, 3, rng)
        sigma = [2, 0, 1]
        permuted = c.relabel_colors(sigma)
        r1, r2 = nim_edges(c, P4), nim_edges(permuted, P4)
        assert r1.nim_edges == r2.nim_edges
        assert tuple(r2.per_color[sigma[i]] for i in range(3)) == r1.per_color

    def test_vertex_relabeling_equivariance(self, rng):
        c = EdgeColoring.random(7, 2, rng)
        perm = list(range(7))
        rng.shuffle(perm)
        moved = c.permuted(perm)
        r1, r2 = nim_edges(c, P4), nim_edges(moved, P4)
        expected = {
            edge_index(perm[u], perm[v], 7)
            for u, v in (edge_unindex(e, 7) for e in r1.nim_edges)
        }
        assert set(r2.nim_edges) == expected

    def test_fresh_color_recolor_cannot_hurt_other_classes(self, rng):
        for _ in range(20):
            c = EdgeColoring.random(6, 2, rng)
            r = nim_edges(c, P4)
            non_nim = [e for e in range(len(c.colors)) if e not in set(r.nim_edges)]
            if not non_nim:
                continue
            e = rng.choice(non_nim)
            widened = c.with_colors(3).recolored(e, 2)
            r2 = nim_edges(widened, P4)
            assert sum(r2.per_color[:2]) >= r.count


TWIN_PATTERNS = [
    *map(parse_pattern, ["path:3", "path:4", "path:5", "path:6", "star:3", "spider:2,2,1", "path:2+path:3"]),
    C5,
]


@st.composite
def blown_up_colorings(draw):
    """A small coloring with each vertex replaced by a monochromatic module, relabeled.

    A module whose inside edges all take color d is a clique of true twins
    in class d and an independent set of false twins in every other class.
    About 30% of draws are plain random colorings instead.
    """
    k = draw(st.sampled_from([2, 3]))
    if draw(st.integers(0, 9)) < 3:
        n = draw(st.integers(3, 9))
        m = n * (n - 1) // 2
        return EdgeColoring(n, k, tuple(draw(st.lists(st.integers(0, k - 1), min_size=m, max_size=m))))
    q = draw(st.integers(2, 5))
    base = draw(st.lists(st.integers(0, k - 1), min_size=q * (q - 1) // 2, max_size=q * (q - 1) // 2))
    sizes = draw(st.lists(st.integers(1, 4), min_size=q, max_size=q))
    inside = draw(st.lists(st.integers(0, k - 1), min_size=q, max_size=q))
    module = [i for i, size in enumerate(sizes) for _ in range(size)]
    n = len(module)
    colors = []
    for u, v in all_pairs(n):
        a, b = module[u], module[v]
        colors.append(inside[a] if a == b else base[edge_index(min(a, b), max(a, b), q)])
    perm = draw(st.permutations(range(n)))
    return EdgeColoring(n, k, tuple(colors)).permuted(perm)


@st.composite
def regular_pieces(draw):
    """K_{d+1} beside K_{d,d} or C_m in one class, relabeled, with path:{d+2}.

    Every vertex of the class has degree d, but only the second piece holds
    a path on d+2 vertices, so its edges are not NIM and the clique's are:
    vertices of equal degree need not be twins.  All other edges take the
    other colors at random.
    """
    d = draw(st.sampled_from([2, 3]))
    if d == 2 and draw(st.booleans()):
        m = draw(st.integers(4, 6))
        other = SimpleGraph.from_edges(m, [(i, (i + 1) % m) for i in range(m)])
    else:
        other = join(SimpleGraph.empty(d), SimpleGraph.empty(d))
    piece_class = disjoint_union(SimpleGraph.complete(d + 1), other)
    k = draw(st.sampled_from([2, 3]))
    c = draw(st.integers(0, k - 1))
    rest = st.sampled_from([x for x in range(k) if x != c])
    colors = tuple(c if piece_class.has_edge(u, v) else draw(rest) for u, v in all_pairs(piece_class.n))
    perm = draw(st.permutations(range(piece_class.n)))
    return EdgeColoring(piece_class.n, k, colors).permuted(perm), make_path(d + 2)


# Class 1 is a triangle on 0, 1, 2 and a 4-cycle 3-4-6-5, all of degree 2:
# the triangle's edges are NIM for P_4 and the cycle's are not.
TRIANGLE_AND_C4 = EdgeColoring(7, 3, (1, 1, 2, 0, 0, 2, 1, 2, 0, 0, 2, 2, 0, 0, 2, 1, 1, 2, 0, 1, 1))

PETERSEN = SimpleGraph.from_edges(
    10, [(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)] + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
)


def assert_copy_through(coloring: EdgeColoring, h, witness: int, e: int) -> None:
    """`witness` is the edge mask of a copy of h inside e's class through e."""
    n = coloring.n
    edges = _bits(witness)
    assert (witness >> e) & 1
    assert len(edges) == h.edge_count
    assert {coloring.colors[f] for f in edges} == {coloring.colors[e]}
    verts = sorted({v for f in edges for v in edge_unindex(f, n)})
    assert len(verts) <= h.graph.n
    pos = {v: i for i, v in enumerate(verts)}
    copy = SimpleGraph.from_edges(h.graph.n, ((pos[u], pos[v]) for u, v in (edge_unindex(f, n) for f in edges)))
    assert is_isomorphic(copy, h.graph)


def assert_pass_is_sound(coloring: EdgeColoring, h) -> None:
    """The pass's adjacency and NIM mask are those of one query per uncovered
    edge, each of its copies is a copy through the edge it was found for, and
    the climber's state gives every non-NIM edge, and no other, such a copy."""
    adj, nim_mask, copies = _cover_pass(coloring, h.graph)
    ref_adj, ref_nim, _ = cover_pass_per_edge(coloring, h.graph)
    assert (adj, nim_mask) == (ref_adj, ref_nim)
    for e, witness in copies.items():
        assert_copy_through(coloring, h, witness, e)
    witnesses: dict[int, int] = {}  # each edge's cover witness, read back from `dependents`
    for f, dependents in enumerate(_NimState(coloring, h.graph).dependents):
        for e in _bits(dependents):
            witnesses[e] = witnesses.get(e, 0) | 1 << f
    assert sum(1 << e for e in witnesses) == ((1 << len(coloring.colors)) - 1) & ~nim_mask
    for e, witness in witnesses.items():
        assert_copy_through(coloring, h, witness, e)


def _overlay_40_path6() -> EdgeColoring:
    h = make_path(6)
    return extremal_overlay(40, h, extremal_path_graph(40, 6, ex_path(40, 6).recipe["a"]))


class TestTwinCollapse:
    @settings(max_examples=200, deadline=None)
    @given(st.one_of(st.tuples(blown_up_colorings(), st.sampled_from(TWIN_PATTERNS)), regular_pieces()))
    @example((TRIANGLE_AND_C4, P4))
    # one class is a K_4, a single twin group: the pass queries (0, 1) only,
    # and the climber's state queries each later edge no copy covers yet
    @example((EdgeColoring.monochromatic(4), P3))
    def test_pass_matches_the_per_edge_pass(self, case):
        # the NIM mask must match one query per edge; the copies differ from
        # that pass's, since skipped hits have none, so each is checked on its own
        coloring, h = case
        assert_pass_is_sound(coloring, h)
        if coloring.n <= 8:
            assert set(nim_edges(coloring, h).nim_edges) == nim_brute(coloring, h.graph)

    @pytest.mark.parametrize(
        "build, spec",
        [
            (lambda: p2k_multicoloring(60, 4)[0], "path:8"),
            (lambda: tail_forest_coloring(40, 3), "dstar:3+path:6"),
            (_overlay_40_path6, "path:6"),
        ],
        ids=["p2k-60-4", "tail-40-3", "overlay-40-path6"],
    )
    def test_copies_and_climber_witnesses_on_bench_sized_constructions(self, build, spec):
        coloring = build()
        perm = list(range(coloring.n))
        random.Random(7).shuffle(perm)
        h = parse_pattern(spec)
        for c in (coloring, coloring.permuted(perm)):
            assert_pass_is_sound(c, h)

    @pytest.mark.parametrize(
        "g, twins",
        [
            (SimpleGraph.complete(5), [0, 0, 0, 0, 0]),
            (SimpleGraph.empty(4), [0, 0, 0, 0]),
            (join(SimpleGraph.empty(2), SimpleGraph.empty(3)), [0, 0, 2, 2, 2]),
            (c4(), [0, 1, 0, 1]),
            (make_path(4).graph, [0, 1, 2, 3]),
            (SimpleGraph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)]), list(range(6))),
            (PETERSEN, list(range(10))),
        ],
        ids=["K5", "empty", "K2,3", "C4", "P4", "C6", "Petersen"],
    )
    def test_twin_classes(self, g, twins):
        assert _twin_classes(g.adj) == twins

    @pytest.mark.parametrize(
        "coloring, spec, queries, hits",
        [
            (p2k_multicoloring(60, 4)[0], "path:8", 138, 79),
            (tail_forest_coloring(40, 3), "dstar:3+path:6", 3, 1),
            (EdgeColoring.random(30, 3, random.Random(5)), "path:4", 351, 351),
        ],
        ids=["p2k-60-4", "tail-40-3", "random-30-3"],
    )
    def test_query_counts(self, monkeypatch, coloring, spec, queries, hits):
        # one query per uncovered edge takes 1716, 702 and 351 queries, and
        # proving NIM once per twin group but querying every hit 494, 519 and 351
        calls = []

        def counted(*args):
            witness = find(*args)
            calls.append(witness is not None)
            return witness

        find = nim._find_through
        monkeypatch.setattr(nim, "_find_through", counted)
        nim_edges(coloring, parse_pattern(spec))
        assert (len(calls), sum(calls)) == (queries, hits)
