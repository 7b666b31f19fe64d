import hashlib
import random
import sys

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
    relabel_colors,
    twin_classes,
)
from nimcolor import nim, search, turan
from nimcolor.constructions import extremal_overlay, p2k_multicoloring, tail_forest_coloring
from nimcolor.graphs import (
    EdgeColoring, SimpleGraph, _bits, all_pairs, components, disjoint_union, edge_index, edge_unindex, join,
)
from nimcolor.nim import (
    _anchor_plan, _anchor_plans, _cover_pass, _find_through, _query_plans, _twin_members, contains, nim_edges,
)
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
    return _find_through(g.adj, *_query_plans(h.graph, g.n), *e) is not None


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
            in_class = sum(1 << edge_index(u, v, n) for u, v in g.edges())
            for h in (P3, P4, CLAW, SPIDER, c5):
                covered = covered_edges_brute(g, h.graph)
                for u, v in g.edges():
                    e = edge_index(u, v, n)
                    witness = _find_through(g.adj, *_query_plans(h.graph, n), u, v)
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


# 7 and 8 vertices: deeper plans than ORBIT_PATTERNS, a position with two
# earlier neighbours, and one with none
LARGER_PATTERNS = [
    make_path(8),
    make_spider([2, 2, 2]),
    # a 6-cycle with a pendant vertex, beside an isolated vertex
    custom_pattern(SimpleGraph.from_edges(8, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 6)])),
]


@st.composite
def small_hosts(draw, min_n=2, max_n=9):
    """A graph on min_n to max_n vertices, each pair an edge with a drawn density."""
    n = draw(st.integers(min_n, max_n))
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
                got = _find_through(g.adj, *_query_plans(h.graph, g.n), u, v)
                assert got == find_through_all_plans(g.adj, g.n, h.graph, u, v), (h.spec, u, v)

    @settings(max_examples=200, deadline=None)
    @given(small_hosts(min_n=7, max_n=11), st.sampled_from(LARGER_PATTERNS))
    def test_copy_masks_match_trying_every_plan_on_larger_patterns(self, g, h):
        for x, y in g.edges():
            for u, v in ((x, y), (y, x)):
                got = _find_through(g.adj, *_query_plans(h.graph, g.n), u, v)
                assert got == find_through_all_plans(g.adj, g.n, h.graph, u, v), (h.spec, u, v)

    def test_contains_matches_brute_force_on_larger_patterns(self, rng):
        # hosts of the pattern's order or one more: brute force tries every
        # injection, so a larger host costs it a factor of n per vertex
        for h in LARGER_PATTERNS:
            for _ in range(6):
                n = h.vertex_count + (h.vertex_count < 8)
                p = rng.choice([0.3, 0.5, 0.7])
                g = SimpleGraph.from_edges(n, [pair for pair in all_pairs(n) if rng.random() < p])
                assert contains(g, h) == contains_brute(g, h.graph), (h.spec, list(g.edges()))

    @pytest.mark.parametrize(
        "run, spec, entered",
        [
            # 905 when every oriented edge had a plan, 492 while the pass
            # queried the K_7 and K_3 ∨ E_15 components, whose NIM groups each
            # failed through all seven plans, and 78 while it queried one edge
            # per twin group of the dense class components, which are now hit
            # unqueried: every vertex there has degree at least 7
            (lambda h: nim_edges(p2k_multicoloring(60, 4)[0], h), "path:8", 0),
            # a random 6-coloring has few twins and sparse classes: 266
            # queries, every one a hit, each entering one plan, bar one that
            # enters two
            (lambda h: nim_edges(EdgeColoring.random(30, 6, random.Random(5)), h), "path:6", 267),
            # 36,980 when every oriented edge had a plan, 24,043 before the
            # oracle stored the copies it found, 11,308 before it stored the
            # graphs where it found none, 1,108 while the closing `contains`
            # check on the witness entered the same recursion, 1,106 while
            # the oracle kept degrees sorted in vertex order, 209 while row 1
            # took every subset of vertices, and 133 while only rows 0 and 1
            # were prefixes
            (lambda h: turan_oracle(8, h), "spider:2,2,1", 118),
        ],
        ids=["nim-p2k-60-4-path8", "nim-random-30-6-path6", "turan-8-spider"],
    )
    def test_plans_entered(self, monkeypatch, run, spec, entered):
        # an anchored query enters a plan by calling its kernel; the orbit
        # check runs kernels from inside _anchor_plans and is not counted
        calls = 0

        def counted(kernel):
            def entry(*args):
                nonlocal calls
                calls += 1
                return kernel(*args)

            return entry

        plans = nim._anchor_plans
        monkeypatch.setattr(nim, "_anchor_plans", lambda rows: tuple((du, dv, counted(k)) for du, dv, k in plans(rows)))
        run(parse_pattern(spec))
        assert calls == entered


class TestDeepPlans:
    """Patterns of order 24, whose plans need more nested loops than CPython
    compiles into one function."""

    P24 = make_path(24)
    LONE = parse_pattern("path:23+path:1")  # a path beside an isolated vertex
    TWELVES = parse_pattern("path:12+path:12")

    def test_nim_edges(self):
        # colour 0 is a path on 23 of the 25 vertices, colour 1 every other edge
        n = 25
        red = tuple(edge_index(i, i + 1, n) for i in range(22))
        c = EdgeColoring(n, 2, tuple(0 if e in red else 1 for e in range(n * (n - 1) // 2)))
        assert nim_edges(c, self.P24, max_pattern=24).nim_edges == tuple(sorted(red))
        assert nim_edges(c, self.TWELVES, max_pattern=24).nim_edges == tuple(sorted(red))
        assert nim_edges(c, self.LONE, max_pattern=24).count == 0
        assert nim_edges(EdgeColoring.monochromatic(24), make_path(23), max_pattern=23).count == 0

    @pytest.mark.parametrize(
        "h, host",
        [
            (P24, make_path(26).graph),
            (LONE, disjoint_union(make_path(23).graph, SimpleGraph.empty(1))),
            (LONE, disjoint_union(make_path(22).graph, make_path(2).graph)),
            # two paths on 12 fit a path on 24 only as its two halves
            (TWELVES, disjoint_union(make_path(24).graph, SimpleGraph.empty(1))),
        ],
        ids=["path24", "lone", "lone-too-short", "twelves"],
    )
    def test_copy_masks_match_trying_every_plan(self, h, host):
        for x, y in host.edges():
            for u, v in ((x, y), (y, x)):
                got = _find_through(host.adj, *_query_plans(h.graph, host.n), u, v)
                assert got == find_through_all_plans(host.adj, host.n, h.graph, u, v), (u, v)

    def test_contains(self):
        assert contains(make_path(25).graph, self.P24)
        assert not contains(disjoint_union(make_path(23).graph, make_path(2).graph), self.P24)
        assert contains(make_path(25).graph, self.TWELVES)
        assert contains(disjoint_union(make_path(13).graph, make_path(12).graph), self.TWELVES)
        assert not contains(disjoint_union(disjoint_union(make_path(13).graph, make_path(11).graph), SimpleGraph.empty(1)), self.TWELVES)
        assert contains(disjoint_union(make_path(23).graph, SimpleGraph.empty(1)), self.LONE)
        assert not contains(disjoint_union(make_path(22).graph, make_path(2).graph), self.LONE)


# Plan order decides which copy a query finds first, and so every query and
# hit count the tests pin.  Each digest is the first 16 hex digits of the
# sha256 of repr([(plan.prev, plan.degrees, plan.edges), ...]) over the
# oriented edges (x, y), (y, x) of the pattern in edge order.  The patterns
# are every one the suite, the benchmark and the CI steps build plans for,
# and last one whose other components have three sizes, which pins their
# order.
GOLDEN_PLAN_SPECS = [
    ("path:2", "7ccef5cc22887912"),
    ("path:1+path:2", "725e511cd822a14b"),
    ("path:2+path:1", "725e511cd822a14b"),
    ("path:3", "6dd643c51dc2e9ae"),
    ("star:2", "e4e4d96703b7895d"),
    ("path:2+path:1+path:1", "2df2655546bea1e2"),
    ("path:2+path:2", "e10aa6452bd1cd67"),
    ("path:4", "ac9d032f8ffb0de9"),
    ("dstar:2", "a040e5b6e9b71a45"),
    ("star:3", "7007ec05798aaa07"),
    ("path:2+path:3", "923210a5ef0fed6a"),
    ("path:5", "52f8a9d4dd306b16"),
    ("spider:2,1,1", "914bb841ddd7b5ab"),
    ("star:4", "30bbe41a0e3ef588"),
    ("path:3+path:3", "b51658a1364b1c95"),
    ("path:6", "da3ab008df064b68"),
    ("dstar:3", "813549e2e097f9f6"),
    ("spider:2,2,1", "f07e72303ac0f3fa"),
    ("star:3+path:3", "0768575d474c8889"),
    ("spider:2,2,2", "f069bc24dbbd0e78"),
    ("star:6", "b04fe3fd6a88a46e"),
    ("path:3+path:5", "acb8eef7d9247fd9"),
    ("path:4+path:4", "0af7a7e98c8654bd"),
    ("path:8", "867c352387f646bc"),
    ("path:10", "c9ddc19932f650f8"),
    ("path:12", "3bce246b3b5d0d10"),
    ("dstar:3+path:6", "84963d15abfa98ee"),
    ("path:23", "268558d2fbe5c51e"),
    ("path:12+path:12", "b7e51bed4fb69e95"),
    ("path:23+path:1", "13753decbf615309"),
    ("path:24", "d469d900c5c5a9e4"),
    ("path:2+path:4+path:3+path:1", "b78685e5d2bb6a03"),
]
# the patterns with no spec: (order, edges, digest)
GOLDEN_PLAN_GRAPHS = [
    (3, "", "4f53cda18c2baa0c"),
    (3, "0-2", "725e511cd822a14b"),
    (3, "0-1 0-2 1-2", "055826f06d085622"),
    (4, "2-3", "2df2655546bea1e2"),
    (4, "1-2", "2df2655546bea1e2"),
    (4, "1-2 2-3", "daba45083e89a3fa"),
    (4, "1-3 2-3", "e3b63d55e51211a0"),
    (4, "1-2 1-3", "5547910e9b4f9bb5"),
    (4, "0-1 1-3", "daba45083e89a3fa"),
    (4, "0-2", "2df2655546bea1e2"),
    (4, "0-1 0-2", "5547910e9b4f9bb5"),
    (4, "0-3", "2df2655546bea1e2"),
    (4, "0-1 0-3 1-2", "a040e5b6e9b71a45"),
    (4, "0-2 0-3", "5547910e9b4f9bb5"),
    (4, "0-1 0-2 0-3 1-3 2-3", "12982b8a114aa228"),
    (4, "0-1 0-2 0-3 1-2 1-3", "598d542cc58259d2"),
    (4, "0-1 0-2 0-3 1-2 1-3 2-3", "fd89bba681cc122e"),
    (5, "3-4", "c997d905c70e4b34"),
    (5, "2-4", "c997d905c70e4b34"),
    (5, "1-3", "c997d905c70e4b34"),
    (5, "1-3 1-4", "a879a089850fec28"),
    (5, "0-1 1-2 1-3", "d3a886477b13b3b6"),
    (5, "0-1 1-4", "6d66334bb47282a0"),
    (5, "0-3", "c997d905c70e4b34"),
    (5, "0-1 0-3 1-2 3-4", "c62bef0d2dfc5a82"),
    (5, "0-2 0-3", "a879a089850fec28"),
    (5, "0-1 0-2 0-3 2-3", "b88fb40bcc4ff712"),
    (5, "0-4", "c997d905c70e4b34"),
    (5, "0-1 0-4 1-2 2-3 3-4", "a61b7feb73cf6515"),
    (5, "0-2 0-4 1-2", "35a9a66f027c97d5"),
    (5, "0-1 0-3 0-4 1-3 1-4 2-3 3-4", "22fdc6013691f4d2"),
    (5, "0-2 0-3 0-4", "025c6b6e5aeac96d"),
    (5, "0-1 0-2 0-3 0-4 1-2 1-3 1-4 2-3 2-4 3-4", "af370e8c61d1b959"),
    (8, "0-1 0-5 0-6 1-2 2-3 3-4 4-5", "5f232c3c5ecba1c6"),
]


def plan_digest(g: SimpleGraph) -> str:
    plans = [_anchor_plan(g, a, b) for x, y in g.edges() for a, b in ((x, y), (y, x))]
    return hashlib.sha256(repr([(p.prev, p.degrees, p.edges) for p in plans]).encode()).hexdigest()[:16]


class TestGoldenPlans:
    @pytest.mark.parametrize("spec, digest", GOLDEN_PLAN_SPECS)
    def test_spec(self, spec, digest):
        assert plan_digest(parse_pattern(spec).graph) == digest

    @pytest.mark.parametrize("n, edges, digest", GOLDEN_PLAN_GRAPHS)
    def test_graph(self, n, edges, digest):
        g = SimpleGraph.from_edges(n, (tuple(map(int, e.split("-"))) for e in edges.split()))
        assert plan_digest(g) == digest


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

    def test_limits_lift_by_their_keyword(self):
        # no n limit: the coloring already holds all C(n, 2) colors
        assert nim_edges(EdgeColoring.monochromatic(70), P3).count == 0
        assert nim_edges(EdgeColoring.monochromatic(4), make_path(17), max_pattern=17).count == 6

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


# each exact entry point: a call at (n, pattern), its label, its n limit
# (None: none), its pattern-order limit, and whether it takes the
# max_pattern keyword its hint names
ENTRY_POINTS = {
    "nim_edges": (lambda n, h: nim_edges(EdgeColoring.monochromatic(n), h), "NIM count", None, 16, True),
    "exhaustive_f": (lambda n, h: exhaustive_f(n, 2, h), "exhaustive search", 64, 16, False),
    "hill_climb_f": (lambda n, h: hill_climb_f(n, 2, h), "hill climb", 40, 16, False),
    "turan_oracle": (lambda n, h: turan_oracle(n, h), "oracle", None, 12, True),
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
    def test_refuses_a_negative_n(self, queries, entry):
        with pytest.raises(ValueError, match=r"^n must be >= 0, got -1$"):
            ENTRY_POINTS[entry][0](-1, P3)
        assert queries == []

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_limits_share_one_message(self, queries, entry):
        call, label, max_n, max_pattern, tunable = ENTRY_POINTS[entry]
        with pytest.raises(ResourceLimitError) as err:
            call(4, make_path(max_pattern + 1))
        limit = f"{label} limited to pattern order <= {max_pattern}, got {max_pattern + 1}"
        hint = f"pass max_pattern={max_pattern + 1} to allow it" if tunable else ""
        assert (err.value.limit, err.value.hint) == (limit, hint)
        # the message joins the two; an entry point without the keyword names none
        assert str(err.value) == (f"{limit}; {hint}" if tunable else limit)
        if max_n is not None:  # no keyword lifts an n limit
            with pytest.raises(ResourceLimitError) as err:
                call(max_n + 1, P3)
            assert (str(err.value), err.value.hint) == (f"{label} limited to n <= {max_n}, got {max_n + 1}", "")
        assert queries == []


class TestPlanFetches:
    """Each cover pass, walk state and exact search fetches the pattern's
    plans once (`nim._query_plans`), not once per anchored query."""

    @pytest.fixture
    def counts(self, monkeypatch):
        """Plan fetches, kernel entries, and the passes, searches and states built."""
        counts = {"fetches": 0, "entered": 0, "built": 0}
        plans = nim._anchor_plans

        def counted(key, fn):
            def call(*args):
                counts[key] += 1
                return fn(*args)

            return call

        def fetched(rows):
            counts["fetches"] += 1
            return tuple((du, dv, counted("entered", k)) for du, dv, k in plans(rows))

        monkeypatch.setattr(nim, "_anchor_plans", fetched)
        for owner, attr in ((nim, "_cover_pass"), (search._Blocking, "__init__"), (search._NimState, "__init__")):
            monkeypatch.setattr(owner, attr, counted("built", getattr(owner, attr)))
        monkeypatch.setattr(turan, "turan_oracle", counted("built", turan.turan_oracle))
        return counts

    @pytest.mark.parametrize(
        "run, spec, fetches",
        [
            # one pass; 78 when each query fetched the plans
            (lambda h: nim_edges(p2k_multicoloring(60, 4)[0], h), "path:8", 1),
            # one search; 615
            (lambda h: turan.turan_oracle(8, h), "spider:2,2,1", 1),
            # one search and a pass per leaf, 7 leaves; 1,104
            (lambda h: exhaustive_f(6, 2, h), "path:4", 8),
            # the start's state, a local optimum, so no move rebuilds it; 141
            (lambda h: hill_climb_f(13, 4, h, iterations=2, seed_coloring=p2k_multicoloring(13, 2)[0]), "path:4", 1),
        ],
        ids=["nim-p2k-60-4-path8", "turan-8-spider", "exhaustive-6-2-path4", "hill-p2k-13-4-path4"],
    )
    def test_plans_fetched_once_per_pass_search_or_state(self, counts, run, spec, fetches):
        run(parse_pattern(spec))
        assert counts["fetches"] == counts["built"] == fetches

    @pytest.mark.parametrize("spec", ["path:6", "dstar:3+path:6"])
    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_a_pattern_larger_than_the_host_takes_no_plan(self, counts, entry, spec):
        # K_n with n under the pattern's order holds no copy: every edge is
        # NIM, and K_n itself is the extremal graph
        call = ENTRY_POINTS[entry][0]
        answer = {"nim_edges": "count", "turan_oracle": "value"}.get(entry, "best_count")
        for n in range(6):
            assert getattr(call(n, parse_pattern(spec)), answer) == n * (n - 1) // 2, n
        assert (counts["fetches"], counts["entered"]) == (0, 0)


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
        permuted = relabel_colors(c, sigma)
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
def blown_up_colorings(draw, max_n: int = 20):
    """A small coloring with each vertex replaced by a monochromatic module, relabeled.

    A module whose inside edges all take color d is a clique of true twins
    in class d and an independent set of false twins in every other class.
    About 30% of draws are plain random colorings instead.  Modules hold 1
    to 4 vertices, and no draw has more than max_n.
    """
    k = draw(st.sampled_from([2, 3]))
    if draw(st.integers(0, 9)) < 3:
        n = draw(st.integers(3, min(9, max_n)))
        m = n * (n - 1) // 2
        return EdgeColoring(n, k, tuple(draw(st.lists(st.integers(0, k - 1), min_size=m, max_size=m))))
    q = draw(st.integers(2, 5))
    base = draw(st.lists(st.integers(0, k - 1), min_size=q * (q - 1) // 2, max_size=q * (q - 1) // 2))
    sizes: list[int] = []
    for i in range(q):  # room for one vertex in each module still to come
        sizes.append(draw(st.integers(1, min(4, max_n - sum(sizes) - (q - 1 - i)))))
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


def _matching_brute(g: SimpleGraph, comp: set[int]) -> int:
    """The size of a largest matching among the edges of g inside comp."""
    edges = [(u, v) for u, v in g.edges() if u in comp and v in comp]

    def best(i: int, used: int) -> int:
        if i == len(edges):
            return 0
        u, v = edges[i]
        skip = best(i + 1, used)
        if (used >> u) & 1 or (used >> v) & 1:
            return skip
        return max(skip, 1 + best(i + 1, used | 1 << u | 1 << v))

    return best(0, 0)


def _ruled_out(rows, comp: list[int], g: SimpleGraph) -> bool:
    """True when the component `comp` of a class with rows `rows` is too
    small for every pattern component of g with an edge: by order, by top
    degree, or by a matching number above |comp| less its largest
    independent twin class, so it holds no copy through any of its edges."""
    size = len(comp)
    top = max(rows[v].bit_count() for v in comp)
    twin = twin_classes(rows)
    free = 1
    for t in {twin[v] for v in comp}:
        members = [v for v in comp if twin[v] == t]
        if not any(rows[v] >> w & 1 for v in members for w in members):
            free = max(free, len(members))
    return all(
        len(pc) > size or max(g.degree(v) for v in pc) > top or _matching_brute(g, set(pc)) > size - free
        for pc in components(g)
        if len(pc) > 1
    )


def assert_pass_is_sound(coloring: EdgeColoring, h) -> None:
    """The pass's NIM mask is that of one query per uncovered edge, and the
    climber's state has that mask too.  The state's walk gives every hit
    edge it covers a copy through it, and no NIM edge one.  The edges it
    settles with no query lie in whole class components: every hit edge
    with no witness in one of least degree at least h, for a forest pattern
    on h vertices with an edge, and every NIM edge no query touched in one
    that the order, matching or top-degree bound rules out."""
    nim_mask = _cover_pass(coloring, h.graph)
    assert nim_mask == cover_pass_per_edge(coloring, h.graph)[1]
    n = coloring.n
    queried = set()
    find = nim._find_through

    def recorded(adj, offsets, plans, u, v):
        queried.add(edge_index(min(u, v), max(u, v), n))
        return find(adj, offsets, plans, u, v)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(nim, "_find_through", recorded)
        state = _NimState(coloring, h.graph)
    assert state.nim == nim_mask
    witnesses: dict[int, int] = {}  # each edge's cover witness, read back from `dependents`
    for f, dependents in enumerate(state.dependents):
        for e in _bits(dependents):
            witnesses[e] = witnesses.get(e, 0) | 1 << f
    hit = ((1 << len(coloring.colors)) - 1) & ~nim_mask
    witnessed = sum(1 << e for e in witnesses)
    assert witnessed & ~hit == 0
    for e, witness in witnesses.items():
        assert_copy_through(coloring, h, witness, e)
    g = h.graph
    adj = coloring.class_adjacency()

    def component(e: int) -> tuple[list[int], list[int]]:  # e's class rows and its component there
        rows = adj[coloring.colors[e]]
        u = edge_unindex(e, n)[0]
        return rows, next(comp for comp in components(SimpleGraph(n, tuple(rows))) if u in comp)

    unwitnessed = _bits(hit & ~witnessed)
    if unwitnessed:
        assert g.edge_count and g.edge_count == g.n - len(components(g))
    for e in unwitnessed:
        rows, comp = component(e)
        assert min(rows[v].bit_count() for v in comp) >= g.n
    for e in _bits(nim_mask):
        if e not in queried:
            assert _ruled_out(*component(e), g)


# patterns whose components are too large, by order, cover number or top
# degree, for some of the pieces `settled_pieces` draws; two are disconnected
SETTLE_PATTERNS = [
    *map(parse_pattern, ["path:4", "path:6", "path:8", "spider:2,2,1", "dstar:3+path:6", "path:3+path:5", "star:3"]),
    C5,
]


def cycle(m: int) -> SimpleGraph:
    return SimpleGraph.from_edges(m, [(i, (i + 1) % m) for i in range(m)])


CLIQUES_AND_JOINS = st.one_of(
    st.integers(2, 7).map(SimpleGraph.complete),
    st.tuples(st.integers(1, 3), st.integers(1, 8)).map(
        lambda ts: join(SimpleGraph.complete(ts[0]), SimpleGraph.empty(ts[1]))
    ),
)
# no two vertices of a path on 4 or more vertices, a cycle on 5 or more or
# the spider S(2,2,2) are twins, so a class of such pieces is twin-free
TWIN_FREE_PIECES = st.one_of(
    st.integers(4, 7).map(lambda m: make_path(m).graph),
    st.integers(5, 7).map(cycle),
    st.just(make_spider([2, 2, 2]).graph),
)


@st.composite
def settled_pieces(draw, piece=CLIQUES_AND_JOINS):
    """Pieces side by side in one class, with up to two isolated vertices, relabeled.

    By default they are small cliques and joins K_t ∨ E_s.  A clique with
    fewer vertices than a pattern component, or a join whose t is below the
    component's matching number, holds no copy through any of its edges:
    the pass settles it without a query.  With `TWIN_FREE_PIECES` the class
    is twin-free, and the pass queries all of it.  The other edges take the
    other colors at random, or one color per residue of u + v mod n, which
    makes each of those classes a matching.
    """
    h = draw(st.sampled_from(SETTLE_PATTERNS))
    pieces = draw(st.lists(piece, min_size=1, max_size=3))
    g = SimpleGraph.empty(draw(st.integers(0, 2)))
    for p in pieces:
        g = disjoint_union(g, p)
    n = g.n
    if draw(st.booleans()):
        k = draw(st.sampled_from([2, 3]))
        rest = st.integers(1, k - 1)
        colors = tuple(0 if g.has_edge(u, v) else draw(rest) for u, v in all_pairs(n))
    else:
        k = n + 1
        colors = tuple(0 if g.has_edge(u, v) else 1 + (u + v) % n for u, v in all_pairs(n))
    perm = draw(st.permutations(range(n)))
    return EdgeColoring(n, k, colors).permuted(perm), h


def _two_classes(g: SimpleGraph) -> EdgeColoring:
    """The 2-coloring of K_n whose class 0 is g and class 1 its complement."""
    return EdgeColoring(g.n, 2, tuple(0 if g.has_edge(u, v) else 1 for u, v in all_pairs(g.n)))


# class 0 is P_4 beside S(2,2,2) on K_11, twin-free, so it is queried whole
# for star:3: the P_4, of top degree 2 < 3, takes 3 failed queries, though a
# BFS over its components would settle it unqueried; class 1 is dense
P4_AND_SPIDER = (_two_classes(disjoint_union(make_path(4).graph, make_spider([2, 2, 2]).graph)), make_star(3))


def _overlay_40_path6() -> EdgeColoring:
    h = make_path(6)
    return extremal_overlay(40, h, extremal_path_graph(40, 6, ex_path(40, 6).recipe["a"]))


class TestTwinCollapse:
    @settings(max_examples=200, deadline=None)
    @given(
        st.one_of(
            st.tuples(blown_up_colorings(), st.sampled_from(TWIN_PATTERNS)),
            regular_pieces(),
            settled_pieces(TWIN_FREE_PIECES),
        )
    )
    @example((TRIANGLE_AND_C4, P4))
    @example(P4_AND_SPIDER)
    # one class is a K_4, a single twin group: the pass queries (0, 1) only,
    # and the climber's state, as 3 >= |P_3|, settles it hit with no query
    @example((EdgeColoring.monochromatic(4), P3))
    def test_pass_matches_the_per_edge_pass(self, case):
        # the NIM mask must match one query per edge; the pass returns no
        # copies, so each of the climber's is checked on its own
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
        assert twin_classes(g.adj) == twins

    @pytest.mark.parametrize(
        "coloring, spec, queries, hits",
        [
            # 138 and 79 while the K_7 and K_3 ∨ E_15 components were queried
            # (59 failed queries) and a hit group whose first edge a copy
            # covered was queried at a later edge, then 78 and 78 while the
            # dense components' twin groups were queried; the least degree
            # there is at least 7, so they are now hit unqueried
            (p2k_multicoloring(60, 4)[0], "path:8", 0, 0),
            # 3 and 1 while the second class's K_5 component was queried; it
            # is smaller than either pattern component and now settles
            # unqueried.  2 and 1 while the blue clique on the 35 other
            # vertices was queried; its degree 34 gets it hit whole, and
            # the red K_{5,35}, of least degree 5 < 11, takes one failed query
            (tail_forest_coloring(40, 3), "dstar:3+path:6", 1, 0),
            # 351 and 351 while the three classes, of least degrees 4, 6 and
            # 4, at least 3, had every uncovered edge queried
            (EdgeColoring.random(30, 3, random.Random(5)), "path:4", 0, 0),
            # six sparser classes, each one component of least degree 1, 2
            # or 3, below 5: the pass still queries one edge per twin group,
            # 266 of them, and all are hits
            (EdgeColoring.random(30, 6, random.Random(5)), "path:6", 266, 266),
            # 4 and 1 while a BFS over the twin-free class 0 settled its P_4
            # unqueried by top degree; the class is now opened whole, and
            # the P_4's 3 edges take a failed query each
            (P4_AND_SPIDER[0], "star:3", 7, 1),
        ],
        ids=["p2k-60-4", "tail-40-3", "random-30-3", "random-30-6", "p4-and-spider"],
    )
    def test_query_counts(self, monkeypatch, coloring, spec, queries, hits):
        # one query per uncovered edge takes 1716, 702, 351, 266 and 48
        # queries, and proving NIM once per twin group but querying every
        # hit 494, 519, 351 and 266 on the first four
        calls = []

        def counted(*args):
            witness = find(*args)
            calls.append(witness is not None)
            return witness

        find = nim._find_through
        monkeypatch.setattr(nim, "_find_through", counted)
        nim_edges(coloring, parse_pattern(spec))
        assert (len(calls), sum(calls)) == (queries, hits)


def _relabeled(coloring: EdgeColoring, seed: int) -> EdgeColoring:
    perm = list(range(coloring.n))
    random.Random(seed).shuffle(perm)
    return coloring.permuted(perm)


CONSTRUCTIONS = [
    (lambda: p2k_multicoloring(13, 2)[0], "path:4"),
    (lambda: p2k_multicoloring(33, 3)[0], "path:6"),
    (lambda: p2k_multicoloring(52, 4)[0], "path:8"),
    (lambda: tail_forest_coloring(24, 3), "dstar:3+path:6"),
    (lambda: extremal_overlay(30, P4, extremal_path_graph(30, 4, ex_path(30, 4).recipe["a"])), "path:4"),
    (_overlay_40_path6, "path:6"),
]


class TestComponentSettle:
    """The pass settles small class components unqueried and queries one edge
    per twin group elsewhere; its NIM mask must be that of one query per
    uncovered edge."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.one_of(
            settled_pieces(),
            settled_pieces(TWIN_FREE_PIECES),
            st.tuples(blown_up_colorings(), st.sampled_from(SETTLE_PATTERNS)),
        )
    )
    @example(P4_AND_SPIDER)
    def test_pass_matches_the_per_edge_pass(self, case):
        coloring, h = case
        assert _cover_pass(coloring, h.graph) == cover_pass_per_edge(coloring, h.graph)[1]

    @settings(max_examples=12, deadline=None)
    @given(st.sampled_from(range(len(CONSTRUCTIONS))), st.integers(0, 1 << 16))
    def test_relabeled_constructions(self, which, seed):
        build, spec = CONSTRUCTIONS[which]
        coloring, h = _relabeled(build(), seed), parse_pattern(spec)
        assert _cover_pass(coloring, h.graph) == cover_pass_per_edge(coloring, h.graph)[1]

    @given(st.integers(2, 9), st.sampled_from(SETTLE_PATTERNS + [P3, CLAW, custom_pattern(SimpleGraph.empty(3))]))
    def test_one_color(self, n, h):
        # with n below the pattern's order, or an edgeless pattern, every edge is NIM
        coloring = EdgeColoring.monochromatic(n)
        assert _cover_pass(coloring, h.graph) == cover_pass_per_edge(coloring, h.graph)[1]

    def test_small_components_take_no_query(self, monkeypatch):
        # class 0 is K_3 ∨ E_15 beside a K_7; every other class is a matching.
        # P_8 has 8 vertices and matching number 4: the K_7 is too small, and
        # the join has a vertex cover of 3, its K_3.  Every edge is NIM.
        g = disjoint_union(join(SimpleGraph.complete(3), SimpleGraph.empty(15)), SimpleGraph.complete(7))
        n = g.n
        colors = tuple(0 if g.has_edge(u, v) else 1 + (u + v) % n for u, v in all_pairs(n))
        coloring = _relabeled(EdgeColoring(n, n + 1, colors), 3)
        calls = []
        monkeypatch.setattr(nim, "_find_through", lambda *args: calls.append(args))
        report = nim_edges(coloring, parse_pattern("path:8"))
        assert (calls, report.count, report.per_color[0]) == ([], 300, 69)

    def test_low_degree_components_take_no_query(self, monkeypatch):
        # class 0 is a 12-cycle beside a K_4; every other class is a matching.
        # spider:2,2,1 has 6 vertices, matching number 3 and top degree 3:
        # the K_4 is too small and the cycle's degrees are too low, though
        # its order and cover number would admit a copy.  Every edge is NIM.
        cycle = SimpleGraph.from_edges(12, [(i, (i + 1) % 12) for i in range(12)])
        g = disjoint_union(cycle, SimpleGraph.complete(4))
        n = g.n
        colors = tuple(0 if g.has_edge(u, v) else 1 + (u + v) % n for u, v in all_pairs(n))
        coloring = _relabeled(EdgeColoring(n, n + 1, colors), 5)
        h = parse_pattern("spider:2,2,1")
        assert _cover_pass(coloring, h.graph) == cover_pass_per_edge(coloring, h.graph)[1]
        calls = []
        monkeypatch.setattr(nim, "_find_through", lambda *args: calls.append(args))
        report = nim_edges(coloring, h)
        assert (calls, report.count, report.per_color[0]) == ([], 120, 18)


K3 = custom_pattern(SimpleGraph.complete(3))
C4 = custom_pattern(c4())

# forests whose dense degree h - 1 runs from 1 to 5, one with an isolated
# vertex, and three patterns with a cycle, for which the rule must not fire
DENSE_PATTERNS = [
    *map(parse_pattern, ["path:2", "path:3", "path:4", "path:5", "star:3", "path:2+path:2", "path:3+path:1"]),
    parse_pattern("spider:2,2,1"),
    C4,
    C5,
    K3,
]


@st.composite
def sparse_colorings(draw):
    """A random coloring of K_n, n <= 10, in 4 to 6 colors: its classes are
    sparse, and often leave two or more vertices isolated."""
    n = draw(st.integers(3, 10))
    k = draw(st.integers(4, 6))
    m = n * (n - 1) // 2
    return EdgeColoring(n, k, tuple(draw(st.lists(st.integers(0, k - 1), min_size=m, max_size=m))))


@st.composite
def dense_colorings(draw):
    """A random coloring of K_n, n <= 8, whose edges take color 0 with a drawn
    chance of 50% to 90%, and the other colors evenly: class 0 is often
    dense, with components of least degree on both sides of h - 1."""
    n = draw(st.integers(3, 8))
    k = draw(st.sampled_from([2, 3]))
    bias = draw(st.integers(5, 9))
    m = n * (n - 1) // 2
    dice = draw(st.lists(st.integers(0, 9), min_size=m, max_size=m))
    rest = draw(st.lists(st.integers(1, k - 1), min_size=m, max_size=m))
    return EdgeColoring(n, k, tuple(0 if d < bias else r for d, r in zip(dice, rest)))


class TestDenseComponents:
    """A class component whose least degree is at least h - 1, for a forest
    pattern on h vertices with an edge, is hit whole with no query."""

    @pytest.mark.parametrize(
        "h, dense",
        [
            (make_path(2), 1),
            (P4, 3),
            (CLAW, 3),
            (parse_pattern("path:2+path:3"), 4),
            (parse_pattern("path:3+path:1"), 3),  # the isolated vertex counts in h
            (C4, float("inf")),
            (C5, float("inf")),
            (K3, float("inf")),
            (parse_pattern("path:1+path:1"), float("inf")),  # no edge
            (custom_pattern(SimpleGraph.empty(3)), float("inf")),
        ],
        ids=["P2", "P4", "claw", "P2+P3", "P3+P1", "C4", "C5", "K3", "P1+P1", "E3"],
    )
    def test_dense_degree(self, h, dense):
        assert nim._component_bounds(h.graph.adj)[2] == dense

    def test_prism_is_hit_unqueried_and_its_complement_is_nim(self, monkeypatch):
        # K_6 with a C_6 in color 0 and its complement, the triangular
        # prism, in color 1.  The prism is 3-regular, and the claw has 4
        # vertices, so every prism edge is hit with no query; the C_6 has
        # no claw, and its top degree 2 settles it unqueried too
        cycle = SimpleGraph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
        calls = []
        monkeypatch.setattr(nim, "_find_through", lambda *args: calls.append(args))
        assert (nim_edges(_two_classes(cycle), CLAW).per_color, calls) == ((6, 0), [])

    def test_no_triangle_in_k33(self):
        # K_{3,3} has least degree 3 >= |K_3| - 1 but no triangle: the rule
        # holds for forests only.  Class 1 is 2K_3, whose edges are all hit
        k33 = join(SimpleGraph.empty(3), SimpleGraph.empty(3))
        assert nim_edges(_two_classes(k33), SimpleGraph.complete(3)).per_color == (9, 0)

    def test_edgeless_pattern(self):
        # two isolated vertices: no copy goes through an edge, however dense
        # the class, so all 10 edges of K_5 are NIM
        assert nim_edges(EdgeColoring.monochromatic(5), parse_pattern("path:1+path:1")).count == 10

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(dense_colorings(), blown_up_colorings(max_n=8)), st.sampled_from(DENSE_PATTERNS))
    def test_matches_brute_force(self, coloring, h):
        assert set(nim_edges(coloring, h).nim_edges) == nim_brute(coloring, h.graph)


class TestSettleStep:
    """`nim._class_components` settles one class, at the cover pass's dense
    degree: NIM whole, hit whole, open whole when twin-free, or component
    by component over its twin classes."""

    @staticmethod
    def settle(g: SimpleGraph, spec: str):
        limits = nim._component_bounds(parse_pattern(spec).graph.adj)
        return nim._class_components(g.adj, limits[2], limits)

    def test_too_few_vertices(self):
        assert self.settle(SimpleGraph.complete(3), "path:4") == (0, 0, None)

    def test_too_low_a_top_degree(self):
        assert self.settle(cycle(12), "spider:2,2,1") == (0, 0, None)

    def test_dense(self):
        # the triangular prism, 3-regular, at the claw's dense degree 3
        prism = SimpleGraph.from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5)])
        assert self.settle(prism, "star:3") == (0b111111, 0, None)

    def test_twin_free(self):
        path = make_path(6).graph
        assert self.settle(path, "path:4") == (0, 0b111111, _twin_members(path.adj))
        # the two isolated vertices share a twin class, and the step returns it
        g = disjoint_union(path, SimpleGraph.empty(2))
        assert self.settle(g, "path:4") == (0, 0xFF, _twin_members(g.adj))

    def test_components_over_twin_classes(self):
        # K_4 on 0-3 is hit, K_{2,3} on 4-8 open, and K_3 on 9-11 too small for P_4
        g = disjoint_union(
            disjoint_union(SimpleGraph.complete(4), join(SimpleGraph.empty(2), SimpleGraph.empty(3))),
            SimpleGraph.complete(3),
        )
        assert self.settle(g, "path:4") == (0b1111, 0b111110000, _twin_members(g.adj))

    @pytest.mark.parametrize(
        "build, spec, count, built",
        [
            # the n = 30 path:4 overlay: the red class, disjoint cliques, is
            # split by its twin classes, and the blue one is hit whole
            (lambda: extremal_overlay(30, P4, extremal_path_graph(30, 4, ex_path(30, 4).recipe["a"])), "path:4", 30, [0]),
            # every class of p2k(40, 2) is split by its twin classes
            (lambda: p2k_multicoloring(40, 2)[0], "path:4", 120, [0, 1, 2, 3]),
            # tail(40, 3): the red K_{5,35} is open whole, the blue cliques split
            (lambda: tail_forest_coloring(40, 3), "dstar:3+path:6", 185, [0, 1]),
        ],
        ids=["overlay-30-path4", "p2k-40-2", "tail-40-3"],
    )
    def test_a_dense_class_builds_no_twin_classes(self, monkeypatch, build, spec, count, built):
        # one build per class the step opens or splits, none for a class it
        # settles whole, and none by the cover pass itself
        calls = []
        twins = nim._twin_members

        def spy(rows):
            calls.append((sys._getframe(1).f_code.co_name, rows))
            return twins(rows)

        coloring = build()
        monkeypatch.setattr(nim, "_twin_members", spy)
        assert nim_edges(coloring, parse_pattern(spec)).count == count
        rows = coloring.class_adjacency()
        assert calls == [("_class_components", rows[c]) for c in built]

    @pytest.mark.parametrize("slack", [0, 1], ids=["h-1", "h"])
    @settings(max_examples=150, deadline=None)
    @given(
        st.one_of(sparse_colorings(), blown_up_colorings(max_n=10)),
        st.sampled_from(SETTLE_PATTERNS + DENSE_PATTERNS),
    )
    # class 2 has two isolated vertices and no other twin pair
    @example(EdgeColoring.random(10, 6, random.Random(0)), P4)
    def test_twins_unless_settled_whole(self, slack, coloring, h):
        # at the cover pass's dense degree h - 1 and at the climber's h
        limits = nim._component_bounds(h.graph.adj)
        min_order, min_degree, dense, _ = limits
        every = (1 << coloring.n) - 1
        for rows in coloring.class_adjacency():
            hit, open_, twins = nim._class_components(rows, dense + slack, limits)
            degrees = [row.bit_count() for row in rows if row]
            whole = len(degrees) < min_order or max(degrees) < min_degree or min(degrees) >= dense + slack
            assert (twins is None) == whole
            if twins is None:
                assert (hit, open_) in ((every, 0), (0, 0))
            else:
                assert twins == _twin_members(rows)
