import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nimcolor.constructions import extremal_overlay, p2k_multicoloring, tail_coloring_for
from nimcolor.errors import ResourceLimitError
from nimcolor.graphs import EdgeColoring, SimpleGraph, all_pairs
from nimcolor.nim import nim_edges
from nimcolor.patterns import custom_pattern, make_path, make_star, parse_pattern
from nimcolor.search import _canonical_search, _NimState, exhaustive_f, hill_climb_f, turan_gap
from nimcolor.turan import ex_path, extremal_path_graph, turan_value
from oracles import exhaustive_f_first_edge_pin, hill_climb_recount, nim_brute

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

    def test_pattern_order_is_checked_before_the_search(self):
        with pytest.raises(ResourceLimitError, match=r"exhaustive search limited to pattern order <= 16") as err:
            exhaustive_f(4, 2, make_path(17))
        assert "max_pattern=" not in str(err.value)

    def test_budget_error_suggests_hill_climb(self):
        with pytest.raises(ResourceLimitError, match="hill_climb"):
            exhaustive_f(8, 2, P3)
        with pytest.raises(ResourceLimitError):
            exhaustive_f(6, 4, P3)

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

    def test_n_is_checked_before_the_search(self):
        with pytest.raises(ResourceLimitError, match=r"exhaustive search limited to n <= 64") as err:
            exhaustive_f(65, 1, P3)
        assert "max_n=" not in str(err.value)

    def test_negative_n_is_refused(self):
        with pytest.raises(ValueError, match="n must be >= 0, got -1"):
            exhaustive_f(-1, 2, P3)

    def test_a_pin_that_breaks_the_vertex_order_has_no_leaf(self):
        # (0,1) and (1,2), (1,3), (1,4) in class 0 but (0,2), (0,3), (0,4) not:
        # vertex 1 would outrank vertex 0 in class-0 degree, so no leaf is canonical
        cut = (0, 1, 1, 1, 0, 0, 0, 1, 1, 1)
        for h in (P3, P4):
            assert _canonical_search(5, 2, h, [(c,) for c in cut]) == (-1, (0,) * 10, 0)

    def test_matches_plain_enumeration_on_k4(self):
        # reference maximum over all 2^6 colorings straight from the definition
        from itertools import product

        from oracles import nim_brute

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


@pytest.mark.parametrize("n, k, spec", EXHAUSTIVE_CELLS, ids=[f"n{n}-k{k}-{s}" for n, k, s in EXHAUSTIVE_CELLS])
def test_exhaustive_matches_the_first_edge_pin_search(n, k, spec):
    h = C5 if spec == "cycle:5" else parse_pattern(spec)
    r = exhaustive_f(n, k, h)
    old_best, old_witness = exhaustive_f_first_edge_pin(n, k, h)
    assert r.best_count == old_best
    assert r.exhaustive
    assert len(nim_brute(r.witness, h.graph)) == nim_edges(r.witness, h).count == r.best_count
    assert nim_edges(old_witness, h).count == old_best


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

    def test_size_guard(self):
        with pytest.raises(ResourceLimitError):
            hill_climb_f(41, 2, P4)
        with pytest.raises(ResourceLimitError, match=r"hill climb limited to pattern order <= 16") as err:
            hill_climb_f(20, 2, make_path(17))
        assert "max_pattern=" not in str(err.value)

    def test_needs_a_color(self):
        with pytest.raises(ValueError, match="k must be >= 1"):
            hill_climb_f(5, 0, P4)

    def test_seed_shape_checked(self):
        with pytest.raises(ValueError):
            hill_climb_f(6, 2, P4, seed_coloring=EdgeColoring.monochromatic(6, k=3))


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


def canonical_relabeling(coloring: EdgeColoring) -> EdgeColoring:
    """The relabeling the `exhaustive_f` docstring promises, built from its rules."""
    n, k = coloring.n, coloring.k
    first = coloring.colors[0]
    swap = list(range(k))
    swap[0], swap[first] = first, 0
    swapped = coloring.relabel_colors(swap)
    red = swapped.color_class(0)
    deg = [red.degree(w) for w in range(n)]
    v0 = max(range(n), key=lambda w: deg[w])
    v1 = max(red.neighbors(v0), key=lambda w: deg[w])
    rest = sorted(set(range(n)) - {v0, v1}, key=lambda w: (-deg[w], not red.has_edge(v0, w)))
    perm = [0] * n  # old vertex -> new label
    for new, old in enumerate([v0, v1, *rest]):
        perm[old] = new
    return swapped.permuted(perm)


# Class 0 is two disjoint cherries: vertex 0 is one center, vertex 1 one of
# its leaves, and the other center outranks vertex 1 in class-0 degree.
TWO_CHERRIES = EdgeColoring(6, 2, tuple(0 if e in {(0, 1), (0, 2), (3, 4), (3, 5)} else 1 for e in all_pairs(6)))


@settings(max_examples=150, deadline=None)
@given(colorings(), st.sampled_from(PROPERTY_PATTERNS))
@example(TWO_CHERRIES, P3)
def test_every_coloring_has_a_relabeling_the_search_keeps(coloring, h):
    # the real search, pinned to one coloring, scores it, or finds no leaf
    # when symmetry breaking cuts it
    canonical = canonical_relabeling(coloring)
    best, colors, leaves = _canonical_search(coloring.n, coloring.k, h, [(c,) for c in canonical.colors])
    assert leaves == 1
    assert (best, colors) == (nim_edges(coloring, h).count, canonical.colors)


class TestDeltaEvaluation:
    @settings(max_examples=150, deadline=None)
    @given(colorings(), st.sampled_from(PROPERTY_PATTERNS), st.integers(-2, 1))
    @example(EdgeColoring(7, 2, (1, 1, 0, 1, 1, 1, 0, 0, 0, 1, 0, 1, 1, 0, 1, 0, 0, 0, 0, 0, 1)), C5, -2)
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


class TestCompare:
    def test_zero_gap_for_small_p3(self):
        r = exhaustive_f(5, 2, P3)
        ex = turan_value(r.n, P3)
        assert ex.value == 2
        assert turan_gap(ex, r.k, r.best_count) == 0

    def test_tail_gap_is_the_block_clique(self):
        h = parse_pattern("dstar:3+path:6")
        seed, _ = tail_coloring_for(20, h)
        r = hill_climb_f(20, 2, h, iterations=0, restarts=1, seed_coloring=seed)
        ex = turan_value(r.n, h)
        assert ex.value == 75
        assert turan_gap(ex, r.k, r.best_count) == 10  # C(5,2)
        assert ex.below_threshold

    def test_p2k_gap_matches_added_cliques(self):
        seed, _ = p2k_multicoloring(13, 2)
        r = hill_climb_f(13, 4, P4, iterations=0, restarts=1, seed_coloring=seed)
        ex = turan_value(r.n, P4)
        assert (r.k - 1) * ex.value == 3 * 12
        assert turan_gap(ex, r.k, r.best_count) == 3  # (k-1) * C(2k-1, 2) with k = 2

    def test_star_uses_oracle(self):
        r = exhaustive_f(5, 2, make_star(3))
        assert turan_value(r.n, make_star(3)).method == "oracle"
