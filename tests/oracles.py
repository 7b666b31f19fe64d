"""Independent brute-force oracles used to freeze expected test values.

Everything here enumerates rather than searches: injections via
itertools.permutations, matchings via edge-subset recursion, maxima via
all 2^m edge subsets.  None of it touches the package's embedding engine,
so agreement is a meaningful cross-check.  Sizes are tiny by design.

The exceptions are earlier versions of the package's own searches, kept
as references for the faster ones: `hill_climb_recount`, the climber's
full-recount loop, scores every candidate with a fresh `nim_edges` count;
`turan_oracle_edge_bound` and `exhaustive_f_first_edge_pin` are the two
branch-and-bound recursions before the degree-sum bound and the class-0
degree-order symmetry were added; `turan_oracle_plain` is `turan_oracle`'s
recursion before it stored found copies, which queries every edge it
tries to include, with the same vertex rules (each row a prefix inside
each block, the later vertices with one adjacency to the earlier ones,
and each vertex within its cap): the oracle must return
its maximum, witness rows and node count exactly; `canonical_search_plain`
is `exhaustive_f`'s recursion with the same vertex rules on class 0 but
before forward checking.  It queries every colored edge, bounds by
covered edges alone and applies the color rules (`keeps_color_rules`) to
its leaves only, never as a cut: the search must return its maximum and
witness colors exactly.  Both take each vertex's cap and each row's
prefix afresh from `vertex_cap` and `prefix_ok`, written from the rules'
definition apart from the package's `_row_caps`: w is capped by deg(p)
for the last p < u whose block holds w;
`cover_pass_per_edge` is the cover pass before class components and
twin groups, with one query per uncovered edge: the pass's NIM mask
must equal its own;
`find_through_all_plans` is the anchored query before automorphism
orbits and the last-vertex shortcut, trying a plan for every oriented
pattern edge and every candidate at every position: the query must
return its copy mask, bit for bit, or None with it.  `twin_classes`
reads the cover pass's twin classes as one class name per vertex.
`colored_twin_orbits` gives the edge orbits under every vertex
transposition that keeps all colors, found by trying each on every edge.
`coloring_error_scan` is `EdgeColoring`'s validation before each check
became one C-level pass, one element at a time: the constructor and
`from_dict` must raise its message; `verify_layout_per_edge` is
`verify_layout` before per-vertex row masks, tagging every U-edge with
the cliques that cover it: the two must return equal reports.
`class_rows_per_edge` is `EdgeColoring.class_adjacency` before the
coloring kept its rows and built them by the byte-matrix pass, one step
per edge over `all_pairs`: the rows every coloring builds must equal it.
`construction_colors_per_edge` colors each edge of a construction from
its definition, one pair at a time (p2k by the modular arithmetic of its
cliques, not by walking the layout's tables): each builder's colors must
equal it.
`nim_edges_anchored` is the reference NIM counter, with its own
separately coded embedding search, and `is_isomorphic` a backtracking
isomorphism test.  `degree_sequence`, `relabel_colors` and `lemma_gap`
(both sides of the shift inequality behind the path formula) are small
helpers that only the tests call.
"""

import random
import time
from functools import lru_cache
from itertools import combinations, permutations
from math import comb
from typing import Optional, Sequence

from nimcolor.constructions import LayoutReport, P2kConstructionLayout
from nimcolor.errors import ResourceLimitError
from nimcolor.graphs import EdgeColoring, SimpleGraph, _bits, all_pairs, complete_edge_count, edge_index
from nimcolor.nim import NimReport, _anchor_plan, _find_through, _Plan, _query_plans, _twin_members, nim_edges
from nimcolor.patterns import PatternGraph, _as_graph, pattern_spec
from nimcolor.search import SearchResult
from nimcolor.turan import ex_path


def contains_brute(g: SimpleGraph, h: SimpleGraph) -> bool:
    return any(True for _ in _embeddings(g, h))


def _embeddings(g: SimpleGraph, h: SimpleGraph):
    """Yield every injective edge-preserving map as a tuple (image of 0..h.n-1)."""
    if h.n > g.n:
        return
    pat_edges = list(h.edges())
    for verts in combinations(range(g.n), h.n):
        for image in permutations(verts):
            if all(g.has_edge(image[u], image[v]) for u, v in pat_edges):
                yield image


def covered_edges_brute(g: SimpleGraph, h: SimpleGraph) -> set[int]:
    """Canonical indices of all g-edges used by at least one copy of h."""
    covered = set()
    for image in _embeddings(g, h):
        for u, v in h.edges():
            covered.add(edge_index(image[u], image[v], g.n))
    return covered


def nim_brute(coloring: EdgeColoring, h: SimpleGraph) -> set[int]:
    """NIM edges straight from the definition."""
    nim = set(range(len(coloring.colors)))
    for i in range(coloring.k):
        nim -= covered_edges_brute(coloring.color_class(i), h)
    return nim


def tail_expected_nim_indices(n: int, a: int) -> list[int]:
    """NIM set of `tail_forest_coloring(n, a)`: the red bipartite edges plus
    the blue X-clique, i.e. all pairs meeting 0..2a-2."""
    x_size = 2 * a - 1
    out = []
    idx = 0
    for u in range(n):
        for v in range(u + 1, n):
            if u < x_size:
                out.append(idx)
            idx += 1
    return out


def is_isomorphic(g: SimpleGraph, h: SimpleGraph) -> bool:
    """Isomorphism test: invariant filtering plus backtracking.

    Meant for test-sized graphs (tens of vertices); refines vertex classes by
    iterated degree profiles before searching, no canonical forms involved.
    """
    if g.n != h.n or g.edge_count != h.edge_count:
        return False
    if degree_sequence(g) != degree_sequence(h):
        return False

    def refine(graph: SimpleGraph) -> list[int]:
        colors = [graph.degree(v) for v in range(graph.n)]
        for _ in range(graph.n):
            keys = [
                (colors[v], tuple(sorted(colors[w] for w in graph.neighbors(v))))
                for v in range(graph.n)
            ]
            lut = {key: i for i, key in enumerate(sorted(set(keys)))}
            new = [lut[k] for k in keys]
            if new == colors:
                break
            colors = new
        return colors

    gc, hc = refine(g), refine(h)
    if sorted(gc) != sorted(hc):
        return False
    # map most-constrained g-vertices first
    order = sorted(range(g.n), key=lambda v: (gc.count(gc[v]), -g.degree(v)))
    image = [-1] * g.n
    used = [False] * h.n

    def place(i: int) -> bool:
        if i == g.n:
            return True
        u = order[i]
        for w in range(h.n):
            if used[w] or hc[w] != gc[u]:
                continue
            ok = True
            for q in order[:i]:
                if g.has_edge(u, q) != h.has_edge(w, image[q]):
                    ok = False
                    break
            if ok:
                image[u] = w
                used[w] = True
                if place(i + 1):
                    return True
                used[w] = False
        return False

    return place(0)


def perfect_matchings_brute(g: SimpleGraph) -> int:
    """Count perfect matchings by recursion over the lowest uncovered vertex."""
    if g.n % 2 == 1:
        return 0

    def rec(free: int) -> int:
        if free == 0:
            return 1
        v = (free & -free).bit_length() - 1
        total = 0
        nbrs = g.adj[v] & free
        while nbrs:
            b = nbrs & -nbrs
            nbrs ^= b
            total += rec(free & ~(1 << v) & ~b)
        return total

    return rec((1 << g.n) - 1)


def max_pattern_free_edges_brute(n: int, h: SimpleGraph) -> int:
    """Max edges of an h-free graph on n vertices, by trying all edge subsets."""
    pairs = all_pairs(n)
    m = len(pairs)
    best = 0
    for mask in range(1 << m):
        count = mask.bit_count()
        if count <= best:
            continue
        g = SimpleGraph.from_edges(n, [pairs[i] for i in range(m) if (mask >> i) & 1])
        if not contains_brute(g, h):
            best = count
    return best


def tails_brute(g: SimpleGraph) -> set[tuple[int, int, int]]:
    """Every ordered triple satisfying the tail degree conditions, by full scan."""
    out = set()
    for v0 in range(g.n):
        for v1 in range(g.n):
            for v2 in range(g.n):
                if len({v0, v1, v2}) != 3:
                    continue
                if not (g.has_edge(v0, v1) and g.has_edge(v1, v2)):
                    continue
                if g.degree(v2) == 1 and g.degree(v1) == 2:
                    out.add((v0, v1, v2))
    return out


def hill_climb_recount(
    n: int,
    k: int,
    h: PatternGraph,
    *,
    seed: int = 0,
    iterations: int = 50,
    restarts: int = 1,
    seed_coloring: Optional[EdgeColoring] = None,
) -> SearchResult:
    """`hill_climb_f` as it was before delta evaluation: one recount per candidate."""
    started = time.perf_counter()
    rng = random.Random(seed)
    m = complete_edge_count(n)
    best = -1
    best_witness: Optional[EdgeColoring] = None
    examined = 0

    for r in range(restarts):
        if r == 0 and seed_coloring is not None:
            current = seed_coloring
        else:
            current = EdgeColoring.random(n, k, rng)
        score = nim_edges(current, h).count
        examined += 1
        for _ in range(iterations):
            move = None  # (gain, edge, color, coloring, score)
            for e in range(m):
                old = current.colors[e]
                for c in range(k):
                    if c == old:
                        continue
                    cand = current.recolored(e, c)
                    cand_score = nim_edges(cand, h).count
                    examined += 1
                    if cand_score > score and (move is None or cand_score > move[0]):
                        move = (cand_score, e, c, cand)
            if move is None:
                break
            score, current = move[0], move[3]
        if score > best:
            best = score
            best_witness = current

    elapsed = time.perf_counter() - started
    assert best_witness is not None
    return SearchResult(
        n, k, h.spec, best, best_witness, "hill_climb", False, examined, elapsed
    )


def colored_twin_orbits(coloring: EdgeColoring) -> list[frozenset[int]]:
    """The edge orbits of the group that the color-preserving vertex
    transpositions generate, as sets of edge indices in order of their least.

    Every transposition (x y) is tried on every edge; the orbits are the
    components of the edges joined to their images under those kept.
    """
    n, colors = coloring.n, coloring.colors
    swaps = []
    for x, y in combinations(range(n), 2):
        swap = list(range(n))
        swap[x], swap[y] = y, x
        image = [edge_index(*sorted((swap[u], swap[v])), n) for u, v in all_pairs(n)]
        if all(colors[image[e]] == colors[e] for e in range(len(colors))):
            swaps.append(image)
    orbit = list(range(len(colors)))  # each edge's orbit, named by an edge in it

    def find(e: int) -> int:
        while orbit[e] != e:
            e = orbit[e]
        return e

    for image in swaps:
        for e, f in enumerate(image):
            a, b = find(e), find(f)
            orbit[max(a, b)] = min(a, b)
    orbits: dict[int, set[int]] = {}
    for e in range(len(colors)):
        orbits.setdefault(find(e), set()).add(e)
    return [frozenset(orbits[e]) for e in sorted(orbits)]


def turan_oracle_edge_bound(n: int, pattern: SimpleGraph) -> tuple[int, SimpleGraph]:
    """`turan_oracle`'s search before the degree-sum bound: (maximum, witness)."""
    m = complete_edge_count(n)
    pairs = all_pairs(n)
    offsets, plans = _query_plans(pattern, n)
    adj = [0] * n
    best = -1
    best_adj: tuple[int, ...] = tuple(adj)

    def rec(idx: int, count: int) -> None:
        nonlocal best, best_adj
        if count + (m - idx) <= best:
            return
        if idx == m:
            if n >= 2 and adj[n - 1].bit_count() > adj[n - 2].bit_count():
                return
            if n >= 3 and adj[n - 2].bit_count() > adj[n - 3].bit_count():
                return
            best = count
            best_adj = tuple(adj)
            return
        u, v = pairs[idx]
        if v == u + 1 and u >= 2:
            # row u is starting, so deg(u-1) is final: enforce sortedness
            if adj[u - 1].bit_count() > adj[u - 2].bit_count():
                return
        # include first so good solutions tighten the bound early
        bu, bv = 1 << u, 1 << v
        if u == 0 or adj[u].bit_count() < adj[u - 1].bit_count():
            adj[u] |= bv
            adj[v] |= bu
            if _find_through(adj, offsets, plans, u, v) is None:
                rec(idx + 1, count + 1)
            adj[u] &= ~bv
            adj[v] &= ~bu
        rec(idx + 1, count)

    rec(0, 0)
    return best, SimpleGraph(n, best_adj)


def vertex_cap(rows: Sequence[int], u: int, w: int) -> int:
    """The vertex rules' cap on the final degree of vertex w >= u in the
    graph with adjacency masks `rows`, rows 0..u-1 done: deg(p) for the
    last p < u whose block holds w (p's adjacency to 0..p-1 equals w's),
    or n while row 0 runs."""
    for p in reversed(range(u)):
        low = (1 << p) - 1
        if rows[p] & low == rows[w] & low:
            return rows[p].bit_count()
    return len(rows)


def prefix_ok(rows: Sequence[int], u: int, v: int) -> bool:
    """Whether edge (u, v), v > u, may be in: row u is a prefix inside each
    block, the vertices past u with one adjacency to 0..u-1, so (u, v) is in
    only if v - 1 is u or outside v's block, or (u, v - 1) is in."""
    low = (1 << u) - 1
    return v - 1 == u or rows[v - 1] & low != rows[v] & low or bool(rows[u] >> (v - 1) & 1)


def turan_oracle_plain(n: int, pattern: SimpleGraph) -> tuple[int, tuple[int, ...], int]:
    """`turan_oracle`'s search before it stored found copies, verbatim but
    for the count: (maximum, witness rows, includes), includes counting the
    include branches taken plus the root.  Every exclusion step follows
    from them and the bounds, so they fix the search tree."""
    m = complete_edge_count(n)
    pairs = all_pairs(n)
    offsets, plans = _query_plans(pattern, n)
    adj = [0] * n
    best = -1
    best_adj: tuple[int, ...] = tuple(adj)
    includes = 1

    def rec(idx: int, count: int) -> None:
        nonlocal best, best_adj, includes
        if count + (m - idx) <= best:
            return
        if idx == m:
            if n >= 2 and adj[n - 1].bit_count() > vertex_cap(adj, n - 1, n - 1):
                return
            best = count
            best_adj = tuple(adj)
            return
        u, v = pairs[idx]
        # where row u starts, the degrees of 0..u-1 are final and u's can only grow
        if v == u + 1 and adj[u].bit_count() > vertex_cap(adj, u, u):
            return
        # no later degree exceeds its cap; best can rise within a row
        done = sum(adj[p].bit_count() for p in range(u))
        if (done + sum(vertex_cap(adj, u, w) for w in range(u, n))) // 2 <= best:
            return
        # include first so good solutions tighten the bound early
        bu, bv = 1 << u, 1 << v
        if adj[u].bit_count() < vertex_cap(adj, u, u) and prefix_ok(adj, u, v):
            adj[u] |= bv
            adj[v] |= bu
            if _find_through(adj, offsets, plans, u, v) is None:
                includes += 1
                rec(idx + 1, count + 1)
            adj[u] &= ~bv
            adj[v] &= ~bu
        rec(idx + 1, count)

    rec(0, 0)
    return best, best_adj, includes


def exhaustive_f_first_edge_pin(n: int, k: int, h: PatternGraph) -> tuple[int, EdgeColoring]:
    """`exhaustive_f`'s search before class-0 symmetry breaking: (maximum, witness)."""
    m = complete_edge_count(n)
    pairs = all_pairs(n)
    pattern = h.graph
    offsets, plans = _query_plans(pattern, n)
    colors = [0] * m
    class_adj = [[0] * n for _ in range(k)]
    best = -1
    best_colors: tuple[int, ...] = tuple(colors)
    leaves = 0

    def rec(idx: int, covered: int) -> None:
        nonlocal best, best_colors, leaves
        if m - covered.bit_count() <= best:
            return
        if idx == m:
            leaves += 1
            report = nim_edges(EdgeColoring(n, k, tuple(colors)), h)
            if report.count > best:
                best = report.count
                best_colors = tuple(colors)
            return
        u, v = pairs[idx]
        bu, bv = 1 << u, 1 << v
        # color permutations preserve the count
        for c in (0,) if idx == 0 and k > 1 else range(k):
            colors[idx] = c
            adj = class_adj[c]
            adj[u] |= bv
            adj[v] |= bu
            witness = _find_through(adj, offsets, plans, u, v)
            rec(idx + 1, covered if witness is None else covered | witness)
            adj[u] &= ~bv
            adj[v] &= ~bu
        colors[idx] = 0

    rec(0, 0)
    return best, EdgeColoring(n, k, best_colors)


def canonical_search_plain(
    n: int, k: int, h: PatternGraph, choices: Sequence[Sequence[int]]
) -> tuple[int, tuple[int, ...], int]:
    """(best NIM count, its colors, leaves scored) over the canonical colorings
    in which edge e takes a color from choices[e].

    Best is -1, with all colors 0, when no such coloring is canonical.
    """
    m = len(choices)
    pairs = all_pairs(n)
    pattern = h.graph
    offsets, plans = _query_plans(pattern, n)
    colors = [0] * m
    class_adj = [[0] * n for _ in range(k)]
    best = -1
    best_colors: tuple[int, ...] = tuple(colors)
    leaves = 0

    red = class_adj[0]

    def rec(idx: int, covered: int) -> None:
        nonlocal best, best_colors, leaves
        if m - covered.bit_count() <= best:
            return
        if idx == m:
            # row n-1 has no edges, so the last vertex is checked here
            if n >= 2 and red[n - 1].bit_count() > vertex_cap(red, n - 1, n - 1):
                return
            if not keeps_color_rules(n, k, colors):
                return
            leaves += 1
            report = nim_edges(EdgeColoring(n, k, tuple(colors)), h)
            if report.count > best:
                best = report.count
                best_colors = tuple(colors)
            return
        u, v = pairs[idx]
        # where row u starts, the degrees of 0..u-1 are final and u's can only grow
        if v == u + 1 and red[u].bit_count() > vertex_cap(red, u, u):
            return
        bu, bv = 1 << u, 1 << v
        # color 0 on (u, v) keeps row u a prefix in each block and both degrees within their caps
        red_ok = prefix_ok(red, u, v) and red[u].bit_count() < vertex_cap(red, u, u)
        red_ok = red_ok and red[v].bit_count() < vertex_cap(red, u, v)
        for c in choices[idx]:
            if c == 0 and not red_ok:
                continue
            colors[idx] = c
            adj = class_adj[c]
            adj[u] |= bv
            adj[v] |= bu
            witness = _find_through(adj, offsets, plans, u, v)
            rec(idx + 1, covered if witness is None else covered | witness)
            adj[u] &= ~bv
            adj[v] &= ~bu
        colors[idx] = 0

    rec(0, 0)
    return best, best_colors, leaves


def keeps_color_rules(n: int, k: int, colors: Sequence[int]) -> bool:
    """Whether a coloring of E(K_n) keeps `exhaustive_f`'s two color rules:
    no vertex has a larger degree in any class than vertex 0 in class 0,
    and colors 1..k-1 are first used in increasing order along the
    canonical edge order."""
    degrees = [[0] * n for _ in range(k)]
    used = 0
    for (u, v), c in zip(all_pairs(n), colors):
        if c > used + 1:
            return False
        used = max(used, c)
        degrees[c][u] += 1
        degrees[c][v] += 1
    return n == 0 or max(map(max, degrees)) <= degrees[0][0]


@lru_cache(maxsize=None)
def anchor_plans_all(g: SimpleGraph) -> tuple[_Plan, ...]:
    """`_anchor_plans` before orbit dedupe: one plan per (pattern edge, orientation)."""
    return tuple(_anchor_plan(g, a, b) for x, y in g.edges() for a, b in ((x, y), (y, x)))


def search_every_candidate(adj: Sequence[int], full: int, plan: _Plan, img: list[int], used: int, pos: int) -> bool:
    """The search of one plan, as nim.py compiles it, before the last-vertex shortcut."""
    prev, degrees = plan.prev, plan.degrees
    h = len(prev)
    if pos == h:
        return True
    nbrs = prev[pos]
    if nbrs:
        cand = adj[img[nbrs[0]]]
        for q in nbrs[1:]:
            cand &= adj[img[q]]
        cand &= ~used
    else:
        cand = full & ~used
    need = degrees[pos]
    kept: list[int] = []
    while cand:
        b = cand & -cand
        cand ^= b
        w = b.bit_length() - 1
        aw = adj[w]
        if aw.bit_count() < need:
            continue
        twin = False
        for r in kept:
            if not (aw ^ adj[r]) & ~(b | (1 << r)):
                twin = True
                break
        if twin:
            continue
        kept.append(w)
        img[pos] = w
        if search_every_candidate(adj, full, plan, img, used | b, pos + 1):
            return True
    return False


def find_through_all_plans(adj: Sequence[int], n: int, pattern: SimpleGraph, u: int, v: int) -> Optional[int]:
    """`_find_through` before orbit dedupe: every plan of `anchor_plans_all` in turn."""
    if pattern.n > n:
        return None
    full = (1 << n) - 1
    bu, bv = 1 << u, 1 << v
    du, dv = adj[u].bit_count(), adj[v].bit_count()
    img = [0] * pattern.n
    for plan in anchor_plans_all(pattern):
        if du < plan.degrees[0] or dv < plan.degrees[1]:
            continue
        img[0], img[1] = u, v
        if search_every_candidate(adj, full, plan, img, bu | bv, 2):
            witness = 0
            for p, q in plan.edges:
                witness |= 1 << edge_index(img[p], img[q], n)
            return witness
    return None


def degree_sequence(g: SimpleGraph) -> tuple[int, ...]:
    """The vertex degrees of g, largest first."""
    return tuple(sorted((row.bit_count() for row in g.adj), reverse=True))


def relabel_colors(coloring: EdgeColoring, sigma: Sequence[int]) -> EdgeColoring:
    """The coloring with color c renamed sigma[c] on every edge."""
    return EdgeColoring(coloring.n, coloring.k, tuple(sigma[c] for c in coloring.colors))


def lemma_gap(n1: int, n2: int, c: int, length: int) -> tuple[int, int]:
    """Both sides of the strict inequality
    ex(n1,P) + ex(n2,P) < ex(n1-c,P) + ex(n2+c+length,P)."""
    if min(n1, n2, c) < 0 or n1 - c < 0:
        raise ValueError("arguments must be >= 0 with n1 - c >= 0")
    if length < 2:
        raise ValueError("path length must be >= 2")
    lhs = ex_path(n1, length).value + ex_path(n2, length).value
    rhs = ex_path(n1 - c, length).value + ex_path(n2 + c + length, length).value
    return lhs, rhs


def class_rows_per_edge(coloring: EdgeColoring) -> list[list[int]]:
    """Bitset rows of every color class, one edge at a time: entry [c][v] is
    v's class-c row."""
    adj = [[0] * coloring.n for _ in range(coloring.k)]
    for (u, v), c in zip(all_pairs(coloring.n), coloring.colors):
        adj[c][u] |= 1 << v
        adj[c][v] |= 1 << u
    return adj


def twin_classes(rows: Sequence[int]) -> list[int]:
    """Each vertex's twin class, named by its first member (`_twin_members`)."""
    twin = [0] * len(rows)
    for t, mask in enumerate(_twin_members(rows)[0]):
        for v in _bits(mask):
            twin[v] = t
    return twin


def cover_pass_per_edge(
    coloring: EdgeColoring, pattern: SimpleGraph
) -> tuple[list[list[int]], int, list[tuple[int, int]]]:
    """One cover pass: (class adjacency, NIM edge mask, copies found).

    Each copy is recorded as (witness, fresh): the mask of its edges and
    the mask of those it was the first to cover.
    """
    n = coloring.n
    pairs = all_pairs(n)
    offsets, plans = _query_plans(pattern, n)
    adj = coloring.class_adjacency()
    nim = covered = 0
    copies = []
    for e, c in enumerate(coloring.colors):
        if (covered >> e) & 1:
            continue
        u, v = pairs[e]
        witness = _find_through(adj[c], offsets, plans, u, v)
        if witness is None:
            nim |= 1 << e
        else:
            copies.append((witness, witness & ~covered))
            covered |= witness
    return adj, nim, copies


def construction_colors_per_edge(family: str, n: int, param) -> list[int]:
    """The colors of a construction of K_n, in canonical order, each edge's
    from the family's definition: `param` is k for "p2k", a for "tail" and
    the red graph for "overlay".

    p2k: with q = 2k - 1, vertex (r - 1)q + (c - 1) of U is cell [r, c];
    cells in two rows r < s lie on the clique sigma[j][i] with
    j = (c_s - c_r)/(s - r) and i = c_r - (r - 1)j (mod q, in 1..q), colored
    2k - 1 when i = 1 and s <= k and j - 1 otherwise; a cell of row r > k
    lies on the diamond j = (c - 1)/(r - 1) and its edges to W get j - 1;
    every other edge (within a row, rows 1..k to W, within W) gets 2k - 1.
    tail: red (0) between X = 0..2a-2 and the rest, blue (1) within each side.
    overlay: red (0) on the red graph's edges, blue (1) elsewhere."""
    if family == "tail":
        x = 2 * param - 1
        return [int((u < x) == (v < x)) for u, v in all_pairs(n)]
    if family == "overlay":
        return [int(not param.has_edge(u, v)) for u, v in all_pairs(n)]
    k = param
    q = last = 2 * k - 1  # the block side, and the catch-all color
    colors = []
    for u, v in all_pairs(n):  # u < v, so u's row is at most v's
        (r, cr), (s, cs) = divmod(u, q), divmod(v, q)  # 0-based rows and columns
        if v < q * q and r < s:
            j = (cs - cr) * pow(s - r, -1, q) % q or q
            i = (cr - r * j) % q + 1
            colors.append(last if i == 1 and s < k else j - 1)
        elif u < q * q <= v and r >= k:
            colors.append((cr * pow(r, -1, q) % q or q) - 1)
        else:
            colors.append(last)
    return colors


def coloring_error_scan(n: int, k: int, colors: Sequence) -> Optional[str]:
    """The message `EdgeColoring(n, k, colors)` raises, or None, by scanning
    one color at a time: first every color's type, as `from_dict` did before
    constructing, then k, the length and every color's range (n >= 0)."""
    for i, c in enumerate(colors):
        if type(c) is not int:
            return f"color {c!r} at edge {i} is not an integer"
    if k < 1:
        return f"k must be >= 1, got {k}"
    m = complete_edge_count(n)
    if len(colors) != m:
        return f"colors length {len(colors)} != {m}"
    for i, c in enumerate(colors):
        if not (0 <= c < k):
            return f"color {c} at edge {i} not in 0..{k - 1}"
    return None


def verify_layout_per_edge(layout: P2kConstructionLayout) -> LayoutReport:
    """`verify_layout`, with U's edge coverage checked by a dict from each
    covered edge to the tags of the cliques that cover it."""
    k, q = layout.k, layout.block
    violations = []
    u_vertices = set(range(q * q))
    row_of = {v: v // q for v in u_vertices}

    for j in range(q):
        for i in range(q):
            verts = layout.sigma[j][i]
            if len(verts) != q or len(set(verts)) != q:
                violations.append(f"sigma[{j + 1}][{i + 1}] is not a {q}-clique vertex set")
                continue
            if sorted(row_of.get(v, -1) for v in verts) != list(range(q)):
                violations.append(f"sigma[{j + 1}][{i + 1}] does not meet every row once")

    coverage: dict[tuple[int, int], list[str]] = {}

    def cover(verts, tag):
        vs = sorted(verts)
        for s in range(len(vs)):
            for t in range(s + 1, len(vs)):
                coverage.setdefault((vs[s], vs[t]), []).append(tag)

    for i, row in enumerate(layout.rows):
        cover(row, f"row{i + 1}")
    for j in range(q):
        for i in range(q):
            cover(layout.sigma[j][i], f"sigma[{j + 1}][{i + 1}]")

    total_u_edges = comb(q * q, 2)
    if len(coverage) != total_u_edges:
        violations.append(f"covered {len(coverage)} distinct U-edges, expected {total_u_edges}")
    multi = [(e, tags) for e, tags in coverage.items() if len(tags) > 1]
    for e, tags in multi[:5]:
        violations.append(f"U-edge {e} covered by {tags}")
    if len(multi) > 5:
        violations.append(f"... and {len(multi) - 5} more multiply covered edges")

    tail_rows = set()
    for i in range(k, q):
        tail_rows.update(layout.rows[i])
    seen: set[int] = set()
    for j in range(q):
        d = set(layout.sigma_diamond[j])
        if len(d) != k - 1:
            violations.append(f"diamond[{j + 1}] has {len(d)} vertices, expected {k - 1}")
        overlap = seen & d
        if overlap:
            violations.append(f"diamond[{j + 1}] overlaps earlier diamonds at {sorted(overlap)}")
        seen |= d
        if not d <= set(layout.sigma[j][0]):
            violations.append(f"diamond[{j + 1}] is not inside sigma[{j + 1}][1]")
    if seen != tail_rows:
        violations.append("diamonds do not exactly cover the last k-1 rows")

    stats = {"u_edges": total_u_edges, "cliques": q + q * q, "w_size": len(layout.w)}
    return LayoutReport(not violations, tuple(violations), stats)


def nim_edges_anchored(coloring: EdgeColoring, h, *, max_n: int = 12) -> NimReport:
    """NIM edges by one independent anchored query per edge.

    Deliberately separate machinery from `nim_edges`: set-based adjacency,
    BFS vertex order seeded at the anchored edge, no degree pruning, no twin
    collapsing, no cover reuse between edges.
    """
    pattern = _as_graph(h)
    if pattern.n < 2:
        raise ValueError("pattern needs at least 2 vertices")
    if coloring.n > max_n:
        raise ResourceLimitError(f"reference NIM oracle limited to n <= {max_n}")
    n, k = coloring.n, coloring.k
    spec = pattern_spec(h)
    pairs = all_pairs(n)
    adj_sets: list[list[set[int]]] = [[set() for _ in range(n)] for _ in range(k)]
    for e, c in enumerate(coloring.colors):
        u, v = pairs[e]
        adj_sets[c][u].add(v)
        adj_sets[c][v].add(u)

    nim = []
    per_color = [0] * k
    for e, c in enumerate(coloring.colors):
        u, v = pairs[e]
        if not _mono_copy_through(adj_sets[c], n, pattern, u, v):
            nim.append(e)
            per_color[c] += 1
    return NimReport(n, k, spec, tuple(nim), len(nim), tuple(per_color))


def _mono_copy_through(adj: list[set[int]], n: int, pattern: SimpleGraph, u: int, v: int) -> bool:
    pat_nbrs = [pattern.neighbors(x) for x in range(pattern.n)]
    for x in range(pattern.n):
        for y in pat_nbrs[x]:
            order = _bfs_order(pattern, x, y)
            if _place(adj, n, pat_nbrs, order, {x: u, y: v}, {u, v}, 2):
                return True
    return False


def _bfs_order(pattern: SimpleGraph, x: int, y: int) -> list[int]:
    order = [x, y]
    seen = {x, y}
    head = 0
    while head < len(order):
        for w in pattern.neighbors(order[head]):
            if w not in seen:
                seen.add(w)
                order.append(w)
        head += 1
    for root in range(pattern.n):
        if root in seen:
            continue
        seen.add(root)
        order.append(root)
        head = len(order) - 1
        while head < len(order):
            for w in pattern.neighbors(order[head]):
                if w not in seen:
                    seen.add(w)
                    order.append(w)
            head += 1
    return order


def _place(adj, n, pat_nbrs, order, image, used, i) -> bool:
    if i == len(order):
        return True
    p = order[i]
    mapped = [image[q] for q in pat_nbrs[p] if q in image]
    for w in range(n):
        if w in used:
            continue
        if all(w in adj[q] for q in mapped):
            image[p] = w
            used.add(w)
            if _place(adj, n, pat_nbrs, order, image, used, i + 1):
                return True
            used.discard(w)
            del image[p]
    return False
