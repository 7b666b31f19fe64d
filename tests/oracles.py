"""Independent brute-force oracles used to freeze expected test values.

Everything here enumerates rather than searches: injections via
itertools.permutations, matchings via edge-subset recursion, maxima via
all 2^m edge subsets.  None of it touches the package's embedding engine,
so agreement is a meaningful cross-check.  Sizes are tiny by design.

The one exception is `hill_climb_recount`, the climber's full-recount
loop: it scores every candidate with a fresh `nim_edges` count and is the
reference for the delta-evaluated `hill_climb_f`.
"""

import random
import time
from itertools import combinations, permutations
from typing import Optional

from nimcolor.graphs import EdgeColoring, SimpleGraph, all_pairs, complete_edge_count, edge_index
from nimcolor.nim import nim_edges
from nimcolor.patterns import PatternGraph
from nimcolor.search import SearchResult


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
