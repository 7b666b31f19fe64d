"""Exact and heuristic maximization of the NIM count over all k-colorings.

`exhaustive_f` reports the true maximum.  It enumerates the k-colorings
of E(K_n) that are canonical under vertex and color relabeling (both
preserve the NIM count, so this loses nothing for the maximum): the first
edge (0, 1) has color 0, vertex 0 has the largest class-0 degree, vertex 1
is a class-0 neighbour of vertex 0, and vertices 2..n-1 come in
non-increasing class-0 degree.  A sound branch-and-bound cut tracks edges
already provably covered by a monochromatic copy among the edges colored
so far: classes only grow along a branch, so covered edges stay covered,
and a branch whose uncovered budget cannot beat the best is dropped.
Leaves are scored by the real NIM counter.

`hill_climb_f` is the heuristic companion for sizes enumeration cannot
reach: steepest-ascent single-edge recoloring with fully deterministic
tie-breaking, restarted from seeded random colorings or from a
construction.  Candidates are scored by delta evaluation, not by a fresh
NIM count: recoloring e from c to c' changes only classes c and c', so
the climber requeries just the edges whose cover witness used e (in c)
and the NIM edges of c' not yet covered by a copy through e, stopping
once the candidate cannot beat the best move so far.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import ResourceLimitError
from .graphs import EdgeColoring, SimpleGraph, _bits, all_pairs, complete_edge_count
from .nim import DEFAULT_MAX_N, DEFAULT_MAX_PATTERN, _cover_pass, _find_through, nim_edges
from .patterns import PatternGraph
from .turan import TuranResult

DEFAULT_LEAF_BUDGET = 1 << 20
HILL_MAX_N = 40


@dataclass(frozen=True)
class SearchResult:
    n: int
    k: int
    pattern: str
    best_count: int
    witness: EdgeColoring
    method: str  # exhaustive | hill_climb
    exhaustive: bool
    colorings_examined: int
    elapsed: float

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "pattern": self.pattern,
            "best_count": self.best_count,
            "method": self.method,
            "exhaustive": self.exhaustive,
            "colorings_examined": self.colorings_examined,
            "elapsed": self.elapsed,
            "witness": self.witness.to_dict(),
        }


def exhaustive_f(
    n: int,
    k: int,
    h: PatternGraph,
    *,
    budget: int = DEFAULT_LEAF_BUDGET,
) -> SearchResult:
    """Exact maximum NIM count over all k-colorings of E(K_n).

    Only canonical colorings are enumerated.  Every coloring has a relabeling
    of its colors and vertices in which edge (0, 1) has color 0, vertex 0
    has the largest class-0 degree, vertex 1 has the largest class-0 degree
    among the class-0 neighbours of vertex 0, and vertices 2..n-1 are sorted
    by class-0 degree, non-increasing, class-0 neighbours of vertex 0 first
    among equal degrees.  The search enforces these rules in the canonical
    edge order: when row u starts, the degrees of 0..u-1 are final and cap
    the degree of every later vertex, so color 0 is skipped on an edge that
    would push an end past its cap.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if n > DEFAULT_MAX_N:
        raise ResourceLimitError(f"exhaustive search limited to n <= {DEFAULT_MAX_N}")
    if h.graph.n > DEFAULT_MAX_PATTERN:
        raise ResourceLimitError(f"exhaustive search limited to pattern order <= {DEFAULT_MAX_PATTERN}")
    m = complete_edge_count(n)
    free = m - (1 if k > 1 else 0)
    if free >= 0 and k**free > budget:
        raise ResourceLimitError(
            f"{k}^{free} colorings exceed budget {budget}; try hill_climb_f"
        )
    started = time.perf_counter()
    if k == 1:  # one coloring, scored directly: the search would recurse once per edge
        colors = (0,) * m
        best, leaves = nim_edges(EdgeColoring(n, k, colors), h).count, 1
    else:
        # color permutations preserve the count, so edge (0, 1) is pinned to color 0
        best, colors, leaves = _canonical_search(n, k, h, [(0,)] + [range(k)] * (m - 1) if m else [])
    elapsed = time.perf_counter() - started
    return SearchResult(n, k, h.spec, best, EdgeColoring(n, k, colors), "exhaustive", True, leaves, elapsed)


def _canonical_search(
    n: int, k: int, h: PatternGraph, choices: Sequence[Sequence[int]]
) -> tuple[int, tuple[int, ...], int]:
    """(best NIM count, its colors, leaves scored) over the canonical colorings
    in which edge e takes a color from choices[e].

    Best is -1, with all colors 0, when no such coloring is canonical.
    """
    m = len(choices)
    pairs = all_pairs(n)
    pattern = h.graph
    colors = [0] * m
    class_adj = [[0] * n for _ in range(k)]
    best = -1
    best_colors: tuple[int, ...] = tuple(colors)
    leaves = 0

    red = class_adj[0]
    caps = [(n, n)] * n  # caps[u] = row_caps(u), set when row u starts

    def row_caps(u: int) -> tuple[int, int]:
        """Caps on the final class-0 degree of any vertex w >= u, rows 0..u-1 done.

        Entry 1 holds when w is a class-0 neighbour of vertex 0, entry 0
        otherwise, so `(red[0] >> w) & 1` picks w's cap.
        """
        cap = hub_cap = red[0].bit_count()
        if u >= 2:
            hub_cap = min(cap, red[1].bit_count())
        if u >= 3:
            last = red[u - 1].bit_count()
            cap = min(cap, last)
            hub_cap = min(hub_cap, last - (not (red[0] >> (u - 1)) & 1))
        return cap, hub_cap

    def rec(idx: int, covered: int) -> None:
        nonlocal best, best_colors, leaves
        if m - covered.bit_count() <= best:
            return
        if idx == m:
            # row n-1 has no edges, so the last vertex is checked here
            if n >= 2 and red[n - 1].bit_count() > row_caps(n - 1)[(red[0] >> (n - 1)) & 1]:
                return
            leaves += 1
            report = nim_edges(EdgeColoring(n, k, tuple(colors)), h)
            if report.count > best:
                best = report.count
                best_colors = tuple(colors)
            return
        u, v = pairs[idx]
        if v == u + 1 and u >= 1:
            # row u is starting: the degrees of 0..u-1 are final, and u's can only grow
            caps[u] = row_caps(u)
            if red[u].bit_count() > caps[u][(red[0] >> u) & 1]:
                return
        bu, bv = 1 << u, 1 << v
        # from row 1 on, color 0 on (u, v) must leave both degrees within their caps
        red_ok = u == 0 or (
            red[u].bit_count() < caps[u][(red[0] >> u) & 1]
            and red[v].bit_count() < caps[u][(red[0] >> v) & 1]
        )
        for c in choices[idx]:
            if c == 0 and not red_ok:
                continue
            colors[idx] = c
            adj = class_adj[c]
            adj[u] |= bv
            adj[v] |= bu
            witness = _find_through(adj, n, pattern, u, v)
            rec(idx + 1, covered if witness is None else covered | witness)
            adj[u] &= ~bv
            adj[v] &= ~bu
        colors[idx] = 0

    rec(0, 0)
    return best, best_colors, leaves


def hill_climb_f(
    n: int,
    k: int,
    h: PatternGraph,
    *,
    seed: int = 0,
    iterations: int = 50,
    restarts: int = 1,
    seed_coloring: Optional[EdgeColoring] = None,
) -> SearchResult:
    """Steepest-ascent local search over single-edge recolorings.

    Start 0 uses `seed_coloring` when given (a construction seed), all other
    starts draw random colorings from random.Random(seed).  Each step picks
    the recoloring with the largest NIM gain, ties broken by lowest edge
    index then lowest color, and stops at a local optimum or after
    `iterations` steps.  Candidates are scored by delta evaluation against
    a `_NimState` of the current coloring, rebuilt once per accepted move.
    Fully deterministic for fixed arguments.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if n > HILL_MAX_N:
        raise ResourceLimitError(f"hill climb limited to n <= {HILL_MAX_N}")
    if restarts < 1:
        raise ValueError("need at least one start")
    if seed_coloring is not None and (seed_coloring.n != n or seed_coloring.k != k):
        raise ValueError("seed coloring does not match n, k")
    pattern = h.graph
    if pattern.n < 2:
        raise ValueError("pattern needs at least 2 vertices")
    if pattern.n > DEFAULT_MAX_PATTERN:
        raise ResourceLimitError(f"hill climb limited to pattern order <= {DEFAULT_MAX_PATTERN}")
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
        state = _NimState(current, pattern)
        score = state.score
        examined += 1
        for _ in range(iterations):
            move = None  # (score, edge, color)
            for e in range(m) if k > 1 else ():  # one color leaves no move
                old = current.colors[e]
                base = score + state.loss(e)
                for c in range(k):
                    if c == old:
                        continue
                    bar = score if move is None else move[0]  # what a move must beat
                    cand_score = base + state.gain(e, c, bar - base)
                    examined += 1
                    if cand_score > bar:
                        move = (cand_score, e, c)
            if move is None:
                break
            score = move[0]
            current = current.recolored(move[1], move[2])
            state = _NimState(current, pattern)
            assert state.score == score, "delta score disagrees with the rebuilt NIM state"
        if score > best:
            best = score
            best_witness = current

    elapsed = time.perf_counter() - started
    assert best_witness is not None
    return SearchResult(
        n, k, h.spec, best, best_witness, "hill_climb", False, examined, elapsed
    )


class _NimState:
    """The NIM edges of one coloring, kept for scoring single-edge recolorings.

    Built from one `_cover_pass`, the pass `nim_edges` makes: `adj` is the
    class adjacency, `nim` the NIM edge mask and `class_nim[c]` the NIM
    edges of class c in canonical order.  `dependents[f]` is the bitmask of
    edges whose cover witness contains f, the cover witness of an edge
    being the copy that first covered it.  Recoloring edge e from class c
    to class c' changes only those two classes, so its new NIM count is
    `score + loss(e) + gain(e, c')`.  `gain` requeries the NIM edges of c'
    that no copy through e covers yet, in `class_nim[c']` order.
    """

    def __init__(self, coloring: EdgeColoring, pattern: SimpleGraph):
        self.n, self.pattern = coloring.n, pattern
        self.colors = coloring.colors
        self.pairs = all_pairs(coloring.n)
        self.adj, self.nim, copies = _cover_pass(coloring, pattern)
        self.dependents = dependents = [0] * len(self.pairs)
        for witness, fresh in copies:
            for f in _bits(witness):
                dependents[f] |= fresh
        self.class_nim: list[list[int]] = [[] for _ in range(coloring.k)]
        for e in _bits(self.nim):
            self.class_nim[self.colors[e]].append(e)
        self.score = self.nim.bit_count()

    def loss(self, e: int) -> int:
        """Change in the NIM count when edge e leaves its class."""
        if (self.nim >> e) & 1:
            return -1  # no copy uses e, so every other edge keeps its witness
        rest = self.dependents[e] & ~(1 << e)
        if not rest:
            return 0
        n, pattern, pairs = self.n, self.pattern, self.pairs
        adj = self.adj[self.colors[e]]
        u, v = pairs[e]
        adj[u] ^= 1 << v
        adj[v] ^= 1 << u
        freed = covered = 0
        for f in _bits(rest):
            if (covered >> f) & 1:
                continue
            x, y = pairs[f]
            witness = _find_through(adj, n, pattern, x, y)
            if witness is None:
                freed += 1
            else:
                covered |= witness
        adj[u] ^= 1 << v
        adj[v] ^= 1 << u
        return freed

    def gain(self, e: int, c: int, floor: float = -math.inf) -> int:
        """Change in the NIM count when class c (not e's own) gains edge e.

        The answer is exact when it exceeds `floor`; otherwise some value at
        most `floor` comes back, so requeries stop once the change is known
        not to beat it.
        """
        if floor >= 1:
            return 1  # a gain never adds more than e itself
        n, pattern, pairs = self.n, self.pattern, self.pairs
        adj = self.adj[c]
        u, v = pairs[e]
        bu, bv = 1 << u, 1 << v
        adj[u] |= bv
        adj[v] |= bu
        witness = _find_through(adj, n, pattern, u, v)
        if witness is None:
            delta = 1  # every new copy would go through e, so nothing else changes
        else:
            nim = self.nim & ~(1 << e)  # e is NIM, if at all, in its own class only
            covered = witness
            delta = -(covered & nim).bit_count()
            for f in self.class_nim[c]:
                if delta <= floor:
                    break
                if (covered >> f) & 1:
                    continue
                x, y = pairs[f]
                found = _find_through(adj, n, pattern, x, y)
                if found is not None:
                    covered |= found
                    delta = -(covered & nim).bit_count()
        adj[u] ^= bv
        adj[v] ^= bu
        return delta


def turan_gap(ex: TuranResult, k: int, best_count: int) -> int:
    """The gap best_count - (k-1) ex(n, H), given ex(n, H)."""
    return best_count - (k - 1) * ex.value
