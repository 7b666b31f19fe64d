"""Exact and heuristic maximization of the NIM count over all k-colorings.

`exhaustive_f` reports the true maximum.  It enumerates the k-colorings
of E(K_n) that are canonical under vertex and color relabeling (both
preserve the NIM count, so this loses nothing for the maximum): the first
edge (0, 1) has color 0, vertex 0 has the largest class-0 degree, vertex 1
is a class-0 neighbour of vertex 0, vertices 2..n-1 come in
non-increasing class-0 degree, no vertex has a larger degree in any
class than vertex 0 in class 0, and colors 1..k-1 are first used in
increasing order along the canonical edge order.  Leaves are scored by
the real NIM counter.

The branch-and-bound cut is forward checking.  Classes only grow along a
branch, so an edge in a monochromatic copy stays in one.  The search
counts two kinds of such edges: *covered* ones, colored edges in a copy
found so far, and *forced* ones, uncolored edges that close a copy
through themselves in every class, so a copy will hold them whatever
color they get.  A branch is dropped when m - |covered| - |forced|
cannot beat the best count found.  Forced edges come from one blocked
mask per class, kept exact: bit f of class c's mask is set iff class c
plus edge f has a copy through f.  Bits once set stay set, and when
class c gains an edge only c's unblocked later edges are requeried (for
a star, degrees decide with no query; for k >= 3 one memo keyed by
the class graph holds the copy and the mask each step yields).  An edge
colored where it is unblocked has no copy through it, so only blocked
edges are queried when colored.

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
from .nim import DEFAULT_MAX_N, DEFAULT_MAX_PATTERN, _depth_guard, _edge_walk, _find_through, _guard, nim_edges
from .patterns import PatternGraph, _as_graph, pattern_spec

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
        return {**vars(self), "witness": self.witness.to_dict()}


def exhaustive_f(
    n: int,
    k: int,
    h: PatternGraph,
    *,
    budget: int = DEFAULT_LEAF_BUDGET,
) -> SearchResult:
    """Exact maximum NIM count over all k-colorings of E(K_n).

    Only canonical colorings are enumerated.  The vertex rules: edge (0, 1)
    has color 0, vertex 0 has the largest class-0 degree, vertex 1 has the
    largest class-0 degree among the class-0 neighbours of vertex 0, and
    vertices 2..n-1 are sorted by class-0 degree, non-increasing, class-0
    neighbours of vertex 0 first among equal degrees.  The color rules:
    (a) no class has a vertex whose degree is above vertex 0's class-0
    degree, the top degree; (b) colors 1..k-1 are first used in increasing
    order along the canonical edge order.  Every coloring has a relabeling
    that keeps all of them: give a class of largest top degree color 0,
    relabel the vertices by the vertex rules, then rename colors 1..k-1 by
    first use.  That last step changes neither class 0 nor any degree, so
    the maximum is unchanged.

    The search enforces the rules in the canonical edge order.  When row u
    starts, the class-0 degrees of 0..u-1 are final and cap the degree of
    every later vertex, so color 0 is skipped on an edge that would push
    an end past its cap.  When row 0 ends, vertex 0's degrees are final:
    rule (a) is checked on them, and from then on color c >= 1 is skipped
    on an edge with an end of class-c degree at the top degree already.
    Color c is tried only if it is at most 1 + the largest color used.

    The bound: an uncolored edge that closes a copy through itself in
    every class is forced, since classes only grow; a branch whose
    m - |covered| - |forced| is at most the best count is dropped.
    Each class carries a blocked mask, exact at every node: the uncolored
    edges f such that the class plus f has a copy through f.  Any sound
    bound keeps the first maximal coloring in search order among those
    that keep the rules, so the witness does not depend on how strong the
    bound is.  Rule (b) alone would not move it either: the first maximal
    coloring already uses colors 1..k-1 in first-use order, since its
    first-use renaming is maximal too and comes no later.  Rule (a) is a
    symmetry cut and can move it.
    """
    pattern = _guard("exhaustive search", n, h, DEFAULT_MAX_N, DEFAULT_MAX_PATTERN)
    if k < 1:
        raise ValueError("k must be >= 1")
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    m = complete_edge_count(n)
    free = m - (1 if k > 1 else 0)
    if free >= 0 and k**free > budget:
        raise ResourceLimitError(f"{k}^{free} colorings exceed budget {budget}", "try hill_climb_f")
    if k > 1:
        _depth_guard("exhaustive search", n, pattern)
    started = time.perf_counter()
    if k == 1:  # one coloring, scored directly: the search would recurse once per edge
        colors = (0,) * m
        best, leaves = nim_edges(EdgeColoring(n, k, colors), pattern).count, 1
    else:
        # color permutations preserve the count, so edge (0, 1) is pinned to color 0
        best, colors, leaves = _canonical_search(n, k, pattern, [(0,)] + [range(k)] * (m - 1) if m else [])
    elapsed = time.perf_counter() - started
    return SearchResult(n, k, pattern_spec(h), best, EdgeColoring(n, k, colors), "exhaustive", True, leaves, elapsed)


def _canonical_search(
    n: int, k: int, h, choices: Sequence[Sequence[int]]
) -> tuple[int, tuple[int, ...], int]:
    """(best NIM count, its colors, leaves scored) over the canonical colorings
    in which edge e takes a color from choices[e]; h is a pattern or its graph.

    Best is -1, with all colors 0, when no such coloring is canonical,
    under the vertex rules and the color rules alike.
    An edge is forced when it is blocked (`_Blocking`) in every class.
    Covered edges are colored and forced ones are not, so the bound adds
    their counts.
    """
    m = len(choices)
    pairs = all_pairs(n)
    colors = [0] * m
    class_adj = [[0] * n for _ in range(k)]
    best = -1
    best_colors: tuple[int, ...] = tuple(colors)
    leaves = 0

    blocking = _Blocking(n, k, _as_graph(h))
    step = blocking.step
    blocked = [blocking.empty] * k

    red = class_adj[0]
    caps = [(n, n)] * n  # caps[u] = row_caps(u), set when row u starts
    top = n  # vertex 0's final class-0 degree, set when row 0 ends

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

    def rec(idx: int, covered: int, hi: int) -> None:
        """hi is the largest color on edges 0..idx-1, 0 before any."""
        nonlocal best, best_colors, leaves, top
        forced = -1
        for mask in blocked:
            forced &= mask
        if m - covered.bit_count() - (forced >> idx).bit_count() <= best:
            return
        if idx == n - 1:
            # row 0 has ended: vertex 0's degrees are final, and no class tops its class-0 degree
            top = red[0].bit_count()
            if any(adj[0].bit_count() > top for adj in class_adj):
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
            adj = class_adj[c]
            if c == 0:
                if not red_ok:
                    continue
            # colors 1..k-1 come in first-use order, and from row 1 on color c
            # on (u, v) must leave both class-c degrees within vertex 0's top
            elif c > hi + 1 or (u and (adj[u].bit_count() >= top or adj[v].bit_count() >= top)):
                continue
            colors[idx] = c
            adj[u] |= bv
            adj[v] |= bu
            mask = blocked[c]
            copy, blocked[c] = step(adj, idx, mask)
            rec(idx + 1, covered | copy, c if c > hi else hi)
            blocked[c] = mask
            adj[u] &= ~bv
            adj[v] &= ~bu
        colors[idx] = 0

    rec(0, 0, 0)
    return best, best_colors, leaves


# a search's memo (k >= 3 only) is emptied when it reaches this many entries
_MEMO_CAP = 1 << 15


class _Blocking:
    """The blocked masks of one search: which uncolored edges close a copy.

    The blocked mask of a color class holds the uncolored edges f (later
    in canonical order than every edge of the class) for which the class
    plus f has a copy of the pattern through f; bits of colored edges are
    never read.  A class only grows, so a bit once set stays set, and
    `step` requeries only the unblocked later edges when the class gains
    an edge e.  A copy that f closes only now goes through e too, so f is
    requeried only where the pattern's shape allows both in one copy: for
    a connected pattern, an end of f lies within `reach` of an end of e
    in the class, `reach` being the largest distance between two pattern
    edges.

    For a star K_{1,s} the mask follows from degrees, with no query: f is
    blocked iff an end of f has class degree >= s - 1.  With k >= 3 the
    same class graph recurs under different colorings of the other
    classes, so `step` is memoized by the class's adjacency rows, which
    fix the edge just gained (it is the class's last).  The memo holds
    the copy and the mask: the copy, bit idx and every later bit are
    functions of the class graph, since the mask is exact and
    `_find_through` is deterministic.  Invariant: the bits before idx of
    a remembered mask may come from another branch; they are bits of
    colored edges, which the search never reads.  A star step where idx
    was not blocked neither reads nor fills the memo: it has no copy and
    its mask costs two degree reads.  With k = 2 the two
    classes split the colored edges, so no class graph recurs and there
    is no memo.
    """

    def __init__(self, n: int, k: int, pattern: SimpleGraph):
        self.n, self.pattern = n, pattern
        self.pairs = pairs = all_pairs(n)
        m = len(pairs)
        self.incident = [0] * n
        for e, (x, y) in enumerate(pairs):
            self.incident[x] |= 1 << e
            self.incident[y] |= 1 << e
        self.full = full = (1 << m) - 1
        self.star = _star_size(pattern)
        self.reach = _edge_reach(pattern)
        # with k >= 3, class rows -> (the copy through their last edge, the class's blocked mask)
        self.memo: Optional[dict[tuple[int, ...], tuple[int, int]]] = {} if k >= 3 else None
        # f alone is a copy only of one edge plus isolated vertices that fit in n
        self.empty = full if pattern.edge_count == 1 and pattern.n <= n else 0

    def step(self, adj: list[int], idx: int, mask: int) -> tuple[int, int]:
        """(copy, mask) for a class that has just gained edge idx.

        `adj` holds the class's rows with the edge and `mask` its blocked
        mask without it.  The copy is the class's copy through idx as an
        edge mask, 0 when idx was not blocked (then there is none); the
        mask is the class's blocked mask with the edge.
        """
        blocked = (mask >> idx) & 1
        # an unblocked star step has no copy and a mask from two degree reads
        memo = self.memo if blocked or self.star is None else None
        if memo is not None:
            key = tuple(adj)
            hit = memo.get(key)
            if hit is not None:
                return hit
        u, v = self.pairs[idx]
        copy = _find_through(adj, self.n, self.pattern, u, v) if blocked else 0
        incident = self.incident
        if self.star is not None:
            if adj[u].bit_count() >= self.star - 1:
                mask |= incident[u]
            if adj[v].bit_count() >= self.star - 1:
                mask |= incident[v]
        else:
            n, pattern, pairs = self.n, self.pattern, self.pairs
            cand = (self.full & ~mask) >> (idx + 1) << (idx + 1)  # unblocked edges after idx
            if cand and self.reach is not None:
                ball = 1 << u | 1 << v
                for _ in range(self.reach):
                    grown = ball
                    for w in _bits(ball):
                        grown |= adj[w]
                    if grown == ball:
                        break
                    ball = grown
                near = 0
                for w in _bits(ball):
                    near |= incident[w]
                cand &= near
            while cand:
                b = cand & -cand
                cand ^= b
                x, y = pairs[b.bit_length() - 1]
                bx, by = 1 << x, 1 << y
                adj[x] |= by
                adj[y] |= bx
                if _find_through(adj, n, pattern, x, y) is not None:
                    mask |= b
                adj[x] ^= by
                adj[y] ^= bx
        if memo is not None:
            if len(memo) >= _MEMO_CAP:
                memo.clear()
            memo[key] = (copy, mask)
        return copy, mask


def _star_size(pattern: SimpleGraph) -> Optional[int]:
    """s when the pattern is the star K_{1,s} (K_2 and P_3 included), else None."""
    order = pattern.n
    if pattern.edge_count == order - 1 and any(row.bit_count() == order - 1 for row in pattern.adj):
        return order - 1
    return None


def _edge_reach(pattern: SimpleGraph) -> Optional[int]:
    """The largest distance between two edges of a connected pattern, None if
    it is disconnected.  Two edges are as far apart as their closest ends."""
    order, rows = pattern.n, pattern.adj
    dist = [[-1] * order for _ in range(order)]
    for s in range(order):
        seen = layer = 1 << s
        step = 0
        while layer:
            reached = 0
            for w in _bits(layer):
                dist[s][w] = step
                reached |= rows[w]
            layer = reached & ~seen
            seen |= layer
            step += 1
        if seen != (1 << order) - 1:
            return None
    edges = list(pattern.edges())
    return max(min(dist[a][c], dist[a][d], dist[b][c], dist[b][d]) for a, b in edges for c, d in edges)


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
    pattern = _guard("hill climb", n, h, HILL_MAX_N, DEFAULT_MAX_PATTERN)
    if k < 1:
        raise ValueError("k must be >= 1")
    if iterations < 0:
        raise ValueError(f"iterations must be >= 0, got {iterations}")
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    if seed_coloring is not None and (seed_coloring.n != n or seed_coloring.k != k):
        raise ValueError("seed coloring does not match n, k")
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
        n, k, pattern_spec(h), best, best_witness, "hill_climb", False, examined, elapsed
    )


class _NimState:
    """The NIM edges of one coloring, kept for scoring single-edge recolorings.

    Built by one per-edge walk, `nim._edge_walk`, which queries each edge
    no copy found so far covers, in canonical order: `adj` is the class
    adjacency, `nim` the NIM edge mask and `class_nim[c]` the NIM edges of
    class c in canonical order.  `dependents[f]` is the bitmask of edges
    whose cover witness contains f, the cover witness of an edge being the
    copy that first covers it in that walk: the copy found through the
    edge itself, or an earlier edge's.  Recoloring edge e from class c to
    class c' changes only those two classes, so its new NIM count is
    `score + loss(e) + gain(e, c')`.  `gain` requeries the NIM edges of c'
    that no copy through e covers yet, in `class_nim[c']` order.
    """

    def __init__(self, coloring: EdgeColoring, pattern: SimpleGraph):
        self.n, self.pattern = coloring.n, pattern
        self.colors = coloring.colors
        self.pairs = all_pairs(coloring.n)
        self.adj = coloring.class_adjacency()
        self.dependents = [0] * len(self.pairs)
        self.nim = _edge_walk(self.adj, self.colors, self.n, pattern, self.dependents)
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
