"""Exact and heuristic maximization of the NIM count over all k-colorings.

This is a map; each function's docstring holds its own argument.

Exact search:

- `exhaustive_f`: the true maximum, over the colorings that are
  canonical under vertex and color relabeling, and why its rules and
  bounds keep the maximum.
- `_row_caps`: the vertex rules, shared with `turan.turan_oracle`, and
  the block starts and degree caps by which both searches keep them.
- `_canonical_search`: the branch and bound by forward checking, which
  scores its leaves with `nim.nim_edges`.
- `_Blocking`: each class's blocked mask, from which the forced edges
  come.
- `_nim_degree_cap`: the star bound on each vertex's NIM degree, tabled
  by `_DegreeCaps` and shared by `_degree_caps`; `_star_size` spots stars.

Local search:

- `hill_climb_f`: steepest ascent over single-edge recolorings, from
  seeded random or constructed starts, within `_hill_guard`'s limits.
- `_NimState`: delta scoring of a recoloring from one walk's copies;
  `_StarState` scores stars from class degrees alone.
- `_orbit_edges`: the one edge per colored-twin orbit that a step scores.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional, Sequence

from .errors import ResourceLimitError
from .graphs import EdgeColoring, SimpleGraph, _bits, all_pairs, complete_edge_count, edge_rank_offsets
from .nim import (
    DEFAULT_MAX_N, DEFAULT_MAX_PATTERN, _class_components, _component_bounds, _depth_guard, _edge_mask, _edge_walk,
    _find_through, _guard, _query_plans, _twin_members, nim_edges,
)
from .patterns import PatternGraph, _as_graph, pattern_spec

DEFAULT_NODE_BUDGET = 1 << 22
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
    budget: int = DEFAULT_NODE_BUDGET,
) -> SearchResult:
    """Exact maximum NIM count over all k-colorings of E(K_n); raises
    `ResourceLimitError` past `budget` search nodes, one per color tried on an edge.

    Only canonical colorings are enumerated: class 0 keeps the vertex
    rules of `_row_caps` (so edge (0, 1) has color 0), and two color rules
    hold: (a) no class has a vertex whose degree is above vertex 0's
    class-0 degree, the top degree; (b) colors 1..k-1 are first used in
    increasing order along the canonical edge order.  Every coloring has a
    relabeling that keeps all of them: give a class of largest top degree
    color 0, relabel the vertices by the vertex rules on class 0, then
    rename colors 1..k-1 by first use.  That last step changes neither
    class 0 nor any degree, so the maximum is unchanged.

    The search keeps the vertex rules as `_row_caps` says, an edge of
    class 0 standing for an edge in the graph: each row's class-0 edges
    are a prefix inside each block, and color 0 on an edge must leave both
    ends within their caps.  When row 0 ends, vertex 0's degrees are
    final: rule (a) is checked on them, and from then on color c >= 1 is
    skipped on an edge with an end of class-c degree at the top degree
    already.  Color c is tried only if it is at most 1 +
    the largest color used.

    Branches are cut by sound bounds: forward checking over the classes'
    blocked masks (`_canonical_search`, `_Blocking`) and, for a star, the
    NIM degree caps (`_nim_degree_cap`).  Any sound bound keeps the first
    maximal coloring in search order among those that keep the rules, so
    the witness does not depend on how strong the bound is.  Rule (b)
    alone would not move it either: the first maximal coloring already
    uses colors 1..k-1 in first-use order, since its first-use renaming is
    maximal too and comes no later.  The vertex rules and rule (a) are
    symmetry cuts and can move it.
    """
    pattern = _guard("exhaustive search", n, h, DEFAULT_MAX_N, DEFAULT_MAX_PATTERN)
    if k < 1:
        raise ValueError("k must be >= 1")
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    m = complete_edge_count(n)
    if k > 1:
        _depth_guard("exhaustive search", n, pattern)
    started = time.perf_counter()
    if k == 1:  # one coloring, scored directly: the search would recurse once per edge
        colors = (0,) * m
        best, leaves = nim_edges(EdgeColoring(n, k, colors), pattern).count, 1
    else:
        # color permutations preserve the count, so edge (0, 1) is pinned to color 0
        choices = [(0,)] + [range(k)] * (m - 1) if m else []
        best, colors, leaves = _canonical_search(n, k, pattern, choices, budget=budget)
    elapsed = time.perf_counter() - started
    return SearchResult(n, k, pattern_spec(h), best, EdgeColoring(n, k, colors), "exhaustive", True, leaves, elapsed)


def _row_caps(rows: Sequence[int], u: int, caps: list[int], starts: int) -> tuple[list[int], int]:
    """Row u's state under the vertex rules, from row u - 1's (u >= 1),
    rows 0..u-1 done, in the graph with adjacency masks `rows`: class 0 for
    `exhaustive_f`, the one graph for `turan.turan_oracle`.  The state is
    `caps`, each vertex's cap on its final degree, and `starts`, the
    block-start mask; row 0's is every cap n and `starts` = 0b10.

    The vertex rules: vertex r's block is the later vertices with r's
    adjacency to 0..r-1; r has the largest degree in its block, and inside
    each block r's neighbours come first.  Every graph has a relabeling
    that keeps them: place, one at a time, the vertex whose key (adjacency
    to the placed vertices in order, neighbours first, then degree) is
    largest.  Inside r's block the keys agree on 0..r-1, so r, placed
    first of it, has the largest degree, and the members adjacent to r,
    whose keys are larger at bit r, are placed before the rest; a vertex
    outside the block differs from all of it before bit r, on one side, so
    it is placed before all of them or after all, and each block is
    contiguous.  So a search may keep only such graphs.

    Along the canonical edge order a search keeps them with this state.
    Bit v of `starts`, v > u, is set when v starts a block at row u: v is
    u + 1, or v - 1 and v differ in adjacency to some r < u, a bit of
    `rows[r] ^ rows[r] << 1`.  Row u is a prefix inside each block: edge
    (u, v) is in only if bit v of `starts | rows[u] << 1` is set.  When row
    u starts, the degrees of 0..u-1 are final and cap every later w by
    deg(p) for the last p < u whose block holds w; blocks nest, so it is
    the least such cap.  Row by row, w in u - 1's block takes deg(u - 1);
    that block runs from u to the next start, or is empty if u and u - 1
    differ in adjacency to 0..u-2.  A vertex past its cap when its row
    starts ends the branch, and vertex n - 1, which has no row, is checked
    at the leaf; a search may also leave out any edge that would push an
    end past its cap.
    """
    row = rows[u - 1]
    if not (rows[u] ^ row) & ((1 << u - 1) - 1):
        rest = starts >> (u + 1)
        end = u + (rest & -rest).bit_length() if rest else len(rows)
        caps = caps.copy()
        caps[u:end] = [row.bit_count()] * (end - u)
    return caps, starts | row ^ row << 1 | 1 << (u + 1)


def _canonical_search(
    n: int, k: int, h, choices: Sequence[Sequence[int]], *, budget: int = DEFAULT_NODE_BUDGET
) -> tuple[int, tuple[int, ...], int]:
    """(best NIM count, its colors, leaves scored) over the canonical colorings
    in which edge e takes a color from choices[e]; h is a pattern or its graph.

    Best is -1, with all colors 0, when no such coloring is canonical,
    under the vertex rules and the color rules alike.
    Classes only grow along a branch, so an edge in a monochromatic copy
    stays in one.  Covered edges are colored edges in a copy found so far;
    forced ones are uncolored edges blocked (`_Blocking`) in every class,
    which a copy will hold whatever color they get.  The two sets are
    disjoint, so a branch whose m - |covered| - |forced| is at most best
    is dropped.  For a star, a child is also dropped before its edge is
    colored when half the sum of the vertices' NIM degree caps
    (`_nim_degree_cap`) would be at most best: every NIM edge has two
    ends.
    """
    m = len(choices)
    pairs = all_pairs(n)
    colors = [0] * m
    class_adj = [[0] * n for _ in range(k)]
    best, leaves, nodes = -1, 0, 0
    best_colors: tuple[int, ...] = tuple(colors)

    blocking = _Blocking(n, k, _as_graph(h))
    step = blocking.step
    blocked = [blocking.empty] * k
    star = blocking.star
    if star is not None:
        # each vertex's class degrees as one base-n code, and each code's NIM degree cap
        radix = [n**c for c in range(k)]
        code = [0] * n
        cap_of = _degree_caps(n, k, star)

    red = class_adj[0]
    # row u's vertex-rule state (`_row_caps`), set when row u starts
    state_at = [([n] * n, 0b10)] * n
    top = n  # vertex 0's final class-0 degree, set when row 0 ends

    def rec(idx: int, covered: int, hi: int, cap_sum: int) -> None:
        """hi is the largest color on edges 0..idx-1, 0 before any; cap_sum is
        the sum of the vertices' NIM degree caps for a star, else unused."""
        nonlocal best, best_colors, leaves, nodes, top
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
            if n >= 2 and red[n - 1].bit_count() > _row_caps(red, n - 1, *state_at[n - 2])[0][n - 1]:
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
            state_at[u] = _row_caps(red, u, *state_at[u - 1])
            if red[u].bit_count() > state_at[u][0][u]:
                return
        (caps, starts), ru = state_at[u], red[u]
        bu, bv = 1 << u, 1 << v
        # row u is a prefix inside each block, and color 0 on (u, v) must leave both degrees within their caps
        red_ok = (starts | ru << 1) >> v & 1 and ru.bit_count() < caps[u] and red[v].bit_count() < caps[v]
        if star is not None:
            cu, cv = code[u], code[v]
            rest = cap_sum - cap_of[cu] - cap_of[cv]  # the caps of every vertex but u and v
        for c in choices[idx]:
            adj = class_adj[c]
            if c == 0:
                if not red_ok:
                    continue
            # colors 1..k-1 come in first-use order, and from row 1 on color c
            # on (u, v) must leave both class-c degrees within vertex 0's top
            elif c > hi + 1 or (u and (adj[u].bit_count() >= top or adj[v].bit_count() >= top)):
                continue
            if star is not None:
                p = radix[c]
                child_sum = rest + cap_of[cu + p] + cap_of[cv + p]
                if child_sum >> 1 <= best:
                    continue
                code[u], code[v] = cu + p, cv + p
            nodes += 1
            if nodes > budget:
                limit = f"exhaustive search passed its budget of {budget} nodes"
                raise ResourceLimitError(limit, "pass a larger budget= to allow it, or try hill_climb_f")
            colors[idx] = c
            adj[u] |= bv
            adj[v] |= bu
            mask = blocked[c]
            copy, blocked[c] = step(adj, idx, mask)
            rec(idx + 1, covered | copy, c if c > hi else hi, child_sum if star is not None else 0)
            blocked[c] = mask
            adj[u] &= ~bv
            adj[v] &= ~bu
        if star is not None:
            code[u], code[v] = cu, cv
        colors[idx] = 0

    # K_0 has no vertex to cap, and its caps could not be read in base 0
    rec(0, 0, 0, n * cap_of[0] if star is not None and n else 0)
    return best, best_colors, leaves


def _nim_degree_cap(degrees: Sequence[int], r: int, s: int) -> int:
    """The most NIM edges at a vertex with class degrees `degrees`, one for
    each of the k classes, and r uncolored edges, over every coloring of
    those edges, for the star K_{1,s}.

    A class-c edge is NIM iff both its ends have class-c degree <= s - 1.
    A class is live while its degree d_c is below s, and `room` is the sum
    of s - 1 - d_c over the live classes.  Classes only grow, so a dead
    class adds no NIM edge at the vertex, and a live one adds at most its
    final degree, and only if that stays below s.  The vertex therefore
    ends with at most: the live d_c plus r NIM edges if r <= room; the
    live d_c plus room if r > room and a class is dead, since whatever the
    live classes cannot take adds nothing; and (k - 1)(s - 1) if r > room
    and every class is live, since then some class reaches s.

    Coloring (u, v) changes only the caps of u and v, so the search
    carries their sum and tests it before it colors an edge.  For k = 2
    and n >= 2s the caps sum to n(s - 1) at the root, so once a coloring
    reaches ex(n, K_{1,s}) = floor(n(s - 1)/2) every other branch falls.
    """
    live = room = 0
    dead = False
    for d in degrees:
        if d < s:
            live += d
            room += s - 1 - d
        else:
            dead = True
    if r <= room:
        return live + r  # every uncolored edge fits in a live class
    if dead:
        return live + room  # fill the live classes, the rest goes to a dead one
    return (len(degrees) - 1) * (s - 1)  # one class must reach s: the others hold s - 1 each


class _DegreeCaps(dict):
    """A vertex's class degrees as one code, sum of d_c * n**c -> its
    `_nim_degree_cap` in K_n for the star K_{1,s}, with k classes; filled on
    first use."""

    def __init__(self, n: int, k: int, s: int):
        super().__init__()
        self.n, self.k, self.s = n, k, s

    def __missing__(self, code: int) -> int:
        n = self.n
        degrees = [code // n**c % n for c in range(self.k)]
        cap = self[code] = _nim_degree_cap(degrees, n - 1 - sum(degrees), self.s)
        return cap


@lru_cache(maxsize=32)
def _degree_caps(n: int, k: int, s: int) -> _DegreeCaps:
    """The `_DegreeCaps` of (n, k, s), shared, so repeated searches of one cell fill it once."""
    return _DegreeCaps(n, k, s)


# a search's memo (k >= 3 only) is emptied when it reaches this many entries
_MEMO_CAP = 1 << 15


class _Blocking:
    """The blocked masks of one search: which uncolored edges close a copy.

    The blocked mask of a color class holds the uncolored edges f (later
    in canonical order than every edge of the class) for which the class
    plus f has a copy of the pattern through f; bits of colored edges are
    never read.  A class only grows, so a bit once set stays set, and
    `step` requeries every unblocked later edge when the class gains an
    edge, so each mask stays exact.

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
        self.offsets, self.plans = _query_plans(pattern, n)
        self.pairs = pairs = all_pairs(n)
        m = len(pairs)
        self.incident = [0] * n
        for e, (x, y) in enumerate(pairs):
            self.incident[x] |= 1 << e
            self.incident[y] |= 1 << e
        self.full = full = (1 << m) - 1
        self.star = _star_size(pattern)
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
        copy = _find_through(adj, self.offsets, self.plans, u, v) if blocked else 0
        if self.star is not None:
            if adj[u].bit_count() >= self.star - 1:
                mask |= self.incident[u]
            if adj[v].bit_count() >= self.star - 1:
                mask |= self.incident[v]
        else:
            offsets, plans, pairs = self.offsets, self.plans, self.pairs
            cand = (self.full & ~mask) >> (idx + 1) << (idx + 1)  # unblocked edges after idx
            while cand:
                b = cand & -cand
                cand ^= b
                x, y = pairs[b.bit_length() - 1]
                bx, by = 1 << x, 1 << y
                adj[x] |= by
                adj[y] |= bx
                if _find_through(adj, offsets, plans, x, y) is not None:
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


def _hill_guard(n: int, h: PatternGraph) -> SimpleGraph:
    """The pattern graph of `h`, once `hill_climb_f` accepts n and h."""
    return _guard("hill climb", n, h, HILL_MAX_N, DEFAULT_MAX_PATTERN)


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
    a state of the current coloring, rebuilt once per accepted move: a
    `_StarState` for a star K_{1,s}, which reads class degrees alone, and
    a `_NimState`, which queries, for every other pattern.  Fully
    deterministic for fixed arguments.

    A step scores only the lowest edge of each colored-twin orbit
    (`_orbit_edges`).  The chosen move is unchanged: moves in one orbit
    score the same, so the first maximal (edge, color) of a full scan is
    already at an orbit's lowest edge.
    `colorings_examined` still counts all C(n, 2)(k - 1) candidates of
    each step, as the full scan decides them.
    """
    pattern = _hill_guard(n, h)
    if k < 1:
        raise ValueError("k must be >= 1")
    if iterations < 0:
        raise ValueError(f"iterations must be >= 0, got {iterations}")
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    if seed_coloring is not None and (seed_coloring.n != n or seed_coloring.k != k):
        raise ValueError("seed coloring does not match n, k")
    started = time.perf_counter()
    rng = random.Random(seed) if seed_coloring is None or restarts > 1 else None  # for random starts only
    m = complete_edge_count(n)
    best = -1
    best_witness: Optional[EdgeColoring] = None
    examined = 0
    star = _star_size(pattern)
    # a star's NIM edges follow from class degrees, so its state makes no query
    if star is None:
        state_of = lambda coloring: _NimState(coloring, pattern)
    else:
        state_of = lambda coloring: _StarState(coloring, star)

    for r in range(restarts):
        if r == 0 and seed_coloring is not None:
            current = seed_coloring
        else:
            current = EdgeColoring.random(n, k, rng)
        state = state_of(current)
        score = state.score
        examined += 1
        for _ in range(iterations):
            move = None  # (score, edge, color)
            # every candidate is decided, but only each orbit's lowest edge is scored
            examined += m * (k - 1)
            # each class's twin classes: the settle step's, or built here for
            # a class it settled whole; read only up to the first twin-free one
            twins = (t or _twin_members(rows) for t, rows in zip(state.twins, state.adj))
            for e in _orbit_edges(twins, n) if k > 1 else ():  # one color leaves no move
                old = current.colors[e]
                base = score + state.loss(e)
                for c in range(k):
                    if c == old:
                        continue
                    bar = score if move is None else move[0]  # what a move must beat
                    cand_score = base + state.gain(e, c, bar - base)
                    if cand_score > bar:
                        move = (cand_score, e, c)
            if move is None:
                break
            score = move[0]
            current = current.recolored(move[1], move[2])
            state = state_of(current)
            assert state.score == score, "delta score disagrees with the rebuilt NIM state"
        if score > best:
            best = score
            best_witness = current

    elapsed = time.perf_counter() - started
    assert best_witness is not None
    return SearchResult(
        n, k, pattern_spec(h), best, best_witness, "hill_climb", False, examined, elapsed
    )


def _orbit_edges(twins: Iterable[tuple[list[int], int]], n: int) -> Sequence[int]:
    """The lowest edge of each colored-twin orbit, in canonical order, for
    a coloring of K_n with k >= 2 colors whose classes have the twin
    classes `twins`, `nim._twin_members` of each class's rows in turn.
    They are read only up to the first twin-free class, so a lazy
    iterable builds no more of them.

    Vertices x and y are colored twins when swapping them changes no edge
    color: in every class, their rows agree off x and y, that is, they are
    twins there (`nim._twin_members`), closed in the class holding (x, y)
    and open in the rest.  No vertex has both kinds of twin in one class,
    so being twins there is an equivalence, and the colored-twin classes T
    are the common refinement of the k classes' twin classes.  Swaps of
    colored twins generate the orbits; each T keeps one color inside, and
    the orbit of (u, v) is T_u x T_v, or every pair of T when u and v are
    twins.  Its lowest edge joins the first members of T_u and T_v, or T's
    two lowest.  A class with no twin pair leaves each edge its own orbit.
    """
    full = (1 << n) - 1
    members = [full] * n  # each vertex's colored-twin class
    for classes, heads in twins:
        if heads == full:
            return range(complete_edge_count(n))
        for t in _bits(heads):
            for v in _bits(classes[t]):
                members[v] &= classes[t]
    firsts = sum(1 << v for v, mine in enumerate(members) if mine & -mine == 1 << v)
    offsets = edge_rank_offsets(n)
    edges: list[int] = []
    for u in _bits(firsts):
        twins = members[u] ^ 1 << u
        edges += [offsets[u] + v for v in _bits(firsts >> (u + 1) << (u + 1) | twins & -twins)]
    return edges


class _NimState:
    """The NIM edges of one coloring, kept for scoring single-edge recolorings.

    Built by one per-edge walk, `nim._edge_walk`, which queries each edge
    that no rule settles and no copy found so far covers, in canonical
    order: `adj` is the class adjacency, `nim` the NIM edge mask and
    `class_nim[c]` the NIM edges of class c in canonical order.
    `dependents[f]` is the bitmask of walked edges whose cover witness
    contains f, the cover witness of an edge being the copy that first
    covers it in that walk: the copy found through the edge itself, or an
    earlier edge's.  Recoloring edge e from class c to class c' changes
    only those two classes, so its new NIM count is `score + loss(e) +
    gain(e, c')`.  `gain` requeries the NIM edges of c' that no copy
    through e covers yet, in `class_nim[c']` order.

    The walk starts from what the settle step, `nim._class_components`,
    settles with no query at degree d + 1: `dense` is the pattern's dense
    degree d (h - 1 for a forest on h vertices with an edge, infinite
    otherwise), and `low[c]` the least degree over class c's vertices with
    an edge (infinite when c is empty).  A component whose vertices all
    have degree at least d has every edge in a copy (the dense rule,
    proved in `nim._class_components`).  Removing one edge
    from a component of least degree at least d + 1 leaves each piece at
    least d, so no loss needs the witnesses of its edges, which get no
    dependents of their own (a copy of a disconnected pattern can still
    use them, and a walked edge's witness records them).  So:

    - `loss(e)` of a non-NIM e in class c is 0 when `low[c] >= d` and both
      ends of e have class degree at least d + 1: c less e stays dense;
    - `gain(e, c')` is 0 when `low[c'] >= d` and both ends have c'-degree
      at least d - 1: c' plus e is dense, so e is hit, and c' had no NIM
      edge to lose.

    `twins[c]` holds class c's twin classes as the settle step returned
    them: `nim._twin_members` of its rows, or None when the class settled
    whole.  `hill_climb_f` builds the missing ones for its orbit scan.
    """

    def __init__(self, coloring: EdgeColoring, pattern: SimpleGraph):
        self.offsets, self.plans = _query_plans(pattern, coloring.n)
        offsets = self.offsets
        self.colors = coloring.colors
        self.pairs = all_pairs(coloring.n)
        self.adj = coloring.class_adjacency()
        limits = _component_bounds(pattern.adj)
        self.dense = limits[2]
        self.low: list[float] = []
        self.twins: list[Optional[tuple[list[int], int]]] = []
        every = (1 << coloring.n) - 1
        nim = hit = 0
        for rows in self.adj:
            self.low.append(min(map(int.bit_count, filter(None, rows)), default=math.inf))
            # the least degree at which no single removal undoes the dense rule
            hit_at, open_at, twins = _class_components(rows, self.dense + 1, limits)
            self.twins.append(twins)
            hit |= _edge_mask(rows, hit_at, offsets)
            nim |= _edge_mask(rows, every & ~hit_at & ~open_at, offsets)
        self.dependents = [0] * len(self.pairs)
        self.nim = _edge_walk(self.adj, self.colors, offsets, self.plans, self.dependents, nim, hit)
        self.class_nim: list[list[int]] = [[] for _ in range(coloring.k)]
        for e in _bits(self.nim):
            self.class_nim[self.colors[e]].append(e)
        self.score = self.nim.bit_count()

    def loss(self, e: int) -> int:
        """Change in the NIM count when edge e leaves its class.

        0 with no query when the class less e stays dense: its least degree
        is at least `dense` and both ends of e have more.
        """
        if (self.nim >> e) & 1:
            return -1  # no copy uses e, so every other edge keeps its witness
        rest = self.dependents[e] & ~(1 << e)
        if not rest:
            return 0
        c = self.colors[e]
        offsets, plans, pairs = self.offsets, self.plans, self.pairs
        adj = self.adj[c]
        u, v = pairs[e]
        if self.low[c] >= self.dense and min(adj[u].bit_count(), adj[v].bit_count()) > self.dense:
            return 0  # the class less e stays dense, so every edge stays hit
        adj[u] ^= 1 << v
        adj[v] ^= 1 << u
        freed = 0
        while rest:  # the edges whose cover witness used e, less those a new copy covers
            b = rest & -rest
            x, y = pairs[b.bit_length() - 1]
            witness = _find_through(adj, offsets, plans, x, y)
            if witness is None:
                freed += 1
                rest ^= b
            else:
                rest &= ~witness
        adj[u] ^= 1 << v
        adj[v] ^= 1 << u
        return freed

    def gain(self, e: int, c: int, floor: float = -math.inf) -> int:
        """Change in the NIM count when class c (not e's own) gains edge e.

        The answer is exact when it exceeds `floor`; otherwise some value at
        most `floor` comes back, so requeries stop once the change is known
        not to beat it.  It is 0 with no query when c plus e is dense: c's
        least degree is at least `dense` and both ends of e have at least
        `dense` - 1 in c.
        """
        if floor >= 1:
            return 1  # a gain never adds more than e itself
        offsets, plans, pairs = self.offsets, self.plans, self.pairs
        adj = self.adj[c]
        u, v = pairs[e]
        if self.low[c] >= self.dense and min(adj[u].bit_count(), adj[v].bit_count()) >= self.dense - 1:
            return 0  # c plus e is dense, so e is hit, and c had no NIM edge to lose
        bu, bv = 1 << u, 1 << v
        adj[u] |= bv
        adj[v] |= bu
        witness = _find_through(adj, offsets, plans, u, v)
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
                found = _find_through(adj, offsets, plans, x, y)
                if found is not None:
                    covered |= found
                    delta = -(covered & nim).bit_count()
        adj[u] ^= bv
        adj[v] ^= bu
        return delta


class _StarState:
    """The NIM edges of one coloring for the star K_{1,s}, read from degrees.

    An edge of class c lies in a copy of K_{1,s} iff one of its ends has
    class-c degree at least s, so the NIM edges of c are its edges inside
    `low[c]`, the mask of vertices of class-c degree at most s - 1.  The
    state has `_NimState`'s interface (`adj`, `twins`, `score`, `loss`,
    `gain`) and makes no query, so no class comes with its twins.
    Recoloring e = (u, v) changes only the degrees of u and v in its two
    classes, so only edges at u and v change status:

    - `loss(e)` is -1 when e is NIM: its ends stay low, so no other edge
      moves.  Otherwise an end u of class degree exactly s falls to s - 1
      and frees its edges towards low vertices other than v; an end of
      any other degree keeps its status.
    - `gain(e, c')` is +1 when both ends stay at most s - 1 in c' after
      the add, and an end u of c'-degree exactly s - 1 rises to s and takes
      away the NIM edges of c' at u.

    u and v are not adjacent in c', and no edge counts at both ends in c,
    so nothing is counted twice.  When n <= s no vertex reaches degree s,
    and every edge is NIM.
    """

    def __init__(self, coloring: EdgeColoring, s: int):
        self.s = s
        self.colors = coloring.colors
        self.pairs = all_pairs(coloring.n)
        self.adj = coloring.class_adjacency()
        self.degree = [[row.bit_count() for row in rows] for rows in self.adj]
        self.low = [sum(1 << v for v, d in enumerate(degrees) if d < s) for degrees in self.degree]
        self.twins: list[Optional[tuple[list[int], int]]] = [None] * coloring.k
        # each NIM edge is counted at both its ends
        self.score = sum(
            (rows[v] & low).bit_count() for rows, low in zip(self.adj, self.low) for v in _bits(low)
        ) >> 1

    def loss(self, e: int) -> int:
        """Change in the NIM count when edge e leaves its class."""
        c = self.colors[e]
        u, v = self.pairs[e]
        low = self.low[c]
        if (low >> u) & (low >> v) & 1:
            return -1
        rows, degree, s = self.adj[c], self.degree[c], self.s
        freed = 0
        if degree[u] == s:
            freed += (rows[u] & low & ~(1 << v)).bit_count()
        if degree[v] == s:
            freed += (rows[v] & low & ~(1 << u)).bit_count()
        return freed

    def gain(self, e: int, c: int, floor: float = -math.inf) -> int:
        """Change in the NIM count when class c (not e's own) gains edge e;
        exact whatever `floor` is."""
        u, v = self.pairs[e]
        rows, degree, low, s = self.adj[c], self.degree[c], self.low[c], self.s
        du, dv = degree[u], degree[v]
        delta = 1 if du < s - 1 and dv < s - 1 else 0
        if du == s - 1:
            delta -= (rows[u] & low).bit_count()
        if dv == s - 1:
            delta -= (rows[v] & low).bit_count()
        return delta
