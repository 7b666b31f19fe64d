"""Monochromatic-copy detection and NIM-edge computation.

An edge of an edge-colored K_n is *NIM* for a pattern H when no
monochromatic copy of H contains it.  Since a copy containing an edge of
color i is monochromatic iff it lies inside color class i, the whole
computation reduces to anchored subgraph-embedding queries within single
color classes.

`_cover_pass` sweeps all edges once in canonical order and keeps one
cover mask: an edge not yet marked is queried for a copy through it in its
own class, and the copy, a bitmask of its edges in canonical order, marks
all of them.  Copies never leave their class, so this is the per-class
cover pass of every class at once.  Edges with no such copy are NIM.
`nim_edges` reports them; the hill climber in search.py starts from the
pass's copies too.  The test suite checks the count against a reference
counter with its own, separately coded search (`nim_edges_anchored` in
tests/oracles.py).

The paper's colorings are built from cliques, joins and complete
bipartite pieces whose classes are full of twins (vertices with the same
open or the same closed neighbourhood in the class).  Swapping two twins
is an automorphism of the class graph, so all edges of a class between
two twin classes, or inside one, are NIM or not together.  The pass
queries only the first uncovered edge of each such group and gives the
rest of the group its answer: NIM, or hit with no copy.  The NIM mask is
that of one query per uncovered edge.  The hit edges the pass skips have
no copy of their own; the hill climber queries them when it needs one.

The engine is one plan family and one recursion.  `_anchor_plans` makes
one plan per automorphism orbit of an oriented pattern edge: the edge's
ends take positions 0 and 1, the rest of their component follows in DFS
order, then the other components, largest first, each DFS-ordered from a
max-degree root, so partial embeddings stay connected.  An oriented edge
that an automorphism of the pattern maps an earlier plan's anchor onto
gets no plan of its own: a copy anchored by it is, through that
automorphism, a copy anchored by the earlier plan.  `_search` draws each
position from the common host neighbours of its earlier pattern
neighbours, or from all free vertices when it has none; it prunes by host
degree and collapses twin candidates (vertices with identical adjacency
outside the pair), which is sound for existence queries.  At the last
position every pattern neighbour is placed, so any candidate fits and the
lowest is taken.  `_find_through` pins positions 0 and 1 to a host edge
and tries the plans in order.  A plan succeeds only if the first plan of
its orbit does, so the first plan to succeed, and the copy it returns,
are those of trying every oriented edge.  `contains` enters the first
plan at position 0, which has no earlier neighbours and so ranges over
every host vertex.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

from .errors import ResourceLimitError
from .graphs import EdgeColoring, SimpleGraph, _bits, all_pairs, components, edge_rank_offsets
from .patterns import _as_graph, pattern_spec

DEFAULT_MAX_N = 64
DEFAULT_MAX_PATTERN = 16


@dataclass(frozen=True)
class NimReport:
    n: int
    k: int
    pattern: str
    nim_edges: tuple[int, ...]
    count: int
    per_color: tuple[int, ...]

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "pattern": self.pattern,
            "count": self.count,
            "nim_edges": list(self.nim_edges),
            "per_color": list(self.per_color),
        }


# -- embedding plans ----------------------------------------------------


@dataclass(frozen=True)
class _Plan:
    prev: tuple[tuple[int, ...], ...]  # earlier positions adjacent in the pattern
    degrees: tuple[int, ...]  # pattern degree at each position
    edges: tuple[tuple[int, int], ...]  # pattern edges as position pairs


def _plan_from_order(g: SimpleGraph, order: list[int]) -> _Plan:
    pos = {v: p for p, v in enumerate(order)}
    prev = tuple(
        tuple(pos[w] for w in g.neighbors(v) if pos[w] < p) for p, v in enumerate(order)
    )
    degrees = tuple(g.degree(v) for v in order)
    edges = tuple((pos[u], pos[v]) for u, v in g.edges())
    return _Plan(prev, degrees, edges)


def _dfs_extend(g: SimpleGraph, order: list[int], seen: set[int]) -> None:
    """Grow `order` by DFS until the current component set is exhausted."""
    stack = list(order)
    while stack:
        by_degree = sorted(g.neighbors(stack[-1]), key=lambda x: (-g.degree(x), x))
        nxt = next((w for w in by_degree if w not in seen), None)
        if nxt is None:
            stack.pop()
        else:
            seen.add(nxt)
            order.append(nxt)
            stack.append(nxt)


def _component_order(g: SimpleGraph, skip: set[int]) -> list[list[int]]:
    """Components outside `skip` (a union of whole components), largest first,
    each DFS-ordered from a max-degree root."""
    out = []
    for comp in components(g):
        if comp[0] in skip:
            continue
        root = max(comp, key=lambda v: (g.degree(v), -v))
        order = [root]
        _dfs_extend(g, order, {root})
        out.append(order)
    out.sort(key=len, reverse=True)
    return out


# keyed by the adjacency rows, not by the graph: a tuple of ints hashes and
# compares in C, where SimpleGraph's generated __hash__ and __eq__ would run
# Python code on every query
@lru_cache(maxsize=None)
def _anchor_plans(pattern_adj: tuple[int, ...]) -> tuple[_Plan, ...]:
    """One plan per automorphism orbit of an oriented edge of the pattern g
    with adjacency rows `pattern_adj`.

    Positions 0 and 1 of a plan are its anchor (a, b).  Oriented edges are
    taken in edge order, and (a, b) gets a plan only if no kept plan's
    anchor maps onto it by an automorphism of g.  `_search` on g itself,
    with a kept plan's positions 0 and 1 pinned to a and b, finds such an
    automorphism: an injective edge-preserving map of g into itself.

    Witnesses do not change.  If an automorphism s takes the anchor of a
    kept plan onto (a, b), then for every copy f of g anchored by (a, b)
    at a host edge, f∘s is a copy anchored by the kept plan there.  So the
    kept plan, which comes first, succeeds whenever (a, b)'s plan would,
    and the first plan to succeed is always the first of its orbit.
    """
    g = SimpleGraph(len(pattern_adj), pattern_adj)
    full = (1 << g.n) - 1
    img = [0] * g.n
    plans: list[_Plan] = []
    for x, y in g.edges():
        for a, b in ((x, y), (y, x)):
            img[0], img[1] = a, b
            if any(_search(g.adj, full, kept, img, 1 << a | 1 << b, 2) for kept in plans):
                continue
            order = [a, b]
            _dfs_extend(g, order, {a, b})
            for chunk in _component_order(g, set(order)):
                order.extend(chunk)
            plans.append(_plan_from_order(g, order))
    return tuple(plans)


# -- core search --------------------------------------------------------


def _search(adj: Sequence[int], full: int, plan: _Plan, img: list[int], used: int, pos: int) -> bool:
    prev = plan.prev
    last = len(prev) - 1
    if pos > last:
        return True
    nbrs = prev[pos]
    if nbrs:
        cand = adj[img[nbrs[0]]]
        for q in nbrs[1:]:
            cand &= adj[img[q]]
        cand &= ~used
    else:
        cand = full & ~used
    if pos == last:
        # every pattern neighbour is placed, so each candidate has the
        # degree and completes the copy: take the lowest, as the loop would
        if not cand:
            return False
        img[pos] = (cand & -cand).bit_length() - 1
        return True
    need = plan.degrees[pos]
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
        if _search(adj, full, plan, img, used | b, pos + 1):
            return True
    return False


def _find_through(adj: Sequence[int], n: int, pattern: SimpleGraph, u: int, v: int) -> Optional[int]:
    """A copy through host edge (u, v) as a bitmask over canonical edge indices, or None."""
    if pattern.n > n:
        return None
    full = (1 << n) - 1
    used = 1 << u | 1 << v
    du, dv = adj[u].bit_count(), adj[v].bit_count()
    img = [0] * pattern.n
    img[0], img[1] = u, v  # _search writes positions 2 and up only
    for plan in _anchor_plans(pattern.adj):
        if du < plan.degrees[0] or dv < plan.degrees[1]:
            continue
        if _search(adj, full, plan, img, used, 2):
            offset = edge_rank_offsets(n)
            witness = 0
            for p, q in plan.edges:
                a, b = img[p], img[q]
                witness |= 1 << (offset[a] + b if a < b else offset[b] + a)
            return witness
    return None


# -- public operations ---------------------------------------------------


def contains(g: SimpleGraph, h) -> bool:
    """True iff g has a (not necessarily induced) subgraph isomorphic to h."""
    pattern = _as_graph(h)
    if pattern.n > g.n:
        return False
    if pattern.edge_count == 0:
        return True
    return _search(g.adj, (1 << g.n) - 1, _anchor_plans(pattern.adj)[0], [0] * pattern.n, 0, 0)


def _guard(label: str, n: int, h, max_n: int, max_pattern: int, *, tunable: bool = False) -> SimpleGraph:
    """The pattern graph of `h`, once the entry point `label` accepts n and h.

    A pattern under 2 vertices has no edge to anchor a copy, so it is a
    ValueError; n or pattern order over its limit is a ResourceLimitError
    reading "<label> limited to n <= L, got N".  `tunable` entry points take
    max_n and max_pattern keywords, and the hint names the one to pass.
    """
    pattern = _as_graph(h)
    if pattern.n < 2:
        raise ValueError("pattern needs at least 2 vertices")
    limits = (("n", "max_n", n, max_n), ("pattern order", "max_pattern", pattern.n, max_pattern))
    for what, key, value, limit in limits:
        if value > limit:
            hint = f"pass {key}={value} to allow it" if tunable else ""
            raise ResourceLimitError(f"{label} limited to {what} <= {limit}, got {value}", hint)
    return pattern


def _twin_classes(rows: Sequence[int]) -> list[int]:
    """Each vertex's twin class, named by its first member.

    Twins have the same open neighbourhood (false twins) or the same
    closed one (true twins).  One dict holds both keys: an open key N(v)
    never equals a closed key N[x], since x would lie in N(v) while v does
    not lie in N[x], and no vertex has both a false and a true twin, so
    the first key that hits names the class.
    """
    first: dict[int, int] = {}
    twin = []
    for v, row in enumerate(rows):
        t = first.setdefault(row, v)
        if t == v:
            t = first.setdefault(row | 1 << v, v)
        twin.append(t)
    return twin


def _cover_pass(coloring: EdgeColoring, pattern: SimpleGraph) -> tuple[list[list[int]], int, dict[int, int]]:
    """One cover pass: (class adjacency, NIM edge mask, copies found).

    `copies` maps each queried edge that is not NIM to the copy found
    through it, a mask of its edges; the copy marks all of them covered.

    Edges are grouped by (color, twin-class pair), with twin classes from
    `_twin_classes`, one dict pass per class.  Only the first uncovered
    edge of a group is queried: the group is NIM or hit as a whole, so
    each later uncovered edge of the group is NIM if the group is and is
    otherwise left uncovered, with no query and no copy.  NIM edges never
    cover anything, so the NIM mask is the same as querying every
    uncovered edge.
    """
    n = coloring.n
    pairs = all_pairs(n)
    adj = coloring.class_adjacency()
    twins = [_twin_classes(rows) for rows in adj]
    nim = covered = 0
    groups: dict[tuple[int, int, int], bool] = {}  # True when the group is NIM
    copies: dict[int, int] = {}
    for e, c in enumerate(coloring.colors):
        if (covered >> e) & 1:
            continue
        x, y = pairs[e]
        twin = twins[c]
        tx, ty = twin[x], twin[y]
        group = (c, tx, ty) if tx < ty else (c, ty, tx)
        is_nim = groups.get(group)
        if is_nim is None:
            witness = _find_through(adj[c], n, pattern, x, y)
            is_nim = groups[group] = witness is None
            if witness is not None:
                copies[e] = witness
                covered |= witness
        if is_nim:
            nim |= 1 << e
    return adj, nim, copies


def nim_edges(
    coloring: EdgeColoring,
    h,
    *,
    max_n: int = DEFAULT_MAX_N,
    max_pattern: int = DEFAULT_MAX_PATTERN,
) -> NimReport:
    """All edges of the colored K_n in no monochromatic copy of the pattern."""
    pattern = _guard("NIM count", coloring.n, h, max_n, max_pattern, tunable=True)
    _, nim, _ = _cover_pass(coloring, pattern)
    edges = _bits(nim)
    per_color = [0] * coloring.k
    for e in edges:
        per_color[coloring.colors[e]] += 1
    return NimReport(coloring.n, coloring.k, pattern_spec(h), tuple(edges), len(edges), tuple(per_color))
