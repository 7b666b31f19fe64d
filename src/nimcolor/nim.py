"""Monochromatic-copy detection and NIM-edge computation.

An edge of an edge-colored K_n is *NIM* for a pattern H when no
monochromatic copy of H contains it.  Since a copy containing an edge of
color i is monochromatic iff it lies inside color class i, the whole
computation reduces to anchored subgraph-embedding queries within single
color classes.

`_cover_pass` sweeps all edges once in canonical order and keeps one
cover mask: each edge not yet marked is queried in its own class, and the
copy found, a bitmask of its edges in canonical order, marks all of them.
Copies never leave their class, so this is the per-class cover pass of
every class at once.  Edges whose anchored search exhausts without a copy
are NIM.  `nim_edges` reports them; the hill climber in search.py keeps
the copies too.  The test suite checks the count against a reference
counter with its own, separately coded search (`nim_edges_anchored` in
tests/oracles.py).

Proving an edge NIM is the costly query, since its search must exhaust
its tree, and the paper's colorings are built from cliques, joins and
complete bipartite pieces whose classes are full of twins (vertices with
the same open or the same closed neighbourhood in the class).  Swapping
two twins is an automorphism of the class graph, so all edges of a class
between two twin classes, or inside one, are NIM or not together: the
pass proves NIM once per such group and marks the group's later edges
without a query.  Edges with a copy through them are still queried one by
one, so the copies found, and the pass's result, are those of one query
per uncovered edge.

The engine is one plan family and one recursion.  `_anchor_plans` makes
one plan per pattern edge and orientation: the edge's ends take positions
0 and 1, the rest of their component follows in DFS order, then the other
components, largest first, each DFS-ordered from a max-degree root, so
partial embeddings stay connected.  `_search` draws each position from the
common host neighbours of its earlier pattern neighbours, or from all free
vertices when it has none; it prunes by host degree and collapses twin
candidates (vertices with identical adjacency outside the pair), which is
sound for existence queries.  `_find_through` pins positions 0 and 1 to a
host edge and tries every plan; `contains` enters the first plan at
position 0, which has no earlier neighbours and so ranges over every host
vertex.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

from .errors import ResourceLimitError
from .graphs import EdgeColoring, SimpleGraph, _bits, all_pairs, components, edge_index
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
    order: tuple[int, ...]  # pattern vertices in mapping order
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
    return _Plan(tuple(order), prev, degrees, edges)


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


@lru_cache(maxsize=None)
def _anchor_plans(g: SimpleGraph) -> tuple[_Plan, ...]:
    """One plan per (pattern edge, orientation): positions 0 and 1 are the anchor."""
    plans = []
    for x, y in g.edges():
        for a, b in ((x, y), (y, x)):
            order = [a, b]
            _dfs_extend(g, order, {a, b})
            for chunk in _component_order(g, set(order)):
                order.extend(chunk)
            plans.append(_plan_from_order(g, order))
    return tuple(plans)


# -- core search --------------------------------------------------------


def _search(adj: Sequence[int], full: int, plan: _Plan, img: list[int], used: int, pos: int) -> bool:
    order, prev, degrees = plan.order, plan.prev, plan.degrees
    h = len(order)
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
        if _search(adj, full, plan, img, used | b, pos + 1):
            return True
    return False


def _find_through(adj: Sequence[int], n: int, pattern: SimpleGraph, u: int, v: int) -> Optional[int]:
    """A copy through host edge (u, v) as a bitmask over canonical edge indices, or None."""
    if pattern.n > n:
        return None
    full = (1 << n) - 1
    bu, bv = 1 << u, 1 << v
    du, dv = adj[u].bit_count(), adj[v].bit_count()
    img = [0] * pattern.n
    for plan in _anchor_plans(pattern):
        if du < plan.degrees[0] or dv < plan.degrees[1]:
            continue
        img[0], img[1] = u, v
        if _search(adj, full, plan, img, bu | bv, 2):
            witness = 0
            for p, q in plan.edges:
                witness |= 1 << edge_index(img[p], img[q], n)
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
    return _search(g.adj, (1 << g.n) - 1, _anchor_plans(pattern)[0], [0] * pattern.n, 0, 0)


def _guard(n: int, pattern: SimpleGraph, max_n: int, max_pattern: int) -> None:
    if n > max_n:
        raise ResourceLimitError(f"n={n} exceeds limit {max_n}", f"pass max_n={n} to allow it")
    if pattern.n > max_pattern:
        raise ResourceLimitError(
            f"pattern order {pattern.n} exceeds limit {max_pattern}", f"pass max_pattern={pattern.n} to allow it"
        )


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


def _cover_pass(
    coloring: EdgeColoring, pattern: SimpleGraph
) -> tuple[list[list[int]], int, list[tuple[int, int]]]:
    """One cover pass: (class adjacency, NIM edge mask, copies found).

    Each copy is recorded as (witness, fresh): the mask of its edges and
    the mask of those it was the first to cover.

    Swapping two twins of a class graph is an automorphism of it, so all
    edges of class c between two twin classes, or inside one, share their
    NIM status.  Once one edge of such a group is proven NIM, the rest of
    the group is marked NIM without a query.  Twin classes come from
    `_twin_classes`, one dict pass per class.  Edges with a copy through
    them are still queried one by one: the copies found decide which edges
    are covered, and the climber in search.py needs each one.  NIM edges
    never cover anything, so the result is the same as querying every
    uncovered edge.
    """
    n = coloring.n
    pairs = all_pairs(n)
    adj = coloring.class_adjacency()
    twins = [_twin_classes(rows) for rows in adj]
    nim = covered = 0
    nim_groups = set()
    copies = []
    for e, c in enumerate(coloring.colors):
        if (covered >> e) & 1:
            continue
        u, v = pairs[e]
        twin = twins[c]
        tu, tv = twin[u], twin[v]
        group = (c, tu, tv) if tu < tv else (c, tv, tu)
        if group in nim_groups:
            nim |= 1 << e
            continue
        witness = _find_through(adj[c], n, pattern, u, v)
        if witness is None:
            nim |= 1 << e
            nim_groups.add(group)
        else:
            copies.append((witness, witness & ~covered))
            covered |= witness
    return adj, nim, copies


def nim_edges(
    coloring: EdgeColoring,
    h,
    *,
    max_n: int = DEFAULT_MAX_N,
    max_pattern: int = DEFAULT_MAX_PATTERN,
) -> NimReport:
    """All edges of the colored K_n in no monochromatic copy of the pattern."""
    pattern = _as_graph(h)
    if pattern.n < 2:
        raise ValueError("pattern needs at least 2 vertices")
    _guard(coloring.n, pattern, max_n, max_pattern)
    _, nim, _ = _cover_pass(coloring, pattern)
    edges = _bits(nim)
    per_color = [0] * coloring.k
    for e in edges:
        per_color[coloring.colors[e]] += 1
    return NimReport(coloring.n, coloring.k, pattern_spec(h), tuple(edges), len(edges), tuple(per_color))
