"""Monochromatic-copy detection and NIM-edge computation.

An edge of an edge-colored K_n is *NIM* for a pattern H when no
monochromatic copy of H contains it.  A copy through an edge of color i
is monochromatic iff it lies inside color class i, so every question
here is an anchored subgraph query inside one class.  This is a map;
each function's docstring holds its own argument.

- `nim_edges`: the public count, one `_cover_pass` per coloring.  The
  tests check it against `nim_edges_anchored` in tests/oracles.py, a
  separately coded counter.
- `_cover_pass`: the NIM mask by class components and twin groups.
- `_class_components`: the settle step that the cover pass and the hill
  climber share; it settles dense and small components with no query,
  by the bounds `_component_bounds` and `_matching_number` give.
- `_twin_members`: a class's twin classes.
- `_edge_walk`: one query per unsettled, uncovered edge, for the
  climber's state, which needs the copy that covered each edge;
  `_edge_mask` turns a vertex mask into its edges.
- `_anchor_plans`: one plan per automorphism orbit of an oriented
  pattern edge, each ordered by `_anchor_plan` and compiled by `_kernel`.
- `_query_plans` and `_find_through`: a query through one host edge, on
  plans fetched once per pass, search or state.
- `contains`: unanchored containment, by `_containment_kernel`.
- `_guard`: the input limits of every entry point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress
from typing import Callable, Optional, Sequence

from .errors import ResourceLimitError
from .graphs import EdgeColoring, SimpleGraph, _bits, all_pairs, complete_edge_count, components, edge_rank_offsets
from .patterns import _as_graph, pattern_spec

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
        return dict(vars(self))


# -- embedding plans ----------------------------------------------------


@dataclass(frozen=True)
class _Plan:
    prev: tuple[tuple[int, ...], ...]  # earlier positions adjacent in the pattern
    degrees: tuple[int, ...]  # pattern degree at each position
    edges: tuple[tuple[int, int], ...]  # pattern edges as position pairs


def _anchor_plan(g: SimpleGraph, a: int, b: int) -> _Plan:
    """The plan of g for the anchor (a, b).

    a and b take positions 0 and 1 and the rest of their component follows;
    then come the other components, largest first, each from a root of top
    degree.  Each part grows by DFS, which steps to the unplaced neighbour
    of highest degree, lowest first among equals, so every position but a
    part's root has an earlier pattern neighbour: partial embeddings stay
    connected.
    """
    rank = lambda v: (-g.degree(v), v)
    rest = sorted((comp for comp in components(g) if a not in comp), key=len, reverse=True)
    order: list[int] = []
    for start in [[a, b]] + [[min(comp, key=rank)] for comp in rest]:
        order += start
        stack = list(start)
        while stack:
            nxt = next((w for w in sorted(g.neighbors(stack[-1]), key=rank) if w not in order), None)
            if nxt is None:
                stack.pop()
            else:
                order.append(nxt)
                stack.append(nxt)
    pos = {v: p for p, v in enumerate(order)}
    return _Plan(
        tuple(tuple(pos[w] for w in g.neighbors(v) if pos[w] < p) for p, v in enumerate(order)),
        tuple(g.degree(v) for v in order),
        tuple((pos[u], pos[v]) for u, v in g.edges()),
    )


# -- compiled plans -----------------------------------------------------

# kernel(adj, o, used, u0, ..., u{s-1}): the search of one plan from
# position s on in a host of len(o) vertices, o = edge_rank_offsets(n),
# with positions before s placed at u0, ..., u{s-1} and `used` their
# mask; the copy mask it finds, or None
_Kernel = Callable[..., Optional[int]]
# compiled plans: (pattern degree at position 0, at position 1, kernel from position 2)
_Plans = tuple[tuple[int, int, _Kernel], ...]

# loops per generated function: CPython refuses more than 20 statically
# nested blocks, so a deeper plan hands its later positions to a tail
_KERNEL_LOOPS = 16


@lru_cache(maxsize=None)
def _kernel(plan: _Plan, start: int) -> _Kernel:
    """The search of `plan` from position `start` on, generated as nested loops.

    Position p is a `while c{p}:` loop over its candidates, lowest bit
    first: the common host neighbours of its earlier pattern neighbours,
    or every free vertex when it has none.  Candidates are pruned by host
    degree; the test is left out where the earlier pattern neighbours
    alone give the degree.  A candidate twin to one whose subtree failed
    at p fails too, which is sound for existence queries.  Twins have
    equal open or equal closed rows, so `k{p}` holds both rows of each
    candidate whose subtree failed at p, the only ones later candidates
    there read; no open row equals a closed one (see `_twin_members`).
    At the last position every pattern neighbour is placed, so any
    candidate fits and the lowest is taken, and the copy mask is one
    expression over `edge_rank_offsets`.  A kernel from position 0 loops
    over positions 0 and 1 and hands on to the plan's kernel from
    position 2, the one `_anchor_plans` keeps; any kernel hands on after
    `_KERNEL_LOOPS` loops.  Kernels are compiled once and cached, as the
    plans are.  The generated source holds fixed names and integers read
    from the plan, never text from a pattern spec, so `exec` runs nothing
    a caller wrote.
    """
    prev, degrees, last = plan.prev, plan.degrees, len(plan.prev) - 1
    stop = min(last, 2 if start < 2 else start + _KERNEL_LOOPS)

    def cand(p: int) -> str:
        rows = [f"a{q}" for q in prev[p]] or ["((1 << len(o)) - 1)"]
        return " & ".join(rows) + f" & ~m{p}"

    namespace: dict = {}
    lines = ["def kernel(" + ", ".join(["adj", "o", f"m{start}"] + [f"u{q}" for q in range(start)]) + "):"]
    pad = "    "
    lines += [f"{pad}a{q} = adj[u{q}]" for q in range(start) if any(q in prev[p] for p in range(start, len(prev)))]
    # a candidate's twin keys, added at the end of its loop body once its subtree has failed
    keep: list[str] = []
    for p in range(start, stop):
        skip = f"a{p} in k{p} or (t{p} := a{p} | b) in k{p}"
        if degrees[p] > len(prev[p]):
            skip = f"a{p}.bit_count() < {degrees[p]} or " + skip
        lines += [f"{pad}c{p} = {cand(p)}", f"{pad}k{p} = set()", f"{pad}while c{p}:"]
        pad += "    "
        lines += [
            f"{pad}b = c{p} & -c{p}",
            f"{pad}c{p} ^= b",
            f"{pad}a{p} = adj[u{p} := b.bit_length() - 1]",
            f"{pad}if {skip}: continue",
            f"{pad}m{p + 1} = m{p} | b",
        ]
        keep.append(f"{pad}k{p} |= {{a{p}, t{p}}}")
    if stop < last:
        namespace["tail"] = _kernel(plan, stop)
        args = ", ".join(["adj", "o", f"m{stop}"] + [f"u{q}" for q in range(stop)])
        lines += [f"{pad}w = tail({args})", f"{pad}if w is not None:", f"{pad}    return w"]
    else:
        if start <= last:
            lines += [f"{pad}c = {cand(last)}", f"{pad}if c:"]
            pad += "    "
            lines.append(f"{pad}u{last} = (c & -c).bit_length() - 1")
        ends = [(f"u{p}", f"u{q}") for p, q in plan.edges]
        witness = " | ".join(f"1 << (o[{a}] + {b} if {a} < {b} else o[{b}] + {a})" for a, b in ends)
        lines.append(f"{pad}return {witness}")
    lines += reversed(keep)
    exec(compile("\n".join(lines), "<anchor plan>", "exec"), namespace)
    return namespace["kernel"]


# keyed by the adjacency rows, not by the graph: a tuple of ints hashes and
# compares in C, where SimpleGraph's generated __hash__ and __eq__ would run
# Python code on every query
@lru_cache(maxsize=None)
def _anchor_plans(pattern_adj: tuple[int, ...]) -> _Plans:
    """One compiled plan per automorphism orbit of an oriented edge of the
    pattern g with adjacency rows `pattern_adj`: the pattern degrees of its
    anchor (a, b), which take positions 0 and 1, and its kernel from
    position 2.

    Oriented edges are taken in edge order, and (a, b) gets a plan only if
    no kept plan's anchor maps onto it by an automorphism of g.  A kept
    plan's kernel run on g itself, with its anchor placed at a and b,
    finds such an automorphism: an injective edge-preserving map of g into
    itself.

    Witnesses do not change.  If an automorphism s takes the anchor of a
    kept plan onto (a, b), then for every copy f of g anchored by (a, b)
    at a host edge, f∘s is a copy anchored by the kept plan there.  So the
    kept plan, which comes first, succeeds whenever (a, b)'s plan would,
    and the first plan to succeed is always the first of its orbit.
    """
    g = SimpleGraph(len(pattern_adj), pattern_adj)
    offsets = edge_rank_offsets(g.n)
    plans: list[tuple[int, int, _Kernel]] = []
    for x, y in g.edges():
        for a, b in ((x, y), (y, x)):
            used = 1 << a | 1 << b
            if any(kernel(g.adj, offsets, used, a, b) is not None for _, _, kernel in plans):
                continue
            plan = _anchor_plan(g, a, b)
            plans.append((plan.degrees[0], plan.degrees[1], _kernel(plan, 2)))
    return tuple(plans)


@lru_cache(maxsize=None)
def _containment_kernel(pattern_adj: tuple[int, ...]) -> _Kernel:
    """The first anchor plan of the pattern with these rows, from position
    0, which has no earlier neighbours and so ranges over every host vertex."""
    g = SimpleGraph(len(pattern_adj), pattern_adj)
    return _kernel(_anchor_plan(g, *next(g.edges())), 0)


# -- anchored queries ---------------------------------------------------


def _query_plans(pattern: SimpleGraph, n: int) -> tuple[tuple[int, ...], _Plans]:
    """(offsets, plans) for `_find_through` queries of the pattern in hosts
    on n vertices: `edge_rank_offsets(n)` and the pattern's compiled plans,
    none when the pattern has more vertices than the host."""
    return edge_rank_offsets(n), _anchor_plans(pattern.adj) if pattern.n <= n else ()


def _find_through(adj: Sequence[int], offsets: Sequence[int], plans: _Plans, u: int, v: int) -> Optional[int]:
    """A copy through host edge (u, v) as a bitmask over canonical edge
    indices, or None; `offsets` and `plans` come from `_query_plans`."""
    du, dv = adj[u].bit_count(), adj[v].bit_count()
    used = 1 << u | 1 << v
    for need_u, need_v, kernel in plans:
        if du >= need_u and dv >= need_v:
            witness = kernel(adj, offsets, used, u, v)
            if witness is not None:
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
    return _containment_kernel(pattern.adj)(g.adj, edge_rank_offsets(g.n), 0) is not None


def _guard(label: str, n: int, h, max_n: Optional[int], max_pattern: int, *, tunable: bool = False) -> SimpleGraph:
    """The pattern graph of `h`, once the entry point `label` accepts n and h.

    A pattern under 2 vertices has no edge to anchor a copy, so it is a
    ValueError; n over max_n (None: no n limit) or pattern order over
    max_pattern is a ResourceLimitError reading "<label> limited to n <= L,
    got N".  `tunable` entry points take a max_pattern keyword, and the
    hint names it.
    """
    pattern = _as_graph(h)
    if pattern.n < 2:
        raise ValueError("pattern needs at least 2 vertices")
    if max_n is not None and n > max_n:
        raise ResourceLimitError(f"{label} limited to n <= {max_n}, got {n}")
    if pattern.n > max_pattern:
        hint = f"pass max_pattern={pattern.n} to allow it" if tunable else ""
        raise ResourceLimitError(f"{label} limited to pattern order <= {max_pattern}, got {pattern.n}", hint)
    return pattern


def _twin_members(rows: Sequence[int]) -> tuple[list[int], int]:
    """The twin classes of the graph with adjacency `rows`: (members, firsts).

    members[t] is the vertex mask of the class whose first member is t, and
    0 for a vertex that is not first in its class; `firsts` is the mask of
    first members.  Twins have the same open neighbourhood (false twins) or
    the same closed one (true twins).  One dict holds both keys: an open key
    N(v) never equals a closed key N[x], since x would lie in N(v) while v
    does not lie in N[x], and no vertex has both a false and a true twin, so
    the first key that hits names the class.
    """
    first: dict[int, int] = {}
    members = [0] * len(rows)
    firsts = 0
    for v, row in enumerate(rows):
        b = 1 << v
        t = first.setdefault(row, v)
        if t == v:
            t = first.setdefault(row | b, v)
            if t == v:
                firsts |= b
        members[t] |= b
    return members, firsts


@lru_cache(maxsize=None)
def _component_bounds(pattern_adj: tuple[int, ...]) -> tuple[float, float, float, tuple[tuple[int, int, int], ...]]:
    """(least order, least top degree, dense degree, bounds) of the pattern
    with adjacency rows `pattern_adj`: bounds holds (order, matching number,
    top degree) of each component with an edge, and both minima are
    infinite when there is none.  The dense degree, the least degree that
    gets a class component hit whole, is h - 1 for a forest on h vertices
    with an edge, and infinite for any other pattern."""
    g = SimpleGraph(len(pattern_adj), pattern_adj)
    comps = components(g)
    bounds = tuple(
        (len(comp), _matching_number(pattern_adj, sum(1 << v for v in comp)), max(map(g.degree, comp)))
        for comp in comps
        if len(comp) > 1
    )
    # a forest has one edge fewer than vertices in each component
    dense = g.n - 1 if bounds and g.edge_count == g.n - len(comps) else math.inf
    return min((b[0] for b in bounds), default=math.inf), min((b[2] for b in bounds), default=math.inf), dense, bounds


def _matching_number(rows: Sequence[int], mask: int) -> int:
    """The size of a largest matching in the graph that `rows` induce on `mask`."""
    memo: dict[int, int] = {}

    def size(mask: int) -> int:
        if mask and mask not in memo:
            v = (mask & -mask).bit_length() - 1
            rest = mask ^ 1 << v
            top = mask.bit_count() // 2
            found = 0
            for w in _bits(rows[v] & rest):
                found = max(found, 1 + size(rest ^ 1 << w))
                if found == top:
                    break
            memo[mask] = found if found == top else max(found, size(rest))
        return memo.get(mask, 0)

    return size(mask)


def _class_components(
    rows: Sequence[int], dense: float, limits: tuple
) -> tuple[int, int, Optional[tuple[list[int], int]]]:
    """(hit, open, twins) of one class with adjacency `rows`: the vertex
    masks of its hit and open components, and its twin classes,
    `_twin_members(rows)`, or None when the class settles whole; the one
    settle step of the cover pass and of the climber's state.

    A component of least degree at least `dense` is hit, which is checked
    first; one that is too small for every edge-bearing component of the
    pattern, by order, cover number or top degree (`limits`, from
    `_component_bounds`), is NIM as a whole and in neither mask; the rest
    are open.

    Small components.  The component of a copy through an edge of a class
    component C is connected, so it lies inside C, and any vertex cover of
    C covers it.  So C has no copy through any of its edges when every
    pattern component H_i with an edge has more vertices than C, a larger
    top degree than C, or a matching number above |C| minus the largest
    independent twin class of C.  The rest of C is then a vertex cover of
    C, and it would cover a copy of H_i inside C with fewer vertices than
    H_i's cover number, which the matching number bounds from below (and
    equals on forests, by König's theorem).  A false-twin class or a
    single vertex is independent.

    Dense components.  When the pattern is a forest with an edge, on h
    vertices, and every vertex of C has degree at least h - 1 in the
    class, every edge of C lies in a copy: map an edge of the pattern onto
    it, then place the rest of its component in DFS order, each vertex
    next to its placed parent.  The parent has at least h - 1 neighbours,
    and at most h - 2 of them are taken, so one is free.  Each further
    pattern component is rooted at an unused vertex of C, which has one
    since |C| >= h; an isolated pattern vertex takes one too.  This is the
    greedy embedding behind the folklore bound that minimum degree t - 1
    forces every tree on t vertices.  A cycle breaks it, since the last
    vertex must meet two placed ones (K_{3,3} has minimum degree 3 and no
    K_3), and a pattern with no edge has no copy through any edge.  The
    paper's colorings are blow-ups, so their largest class is dense (an
    overlay's is the complement of disjoint cliques).

    A whole class settles first, with no twins: NIM when its vertices with
    an edge, or its top degree, fall short of every pattern component;
    hit, every vertex, when its least degree is at least `dense`.  Any
    other class has its twin classes built, the step's only twin test.
    One in which no two vertices with an edge are twins, as most classes
    of a random coloring, is open whole: each vertex with an edge heads
    its own twin class, and the isolated ones share one.  Any other class
    is split by BFS over its twin classes: the row of a class's first
    member reaches every neighbour of the class, whole twin classes at a
    time, and each component's size, least and top degree (twins share
    degree) and largest independent twin class are tracked.  The cover
    pass passes the pattern's dense degree, h - 1 for a forest on h
    vertices with an edge; the climber's state passes h, the least degree
    at which no single removal undoes the rule.
    """
    min_order, min_degree, _, bounds = limits
    degrees = list(map(int.bit_count, filter(None, rows)))
    if len(degrees) < min_order or max(degrees) < min_degree:
        return 0, 0, None
    n = len(rows)
    every = (1 << n) - 1
    if min(degrees) >= dense:  # a forest pattern embeds greedily through every edge
        return every, 0, None
    members, firsts = twins = _twin_members(rows)
    # no two vertices with an edge are twins: each heads its own twin class,
    # and the isolated ones share one
    if firsts.bit_count() == len(degrees) + (len(degrees) < n):
        return 0, every, twins
    left, open_, hit = firsts, 0, 0
    while left:
        b = left & -left
        t = b.bit_length() - 1
        if not rows[t]:  # the isolated vertices
            left ^= b
            continue
        comp, todo, free, top, low = members[t], b, 1, 0, n
        while todo:
            b = todo & -todo
            todo ^= b
            t = b.bit_length() - 1
            row = rows[t]
            d = row.bit_count()
            if d > top:
                top = d
            if d < low:
                low = d
            if not row & members[t] and members[t].bit_count() > free:
                free = members[t].bit_count()
            grown = row & ~comp
            comp |= grown
            todo |= grown & firsts
        left &= ~comp
        if low >= dense:
            hit |= comp
            continue
        size = comp.bit_count()
        if size < min_order:
            continue
        for order, matching, degree in bounds:
            if order <= size and matching <= size - free and degree <= top:
                open_ |= comp
                break
    return hit, open_, twins


def _cover_pass(coloring: EdgeColoring, pattern: SimpleGraph) -> int:
    """One cover pass by class components and twin groups: the NIM edge mask.

    An edge is NIM when a query for a copy through it in its own class
    finds none; a copy found, a bitmask of its edges in canonical order,
    covers all of its edges, so they need no query of their own.  Copies
    never leave their class.  `_class_components` settles whole
    components, hit or NIM, with no query.  In the others the edges come
    in twin groups: swapping two twins (`_twin_members`) is an
    automorphism of the class graph, so the edges between two twin
    classes, or inside one, are NIM or not together.  The paper's
    colorings are built from cliques, joins and complete bipartite pieces,
    so their classes are full of twins.  One edge per group is queried, in
    canonical order, unless a copy found earlier covers it (then the whole
    group is hit).  A twin-free class is open whole, each of its edges a
    group of its own.  The twin groups are those the settle step built for
    each class it did not settle whole.  The open components' rows are
    kept per vertex, each NIM group clears its edges from them, and the
    edges left, the hit ones, come off the full mask with one shift per
    vertex.  The mask is that of `_edge_walk`, one query per unsettled,
    uncovered edge.
    """
    n = coloring.n
    limits = _component_bounds(pattern.adj)
    dense = limits[2]
    offsets, plans = _query_plans(pattern, n)
    # rows over the other ends: hit_rows[x] holds x's edges in components
    # that are dense or need queries, less those in NIM groups
    hit_rows = [0] * n
    opened = 0  # the vertices of such components
    for rows in coloring.class_adjacency():
        hit, open_, twins = _class_components(rows, dense, limits)
        kept = open_ | hit
        opened |= kept
        for v in _bits(kept):
            hit_rows[v] |= rows[v]
        if not open_:
            continue
        members, firsts = twins
        covered = 0
        for r in _bits(open_ & firsts):
            row, mine, base = rows[r], members[r], offsets[r]
            # the first members of the later twin classes next to r, and the
            # second member of r's own class when its members are adjacent
            inside = row & mine
            for y in _bits(((row & firsts) >> (r + 1) << (r + 1)) | (inside & -inside)):
                if (covered >> (base + y)) & 1:
                    continue
                witness = _find_through(rows, offsets, plans, r, y)
                if witness is not None:
                    covered |= witness
                    continue
                # a NIM group: the edges between mine and y's class, or
                # inside mine when y is in it (y then heads no class); no
                # row holds its own vertex, so mine may clear all of theirs
                theirs = members[y] or mine
                for v in _bits(mine):
                    hit_rows[v] &= ~theirs
                for w in _bits(theirs & ~mine):
                    hit_rows[w] &= ~mine
    # every edge outside those components, or in a NIM group, is NIM
    return ((1 << complete_edge_count(n)) - 1) ^ _edge_mask(hit_rows, opened, offsets)


def _edge_mask(rows: Sequence[int], vertices: int, offsets: Sequence[int]) -> int:
    """The canonical mask of the edges in `rows` whose lower end is in the
    bitmask `vertices`: every edge at those vertices when no edge leaves
    them, as for a union of class components."""
    mask = 0
    for x in _bits(vertices):
        mask |= rows[x] >> (x + 1) << (offsets[x] + x + 1)
    return mask


def _edge_walk(
    adj: Sequence[Sequence[int]],
    colors: Sequence[int],
    offsets: Sequence[int],
    plans: _Plans,
    dependents: list[int],
    nim: int,
    hit: int,
) -> int:
    """The NIM edge mask by one query per unsettled, uncovered edge in
    canonical order.

    `adj` holds the class rows of the coloring `colors`, and `offsets` and
    `plans` come from `_query_plans` for its pattern.  `nim` and `hit` are
    the edge masks the caller settled with no query (`_class_components`):
    no settled edge is queried, and the hit ones start covered.  Each other
    edge no copy covers yet is queried in its class; its copy, when there
    is one, covers all of its edges.  `dependents` is a list with one 0 per
    edge: bit e of dependents[f] is set when the copy that first covered e
    holds f.  A settled edge gets no bit of its own, but the copies of a
    disconnected pattern can leave a component, so it may hold one.
    """
    pairs = all_pairs(len(offsets))
    covered = hit
    todo = ((1 << len(colors)) - 1) & ~(nim | hit)
    while todo:
        b = todo & -todo
        e = b.bit_length() - 1
        u, v = pairs[e]
        witness = _find_through(adj[colors[e]], offsets, plans, u, v)
        if witness is None:
            nim |= b
            todo ^= b
            continue
        fresh = witness & ~covered
        covered |= witness
        todo &= ~witness
        while witness:
            b = witness & -witness
            witness ^= b
            dependents[b.bit_length() - 1] |= fresh
    return nim


# the set bit positions of each byte value, lowest first
_BYTE_BITS = tuple(tuple(p for p in range(8) if b >> p & 1) for b in range(256))


def nim_edges(coloring: EdgeColoring, h, *, max_pattern: int = DEFAULT_MAX_PATTERN) -> NimReport:
    """All edges of the colored K_n in no monochromatic copy of the pattern, at
    any n: the coloring already holds all C(n, 2) colors."""
    pattern = _guard("NIM count", coloring.n, h, None, max_pattern, tunable=True)
    nim = _cover_pass(coloring, pattern)
    # the set bits of the mask, lowest first, byte by byte: `compress` skips
    # the zero bytes in C, and no C(n, 2)-bit int is shifted once per bit
    raw = nim.to_bytes((nim.bit_length() + 7) // 8, "little")
    edges = tuple([8 * i + p for i in compress(range(len(raw)), raw) for p in _BYTE_BITS[raw[i]]])
    per_color = [0] * coloring.k
    for c in map(coloring.colors.__getitem__, edges):
        per_color[c] += 1
    return NimReport(coloring.n, coloring.k, pattern_spec(h), edges, len(edges), tuple(per_color))
