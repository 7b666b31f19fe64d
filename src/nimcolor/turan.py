"""Exact Turan numbers: closed forms where known, brute-force oracle otherwise.

`ex_path` evaluates the path formula ex(n, P_l) = a*C(l-1,2) + C(b,2) for
n = a(l-1) + b, 0 <= b <= l-2, together with the extremal-graph recipe
(disjoint (l-1)-cliques, optionally one clique joined to independent
vertices).  `ex_balanced_forest` evaluates the balanced-forest formula for
patterns with at least two components.  `turan_oracle` maximizes edges over
all pattern-free graphs by a depth-first search over the canonical edge
order, with the vertex rules and degree caps of `search._row_caps` and
stores of earlier answers (see its docstring), and serves as an
independent cross-check on both formulas.  A node budget, not a limit
on n, bounds its work, and the recursion limit its depth.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from dataclasses import dataclass
from math import comb
from typing import Optional

from .errors import ResourceLimitError, TuranUnavailableError
from .graphs import SimpleGraph, complete_edge_count, components, disjoint_union, join
from .nim import _find_through, _guard, _query_plans, contains
from .patterns import PatternGraph, make_path, pattern_spec
from .search import DEFAULT_NODE_BUDGET, _row_caps

ORACLE_MAX_PATTERN = 12
# masks each of `turan_oracle`'s two stores keeps per edge; past this many the oldest is dropped
_KNOWN_CAP = 16


@dataclass(frozen=True)
class TuranResult:
    n: int
    pattern: str
    value: int
    method: str  # faudree_schelp | bushaw_kettle | oracle | complete (pattern order above n: K_n is H-free)
    recipe: Optional[dict] = None
    witness: Optional[SimpleGraph] = None
    below_threshold: bool = False

    def to_dict(self) -> dict:
        payload = dict(vars(self))
        del payload["witness"]
        if self.witness is not None:
            payload["witness_edges"] = sorted(self.witness.edges())
        return payload


# -- paths ---------------------------------------------------------------


def ex_path(n: int, length: int) -> TuranResult:
    """Maximum edges of an n-vertex graph with no path on `length` vertices."""
    t_range = path_extremal_t_range(n, length)
    a, b = divmod(n, length - 1)
    value = a * comb(length - 1, 2) + comb(b, 2)
    recipe = {"a": a, "b": b, "t_range": list(t_range)}
    return TuranResult(n, f"path:{length}", value, "faudree_schelp", recipe)


def path_extremal_t_range(n: int, length: int) -> range:
    """Valid t for `extremal_path_graph`: 0..a in the even split cases, else just a."""
    if length < 2:
        raise ValueError("path length must be >= 2 vertices")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    a, b = divmod(n, length - 1)
    if length % 2 == 0 and b in (length // 2, length // 2 - 1):
        return range(0, a + 1)
    return range(a, a + 1)


def extremal_path_graph(n: int, length: int, t: int) -> SimpleGraph:
    """An n-vertex graph with ex(n, P_length) edges and no path on `length` vertices.

    With t maximal this is t disjoint (length-1)-cliques plus one b-clique;
    for even `length` and the two remainder values that allow it, smaller t
    replaces leftover cliques with a (length/2-1)-clique joined to
    independent vertices.  Edge count and path-freeness are asserted.
    """
    valid = path_extremal_t_range(n, length)
    a, b = divmod(n, length - 1)
    if t not in valid:
        raise ValueError(f"t={t} invalid for n={n}, length={length}: allowed t in {list(valid)} (a={a}, b={b})")
    if t < a:
        g = near_extremal_path_graph(n, length // 2, t)
    else:
        g = disjoint_union(*[SimpleGraph.complete(length - 1)] * t, SimpleGraph.complete(b))
    expected = ex_path(n, length).value
    if g.edge_count != expected:
        raise AssertionError(f"extremal graph has {g.edge_count} edges, expected {expected}")
    if contains(g, make_path(length).graph):
        raise AssertionError("extremal graph contains the forbidden path")
    return g


def near_extremal_path_graph(n: int, k: int, t: int) -> SimpleGraph:
    """The t-clique family for even paths P_2k at arbitrary n (not always extremal).

    Defined whenever n - t(2k-1) - (k-1) >= 0.  It has (k-1)(n-k+1) + C(k-1,2)
    edges for every t: ex(n, P_2k) - C(d+1,2), where d is the distance of
    n mod 2k-1 from {k-1, k}.
    """
    rest = n - t * (2 * k - 1) - (k - 1)
    if k < 1 or t < 0 or rest < 0:
        raise ValueError(f"invalid near-extremal parameters n={n}, k={k}, t={t}")
    cliques = [SimpleGraph.complete(2 * k - 1)] * t
    return disjoint_union(*cliques, join(SimpleGraph.complete(k - 1), SimpleGraph.empty(rest)))


# -- balanced forests ------------------------------------------------------


def ex_balanced_forest(n: int, h: PatternGraph) -> TuranResult:
    """Turan number of a balanced forest with >= 2 components, order 2m.

    Value is C(m-1,2) + (m-1)(n-m+1) when the forest has a perfect
    matching and (m-1)(n-m+1) otherwise.  The formula is certified only
    for n past a threshold that is astronomically large at these sizes;
    below it the result carries `below_threshold=True`.
    """
    g = h.graph
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if len(components(g)) < 2:
        raise ValueError("pattern must have at least two components")
    if g.n % 2 == 1:
        raise ValueError("pattern must have even order")
    if not h.balanced:  # balanced implies a forest
        raise ValueError("pattern must be a balanced forest (equal classes per component)")
    m = g.n // 2
    base = (m - 1) * (n - m + 1)
    value = base + (comb(m - 1, 2) if h.has_perfect_matching else 0)
    threshold = 3 * m * m + 32 * m * m * comb(2 * m, m)
    return TuranResult(
        n,
        h.spec,
        value,
        "bushaw_kettle",
        recipe={"half_order": m, "perfect_matching": h.has_perfect_matching},
        below_threshold=n < threshold,
    )


# -- brute-force oracle ------------------------------------------------------


def turan_oracle(n: int, h, *, budget: int = DEFAULT_NODE_BUDGET, max_pattern: int = ORACLE_MAX_PATTERN) -> TuranResult:
    """Exact maximum edges over all pattern-free n-vertex graphs, by search;
    raises `ResourceLimitError` past `budget` nodes, one per edge decided:
    each pass of the search's loop, which makes at most one anchored query.

    Depth-first over the canonical edge order; each edge is included (when
    that creates no copy of the pattern through it) or excluded.  Including
    recurses; excluding, always the last step, is the loop's next pass, so
    the recursion is as deep as the included edges, unknown up front:
    passing the recursion limit R is a `ResourceLimitError` where it
    happens, or at once for n >= 2R, where a pattern of two or more edges
    needs ex(n, H) >= n // 2 of them (a perfect matching or a star has no
    copy); a one-edge pattern there has ex = 0 once it fits.

    Only graphs that keep the vertex rules of `search._row_caps`, read on
    the one graph, are kept; every graph has such a relabeling, so the
    maximum is unaffected.  Each row is a prefix inside each block, so
    excluding (u, v) excludes the rest of v's block and jumps to the next
    block start, or to the next row; an edge is included only while u
    stays within its cap.  Two bounds prune a branch that cannot beat the
    best found: the undecided edges could all be included, and the graph
    has at most (deg(0) + ... + deg(u-1) + the sum of the caps of
    u..n-1) / 2 edges.  That cap is computed as row u starts and tested
    at every edge.
    Attaches a witness: the first maximal graph in search order that keeps
    the vertex rules.

    Before querying an edge idx, the search checks two stores of earlier
    answers for idx in this call, each at most `_KNOWN_CAP` masks, newest
    first.  `known[idx]` holds the copies found through idx, each as its
    edge mask minus idx: one inside the included edges g means g plus idx
    contains that copy, so the edge is excluded.  `free[idx]` holds the
    masks g for which g plus idx had no copy through idx: g inside one of
    them means g plus idx has none either, because a pattern-free graph's
    subgraphs are pattern-free, so the edge is included.  `known` is
    checked first; its hits are the more common.  Each store answers only
    what the query would have answered, so the nodes, the maximum and the
    witness are those of the search without the stores.  They fill only at
    the edges reached, walked by their ends: no C(n, 2) table is built.
    """
    pattern = _guard("oracle", n, h, None, max_pattern, tunable=True)
    if pattern.edge_count == 0:
        raise ValueError("pattern needs at least one edge")
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")

    limit = sys.getrecursionlimit()
    refusal = ResourceLimitError(f"oracle passed the recursion limit {limit}", "sys.setrecursionlimit raises it")
    if n // 2 >= limit:  # ex(n, H) >= n // 2 nested calls, unless H is one edge
        if pattern.edge_count == 1 and pattern.n <= n:
            return TuranResult(n, pattern_spec(h), 0, "oracle", witness=SimpleGraph(n, (0,) * n))
        raise refusal

    m = complete_edge_count(n)
    offsets, plans = _query_plans(pattern, n)
    adj = [0] * n
    best, nodes = -1, 0
    best_adj: tuple[int, ...] = tuple(adj)
    # known[idx]: copies found through edge idx, minus idx, newest first;
    # free[idx]: included-edge masks g where g plus idx had no copy through idx
    known, free = defaultdict(list), defaultdict(list)

    def rec(idx: int, u: int, v: int, count: int, done: int, g: int, caps: list[int], starts: int, cap: int) -> None:
        # (u, v): edge idx, with v = n for (u + 1, u + 2);
        # done: the degree sum of the vertices whose rows are finished;
        # g: the included edges as a mask over canonical edge indices;
        # caps, starts: the vertex rules' state (`_row_caps`); cap: the
        # row's edge cap; all three fixed while row u runs
        nonlocal best, best_adj, nodes
        while True:  # edge idx: include it by a call, then exclude it by looping
            nodes += 1
            if nodes > budget:
                limit = f"oracle passed its budget of {budget} nodes"
                raise ResourceLimitError(limit, "pass a larger budget= to allow it")
            if count + (m - idx) <= best:
                return
            if idx == m:
                if n >= 2 and adj[n - 1].bit_count() > _row_caps(adj, n - 1, caps, starts)[0][n - 1]:
                    return
                best = count
                best_adj = tuple(adj)
                return
            if v == n:
                u, v = u + 1, u + 2
            if u and v == u + 1:
                # row u is starting: the degrees of 0..u-1 are final, and u's can only grow
                done += adj[u - 1].bit_count()
                caps, starts = _row_caps(adj, u, caps, starts)
                if adj[u].bit_count() > caps[u]:
                    return
                cap = (done + sum(caps[u:])) // 2
            if cap <= best:  # best can rise within a row
                return
            # include first so good solutions tighten the bound early
            if adj[u].bit_count() < caps[u]:
                rests = known[idx]
                for rest in rests:
                    if rest & g == rest:
                        break  # g plus idx holds a copy found before
                else:
                    bu, bv = 1 << u, 1 << v
                    adj[u] |= bv
                    adj[v] |= bu
                    frees = free[idx]
                    for f in frees:
                        if g & f == g:
                            copy = None  # g lies inside a graph with no copy through idx
                            break
                    else:
                        copy = _find_through(adj, offsets, plans, u, v)
                        store, mask = (frees, g) if copy is None else (rests, copy & ~(1 << idx))
                        store.insert(0, mask)
                        if len(store) > _KNOWN_CAP:
                            store.pop()
                    if copy is None:
                        rec(idx + 1, u, v + 1, count + 1, done, g | 1 << idx, caps, starts, cap)
                    adj[u] ^= bv
                    adj[v] ^= bu
            # row u is a prefix inside each block, so excluding (u, v) excludes
            # the rest of v's block: on to the next block start, or the next row
            rest = starts >> (v + 1)
            step = (rest & -rest).bit_length() if rest else n - v
            idx, v = idx + step, v + step

    try:
        # row 0: no degree cap, and m edges bound nothing the first test misses
        rec(0, 0, 1, 0, 0, 0, [n] * n, 0b10, m)
    except RecursionError as exc:
        raise refusal from exc
    witness = SimpleGraph(n, best_adj)
    if contains(witness, pattern):
        raise AssertionError("oracle witness contains the pattern")
    if witness.edge_count != best:
        raise AssertionError("oracle witness edge count mismatch")
    return TuranResult(n, pattern_spec(h), best, "oracle", witness=witness)


# -- dispatcher ---------------------------------------------------------------


def turan_value(n: int, h: PatternGraph, *, allow_oracle: bool = True) -> TuranResult:
    """Best available Turan value for a pattern: formula if known, else the oracle
    at any n; a `TuranUnavailableError` past the oracle's limits names the one met."""
    if h.vertex_count > n:  # no copy fits in K_n, whatever the pattern's family
        return TuranResult(n, h.spec, complete_edge_count(n), "complete")
    if h.family == "path":
        return ex_path(n, h.vertex_count)
    # a balanced pattern is a forest of even order: each tree has equal sides
    if h.balanced and len(components(h.graph)) >= 2:
        return ex_balanced_forest(n, h)
    unavailable = f"no Turan value available for {h.spec} at n={n}"
    if allow_oracle:
        try:
            return turan_oracle(n, h)
        except ResourceLimitError as exc:  # past the oracle's default limits
            raise TuranUnavailableError(f"{unavailable}: {exc.limit}") from exc
    raise TuranUnavailableError(unavailable)
