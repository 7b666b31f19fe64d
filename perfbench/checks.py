"""Answer checks for the benchmark, computed apart from the package.

Nothing here imports nimcolor.  The closed forms are the textbook ones
(Faudree-Schelp for paths, the star bound, the two construction counts),
and the NIM recount is a plain anchored backtracking search over bitset
adjacency: no cover reuse, no twin collapsing and no degree pruning, so
it shares no shortcut with the package's engine.
"""

from __future__ import annotations

from math import comb


class CheckFailed(AssertionError):
    """An answer of the program disagrees with the independent computation."""


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# -- closed forms ------------------------------------------------------------


def ex_path(n: int, length: int) -> int:
    """Faudree-Schelp: ex(n, P_l) = a*C(l-1, 2) + C(b, 2) for n = a(l-1) + b."""
    a, b = divmod(n, length - 1)
    return a * comb(length - 1, 2) + comb(b, 2)


def ex_star(n: int, leaves: int) -> int:
    """ex(n, K_{1,s}) = floor((s-1)n/2) for n >= s."""
    return (leaves - 1) * n // 2


def p2k_count(n: int, k: int) -> int:
    q = 2 * k - 1
    return q * ex_path(n, 2 * k) + (k - 1) * comb(q, 2)


def tail_count(n: int, a: int) -> int:
    x = 2 * a - 1
    return comb(x, 2) + x * (n - x)


# -- patterns ------------------------------------------------------------------


def pattern_edges(spec: str) -> tuple[int, list[tuple[int, int]]]:
    """Vertex count and edge list of path:l, star:s or spider:a,b,... ."""
    family, _, args = spec.partition(":")
    values = [int(x) for x in args.split(",")]
    if family == "path":
        (l,) = values
        return l, [(i, i + 1) for i in range(l - 1)]
    if family == "star":
        (s,) = values
        return s + 1, [(0, i) for i in range(1, s + 1)]
    if family == "spider":
        edges, nxt = [], 1
        for leg in values:
            prev = 0
            for _ in range(leg):
                edges.append((prev, nxt))
                prev, nxt = nxt, nxt + 1
        return nxt, edges
    raise ValueError(f"no independent pattern for {spec}")


class Pattern:
    """A pattern with one BFS mapping order per anchored (oriented) edge."""

    def __init__(self, spec: str):
        self.spec = spec
        self.n, self.edges = pattern_edges(spec)
        self.nbrs = [[] for _ in range(self.n)]
        for x, y in self.edges:
            self.nbrs[x].append(y)
            self.nbrs[y].append(x)
        self.plans = []
        for x, y in self.edges:
            for a, b in ((x, y), (y, x)):
                order = self._bfs(a, b)
                rank = {v: i for i, v in enumerate(order)}
                prev = [[w for w in self.nbrs[v] if rank[w] < i] for i, v in enumerate(order)]
                self.plans.append((order, prev))

    def _bfs(self, a: int, b: int) -> list[int]:
        """Anchored component first (from a, b), then any other components."""
        order, seen, head = [a, b], {a, b}, 0
        for root in range(self.n):
            if root not in seen:
                seen.add(root)
                order.append(root)
            while head < len(order):
                for w in self.nbrs[order[head]]:
                    if w not in seen:
                        seen.add(w)
                        order.append(w)
                head += 1
        return order


# -- independent search ------------------------------------------------------------


def _extend(adj, full: int, plan, image: list[int], used: int, i: int) -> bool:
    order, prev = plan
    if i == len(order):
        return True
    cand = full & ~used
    for q in prev[i]:
        cand &= adj[image[q]]
    while cand:
        bit = cand & -cand
        cand ^= bit
        image[order[i]] = bit.bit_length() - 1
        if _extend(adj, full, plan, image, used | bit, i + 1):
            return True
    return False


def copy_through(adj: list[int], n: int, pat: Pattern, u: int, v: int) -> bool:
    """Is there a copy of the pattern in `adj` that uses the edge (u, v)?"""
    image = [0] * pat.n
    for plan in pat.plans:
        order = plan[0]
        image[order[0]], image[order[1]] = u, v
        if _extend(adj, (1 << n) - 1, plan, image, (1 << u) | (1 << v), 2):
            return True
    return False


def contains(adj: list[int], n: int, pat: Pattern) -> bool:
    return any(
        copy_through(adj, n, pat, u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if (adj[u] >> v) & 1
    )


def pairs(n: int) -> list[tuple[int, int]]:
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


def nim_set(n: int, colors, pat: Pattern) -> list[int]:
    """Canonical indices of the edges in no monochromatic copy of the pattern."""
    edge_list = pairs(n)
    adjs = {}
    for (u, v), c in zip(edge_list, colors):
        adj = adjs.setdefault(c, [0] * n)
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return [
        e
        for e, ((u, v), c) in enumerate(zip(edge_list, colors))
        if not copy_through(adjs[c], n, pat, u, v)
    ]


def edge_count(adj) -> int:
    return sum(row.bit_count() for row in adj) // 2


def permute_colors(n: int, colors, perm: list[int]) -> list[int]:
    """Colors after relabeling vertex v as perm[v], in canonical edge order."""
    rank = {uv: e for e, uv in enumerate(pairs(n))}
    out = [0] * len(colors)
    for (u, v), c in zip(pairs(n), colors):
        a, b = perm[u], perm[v]
        out[rank[(min(a, b), max(a, b))]] = c
    return out
