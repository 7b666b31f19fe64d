"""Bitset-backed simple graphs and edge colorings of complete graphs.

Vertices are 0-based contiguous integers.  Every module in this package
shares one canonical edge order: the unordered pair {u, v} with u < v has
rank ``u*n - u*(u+1)//2 + (v - u - 1)``, i.e. pairs (u, v) sorted
lexicographically.  Python's unbounded ints serve as bitsets, so there is
no hard vertex limit; everything here works for n well beyond 4096.

Both `SimpleGraph` and `EdgeColoring` are frozen: hashable and usable as
cache keys.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from math import isqrt
from typing import Iterable, Iterator


def edge_index(u: int, v: int, n: int) -> int:
    """Canonical rank of the unordered pair {u, v} among the edges of K_n."""
    if u == v or not (0 <= u < n) or not (0 <= v < n):
        raise ValueError(f"invalid edge ({u}, {v}) for n={n}")
    if u > v:
        u, v = v, u
    return u * n - u * (u + 1) // 2 + (v - u - 1)


def edge_unindex(idx: int, n: int) -> tuple[int, int]:
    """Inverse of `edge_index`: the pair (u, v) with u < v at canonical rank idx."""
    m = n * (n - 1) // 2
    if not (0 <= idx < m):
        raise ValueError(f"edge index {idx} out of range for n={n}")
    d = (2 * n - 1) ** 2 - 8 * idx
    u = (2 * n - 1 - isqrt(d)) // 2
    # isqrt truncation can land one row off; fix up.
    while _row_start(u, n) > idx:
        u -= 1
    while _row_start(u + 1, n) <= idx:
        u += 1
    v = idx - _row_start(u, n) + u + 1
    return u, v


def _row_start(u: int, n: int) -> int:
    return u * n - u * (u + 1) // 2


def complete_edge_count(n: int) -> int:
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return n * (n - 1) // 2


@lru_cache(maxsize=None)
def all_pairs(n: int) -> tuple[tuple[int, int], ...]:
    """All edges of K_n in canonical order (cached and shared, hence a tuple)."""
    return tuple((u, v) for u in range(n) for v in range(u + 1, n))


@lru_cache(maxsize=None)
def edge_rank_offsets(n: int) -> tuple[int, ...]:
    """`edge_index` as a cached table: for u < v the rank of {u, v} is
    ``edge_rank_offsets(n)[u] + v``, for loops that rank many pairs of one n."""
    return tuple(_row_start(u, n) - u - 1 for u in range(n))


def _check_permutation(perm: list[int], n: int) -> None:
    if sorted(perm) != list(range(n)):
        raise ValueError(f"{perm} is not a permutation of 0..{n - 1}")


def _bits(mask: int) -> list[int]:
    out = []
    while mask:
        b = mask & -mask
        mask ^= b
        out.append(b.bit_length() - 1)
    return out


@dataclass(frozen=True)
class SimpleGraph:
    """Undirected simple graph on vertices 0..n-1 with bitset adjacency."""

    n: int
    adj: tuple[int, ...]

    def __post_init__(self):
        if len(self.adj) != self.n:
            raise ValueError(f"adjacency length {len(self.adj)} != n={self.n}")
        for v, row in enumerate(self.adj):
            if (row >> v) & 1:
                raise ValueError(f"loop at vertex {v}")

    # -- constructors -------------------------------------------------

    @staticmethod
    def empty(n: int) -> "SimpleGraph":
        return SimpleGraph(n, (0,) * n)

    @staticmethod
    def complete(n: int) -> "SimpleGraph":
        full = (1 << n) - 1
        return SimpleGraph(n, tuple(full ^ (1 << v) for v in range(n)))

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> "SimpleGraph":
        adj = [0] * n
        for u, v in edges:
            if u == v or not (0 <= u < n) or not (0 <= v < n):
                raise ValueError(f"invalid edge ({u}, {v}) for n={n}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return SimpleGraph(n, tuple(adj))

    # -- queries ------------------------------------------------------

    def has_edge(self, u: int, v: int) -> bool:
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError(f"invalid edge ({u}, {v}) for n={self.n}")
        return bool((self.adj[u] >> v) & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def neighbors(self, v: int) -> list[int]:
        return _bits(self.adj[v])

    @property
    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            rest = self.adj[u] >> (u + 1)
            v = u + 1
            while rest:
                if rest & 1:
                    yield (u, v)
                rest >>= 1
                v += 1

    def degree_sequence(self) -> tuple[int, ...]:
        return tuple(sorted((row.bit_count() for row in self.adj), reverse=True))

    def permuted(self, perm: list[int]) -> "SimpleGraph":
        """Relabel: vertex v becomes perm[v]."""
        _check_permutation(perm, self.n)
        adj = [0] * self.n
        for u, v in self.edges():
            adj[perm[u]] |= 1 << perm[v]
            adj[perm[v]] |= 1 << perm[u]
        return SimpleGraph(self.n, tuple(adj))


# -- graph operations ------------------------------------------------


def disjoint_union(g: SimpleGraph, h: SimpleGraph) -> SimpleGraph:
    n = g.n + h.n
    adj = list(g.adj) + [row << g.n for row in h.adj]
    return SimpleGraph(n, tuple(adj))


def join(g: SimpleGraph, h: SimpleGraph) -> SimpleGraph:
    """Disjoint union plus all edges between the two vertex sets."""
    n = g.n + h.n
    gmask = (1 << g.n) - 1
    hmask = ((1 << h.n) - 1) << g.n
    adj = [row | hmask for row in g.adj]
    adj += [(row << g.n) | gmask for row in h.adj]
    return SimpleGraph(n, tuple(adj))


def complement(g: SimpleGraph) -> SimpleGraph:
    full = (1 << g.n) - 1
    return SimpleGraph(g.n, tuple((full ^ row) & ~(1 << v) for v, row in enumerate(g.adj)))


def components(g: SimpleGraph) -> list[list[int]]:
    """Connected components as sorted vertex lists, ordered by smallest vertex."""
    return [sorted(order) for order in _bfs_forest(g)[0]]


def _bfs_forest(g: SimpleGraph) -> tuple[list[list[int]], list[int]]:
    """The one graph walk: each component in BFS order from its smallest vertex,
    components ordered by that vertex, and each vertex's BFS parent (-1 at a root)."""
    parent = [-1] * g.n
    orders = []
    seen = 0
    for root in range(g.n):
        if not (seen >> root) & 1:
            seen |= 1 << root
            order = [root]
            for v in order:  # the loop reaches the vertices it appends
                for w in _bits(g.adj[v] & ~seen):
                    parent[w] = v
                    order.append(w)
                seen |= g.adj[v]
            orders.append(order)
    return orders, parent


# -- edge colorings ---------------------------------------------------


_BYTE_VALUES = bytes(range(256))


def _in_palette(colors: tuple[int, ...], k: int) -> bool:
    """Whether every color, an int, is in 0..k-1."""
    try:
        # the bytes outside 0..k-1 that survive deleting the palette
        return not bytes(colors).translate(None, _BYTE_VALUES[:k])
    except ValueError:  # a color outside 0..255
        return min(colors) >= 0 and max(colors) < k


@dataclass(frozen=True)
class EdgeColoring:
    """A k-coloring of E(K_n): flat color array in canonical edge order."""

    n: int
    k: int
    colors: tuple[int, ...]

    def __post_init__(self):
        m = complete_edge_count(self.n)
        colors = self.colors
        if type(colors) is not tuple:  # a list would make the coloring unhashable
            colors = tuple(colors)
            object.__setattr__(self, "colors", colors)
        # each check is one C-level pass; a failing one scans again to name
        # the first bad edge.  `type(c) is int`, as bool is an int subclass
        # but not a JSON integer
        if list(map(type, colors)).count(int) != len(colors):
            i, c = next((i, c) for i, c in enumerate(colors) if type(c) is not int)
            raise ValueError(f"color {c!r} at edge {i} is not an integer")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if len(colors) != m:
            raise ValueError(f"colors length {len(colors)} != {m}")
        if not _in_palette(colors, self.k):
            i, c = next((i, c) for i, c in enumerate(colors) if not 0 <= c < self.k)
            raise ValueError(f"color {c} at edge {i} not in 0..{self.k - 1}")

    @staticmethod
    def monochromatic(n: int, k: int = 1) -> "EdgeColoring":
        return EdgeColoring(n, k, (0,) * complete_edge_count(n))

    @staticmethod
    def random(n: int, k: int, rng) -> "EdgeColoring":
        """Uniform color per edge in canonical order, drawn via rng.randrange(k)."""
        return EdgeColoring(n, k, tuple(rng.randrange(k) for _ in range(complete_edge_count(n))))

    def color_class(self, i: int) -> SimpleGraph:
        """The graph on 0..n-1 whose edges carry color i."""
        if not (0 <= i < self.k):
            raise ValueError(f"color {i} not in 0..{self.k - 1}")
        return SimpleGraph(self.n, tuple(self.class_adjacency()[i]))

    def class_adjacency(self) -> list[list[int]]:
        """Bitset adjacency rows of every color class: entry [i][v] is v's class-i row."""
        adj = [[0] * self.n for _ in range(self.k)]
        for (u, v), c in zip(all_pairs(self.n), self.colors):
            adj[c][u] |= 1 << v
            adj[c][v] |= 1 << u
        return adj

    def recolored(self, idx: int, color: int) -> "EdgeColoring":
        if not (0 <= color < self.k):
            raise ValueError(f"color {color} not in 0..{self.k - 1}")
        if not (0 <= idx < len(self.colors)):
            raise ValueError(f"edge index {idx} out of range for n={self.n}")
        colors = list(self.colors)
        colors[idx] = color
        return EdgeColoring(self.n, self.k, tuple(colors))

    def with_colors(self, k: int) -> "EdgeColoring":
        """Same assignment viewed with a larger palette."""
        if k < self.k:
            raise ValueError("cannot shrink palette")
        return EdgeColoring(self.n, k, self.colors)

    def permuted(self, perm: list[int]) -> "EdgeColoring":
        """Apply a vertex permutation; edge {u,v} takes the old color of {u,v}."""
        _check_permutation(perm, self.n)
        colors = [0] * len(self.colors)
        for (u, v), c in zip(all_pairs(self.n), self.colors):
            colors[edge_index(perm[u], perm[v], self.n)] = c
        return EdgeColoring(self.n, self.k, tuple(colors))

    def relabel_colors(self, sigma: list[int]) -> "EdgeColoring":
        return EdgeColoring(self.n, self.k, tuple(sigma[c] for c in self.colors))

    # -- bit-exact JSON schema ----------------------------------------

    def to_dict(self) -> dict:
        # `to_json` does not sort keys: the file order n, k, colors is the field order
        return dict(vars(self))

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @staticmethod
    def from_dict(payload: dict) -> "EdgeColoring":
        """Parse the schema.  `__post_init__` checks the colors, their types first."""
        if not isinstance(payload, dict):
            raise ValueError("coloring JSON must be an object")
        for field in ("n", "k", "colors"):
            if field not in payload:
                raise ValueError(f"coloring JSON missing field '{field}'")
        n, k, colors = payload["n"], payload["k"], payload["colors"]
        # `type(...) is int`, as bool is an int subclass but not a JSON integer
        for field, value in (("n", n), ("k", k)):
            if type(value) is not int:
                raise ValueError(f"coloring field '{field}' must be an integer, got {value!r}")
        if n < 0:
            raise ValueError(f"coloring field 'n' must be >= 0, got {n}")
        if not isinstance(colors, list):
            raise ValueError("coloring field 'colors' must be a list")
        return EdgeColoring(n, k, tuple(colors))

    @staticmethod
    def from_json(text: str) -> "EdgeColoring":
        return EdgeColoring.from_dict(json.loads(text))
