"""Bitset-backed simple graphs and edge colorings of complete graphs.

Vertices are 0-based contiguous integers.  Every module in this package
shares one canonical edge order: the unordered pair {u, v} with u < v has
rank ``u*n - u*(u+1)//2 + (v - u - 1)``, i.e. pairs (u, v) sorted
lexicographically.  Python's unbounded ints serve as bitsets, so there is
no hard vertex limit; everything here works for n well beyond 4096.

Both `SimpleGraph` and `EdgeColoring` are frozen: hashable and usable as
cache keys.  An `EdgeColoring` keeps its colors as a tuple field and,
outside its fields, as one `bytes` copy: colors handed over as bytes (the
builders in constructions.py and `from_json`) skip the per-edge type scan,
and the palette check, `_class_rows`'s byte matrix and `to_json` read the
copy.  It builds its class rows from its own colors on first use, with
`_class_rows`, and keeps them outside its fields too.  Equality, hashing,
repr and the JSON schema read the fields alone.  A coloring file is
`json.dumps` of that schema: `to_json` writes it and `from_json` reads it
in a few C-level passes when every color is one digit, and through `json`
otherwise.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, fields
from functools import cached_property, lru_cache
from itertools import repeat
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
    # the row is floor((2n - 1 - sqrt(d)) / 2), and isqrt(d) <= sqrt(d) keeps
    # this estimate at or above it, so the fix-up only ever steps down
    while _row_start(u, n) > idx:
        u -= 1
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
    """Undirected simple graph on vertices 0..n-1 with bitset adjacency.

    Each row is checked for a loop and for a bit at or past n.  Symmetry
    is not checked: a per-edge check cost about 0.2 ms per op of the
    benchmark's overlay colorings, on a 2-core machine.
    """

    n: int
    adj: tuple[int, ...]

    def __post_init__(self):
        n = self.n
        if len(self.adj) != n:
            raise ValueError(f"adjacency length {len(self.adj)} != n={n}")
        for v, row in enumerate(self.adj):
            if (row >> v) & 1:
                raise ValueError(f"loop at vertex {v}")
            if row >> n:
                raise ValueError(f"vertex {v} has a neighbour at or past n={n}")

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

    def permuted(self, perm: list[int]) -> "SimpleGraph":
        """Relabel: vertex v becomes perm[v]."""
        _check_permutation(perm, self.n)
        adj = [0] * self.n
        for u, v in self.edges():
            adj[perm[u]] |= 1 << perm[v]
            adj[perm[v]] |= 1 << perm[u]
        return SimpleGraph(self.n, tuple(adj))


# -- graph operations ------------------------------------------------


def disjoint_union(*graphs: SimpleGraph) -> SimpleGraph:
    """The graphs side by side, each one's vertices numbered after the previous ones'."""
    adj: list[int] = []
    for g in graphs:
        offset = len(adj)
        adj += [row << offset for row in g.adj]
    return SimpleGraph(len(adj), tuple(adj))


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


# ASCII "0" for every byte value: `_class_rows` swaps in "1" for its class
# and a space for the row separator
_ZEROS = b"0" * 256


def _class_rows(n: int, k: int, colors: tuple[int, ...], flat: bytes | None) -> list[list[int]]:
    """Bitset rows of every color class of the coloring of K_n with k colors
    `colors`, and `flat` the same colors as bytes: entry [c][v] is v's
    class-c row.

    Past the crossover the rows come from one n x (n + 1) byte matrix: row u
    holds u's edge colors, byte k on the diagonal and byte k + 1 as its last,
    filled from `flat` by one slice and one strided slice per vertex.
    Reversed, each class is one `translate` to ASCII bits, with the
    separators as spaces, and one `split` into rows that `int` reads in base
    2, so O(n) Python steps plus O(k) C-level passes where the per-edge loop
    takes C(n, 2) steps.  The loop reads the tuple.  It serves palettes past
    254 colors, which leave no two byte values free (and may have no
    `flat`), and hosts below the crossover n = 14 + 4k, read from
    timeit on random colorings (best of 5 alternating rounds, 2 cores,
    Python 3.11), loop against pass: 13.4 against 17.5 µs at (n, k) =
    (14, 2), 24.1 against 30.3 at (20, 3), 29.3 against 28.2 at (22, 2),
    45.8 against 43.0 at (28, 3), 51.2 against 56.0 at (30, 4), 102
    against 92 at (38, 6) and 218 against 166 at (48, 8).
    """
    if k > 254 or n < 14 + 4 * k:
        adj = [[0] * n for _ in range(k)]
        color = iter(colors)  # in canonical order, row by row
        for u in range(n):
            bu = 1 << u
            for v in range(u + 1, n):
                rows = adj[next(color)]
                rows[u] |= 1 << v
                rows[v] |= bu
        return adj
    width = n + 1
    matrix = bytearray([k]) * (n * width)
    matrix[n::width] = bytes([k + 1]) * n
    start = 0
    for u in range(n):
        stop = start + n - 1 - u
        upper = flat[start:stop]  # u's edges to v = u + 1..n - 1, in canonical order
        matrix[u * width + u + 1 : u * width + n] = upper
        matrix[(u + 1) * width + u :: width] = upper
        start = stop
    # reversed, the last vertex's row comes first and each row reads from
    # vertex n - 1 down to 0, the order `int` reads bits in
    matrix.reverse()
    table = _ZEROS[: k + 1] + b" " + _ZEROS[k + 2 :]
    rows = []
    for c in range(k):
        bits = matrix.translate(table[:c] + b"1" + table[c + 1 :]).split()
        rows.append(list(map(int, reversed(bits), repeat(2))))
    return rows


@dataclass(frozen=True)
class EdgeColoring:
    """A k-coloring of E(K_n): flat color array in canonical edge order.

    `colors` may be given as any sequence of ints and is kept as a tuple.
    Beside it, outside the fields, the coloring keeps one exact `bytes`
    copy of its colors, None when a color is past 255.  A `bytes` or
    `bytearray` argument hands that copy over: its entries are plain ints
    in 0..255, so it skips the type scan, and changing a `bytearray` later
    changes nothing.  Any other sequence gets the copy from the palette
    check.  Its class rows are built once, on first use, and kept outside
    the fields too; `class_adjacency` hands out fresh lists.
    """

    n: int
    k: int
    colors: tuple[int, ...]

    def __post_init__(self):
        m = complete_edge_count(self.n)
        colors = self.colors
        if isinstance(colors, (bytes, bytearray)):
            flat = bytes(colors)  # a copy of a bytearray; each entry an int in 0..255
            colors = tuple(flat)
            object.__setattr__(self, "colors", colors)
        else:
            flat = None
            if type(colors) is not tuple:  # a list would make the coloring unhashable
                colors = tuple(colors)
                object.__setattr__(self, "colors", colors)
            # each check is one C-level pass; a failing one scans again to
            # name the first bad edge.  `type(c) is int`, as bool is an int
            # subclass but not a JSON integer
            if list(map(type, colors)).count(int) != len(colors):
                i, c = next((i, c) for i, c in enumerate(colors) if type(c) is not int)
                raise ValueError(f"color {c!r} at edge {i} is not an integer")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if len(colors) != m:
            raise ValueError(f"colors length {len(colors)} != {m}")
        try:
            if flat is None:
                flat = bytes(colors)
            # no byte outside 0..k-1 survives deleting the palette
            in_palette = not flat.translate(None, _BYTE_VALUES[: self.k])
        except ValueError:  # a color outside 0..255, so no bytes to keep
            in_palette = min(colors) >= 0 and max(colors) < self.k
        if not in_palette:
            i, c = next((i, c) for i, c in enumerate(colors) if not 0 <= c < self.k)
            raise ValueError(f"color {c} at edge {i} not in 0..{self.k - 1}")
        self.__dict__["_bytes"] = flat  # outside the fields, like `_rows`

    @staticmethod
    def monochromatic(n: int, k: int = 1) -> "EdgeColoring":
        return EdgeColoring(n, k, bytes(complete_edge_count(n)))

    @staticmethod
    def random(n: int, k: int, rng) -> "EdgeColoring":
        """Uniform color per edge in canonical order, drawn via rng.randrange(k)."""
        return EdgeColoring(n, k, tuple(rng.randrange(k) for _ in range(complete_edge_count(n))))

    def color_class(self, i: int) -> SimpleGraph:
        """The graph on 0..n-1 whose edges carry color i."""
        if not (0 <= i < self.k):
            raise ValueError(f"color {i} not in 0..{self.k - 1}")
        return SimpleGraph(self.n, tuple(self._rows[i]))

    @cached_property
    def _rows(self) -> list[list[int]]:
        """The class rows, built on first use and kept outside the fields.
        Nothing changes them in place."""
        return _class_rows(self.n, self.k, self.colors, self._bytes)

    def class_adjacency(self) -> list[list[int]]:
        """Bitset adjacency rows of every color class: entry [i][v] is v's
        class-i row.  The lists are fresh copies of the kept rows."""
        return [row[:] for row in self._rows]

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
        n = self.n
        _check_permutation(perm, n)
        offsets = edge_rank_offsets(n)
        old = self.colors
        colors = [0] * len(old)
        start = 0
        for u in range(n):
            pu, stop = perm[u], start + n - 1 - u
            for pv, c in zip(perm[u + 1 :], old[start:stop]):
                colors[offsets[pu] + pv if pu < pv else offsets[pv] + pu] = c
            start = stop
        return EdgeColoring(n, self.k, tuple(colors))

    # -- bit-exact JSON schema ----------------------------------------

    def to_dict(self) -> dict:
        # the fields alone, not the kept rows; `json.dumps` does not sort
        # keys, so the file order n, k, colors is the field order
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def to_json(self) -> str:
        """Exactly `json.dumps(self.to_dict())`.  Up to 10 colors, each color
        is one ASCII digit, so the colors array is one `translate` and one
        strided slice assignment over a ", " filled buffer."""
        n, k, colors = self.n, self.k, self.colors
        # formatted as JSON writes them only if ints: a palette k = True is `true`
        if type(n) is not int or type(k) is not int or k > 10 or not colors:
            return json.dumps(self.to_dict())
        body = bytearray(b"0, ") * len(colors)
        body[::3] = self._bytes.translate(_VALUE_DIGITS)
        del body[-2:]
        return f'{{"n": {n}, "k": {k}, "colors": [{body.decode("ascii")}]}}'

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
        """Parse a coloring file: the canonical layout by `_canonical_fields`,
        any other text by `json.loads` and `from_dict`.  Both accept the same
        texts and raise the same errors: the fast path takes only texts that
        `json.loads` reads as that dict, and `__post_init__` checks either."""
        found = _canonical_fields(text)
        if found is None:
            return EdgeColoring.from_dict(json.loads(text))
        return EdgeColoring(*found)


# the head of `json.dumps` of a coloring, up to its colors: n and k as JSON
# writes integers, with no leading zero, and short enough that `int` reads
# them under its digit limit
_CANONICAL_HEAD = re.compile(rb'\{"n": (0|[1-9][0-9]{0,17}), "k": (0|[1-9][0-9]{0,17}), "colors": \[')
_VALUE_DIGITS = bytes.maketrans(bytes(range(10)), b"0123456789")
_DIGIT_VALUES = bytes.maketrans(b"0123456789", bytes(range(10)))


def _canonical_fields(text: str) -> tuple[int, int, bytes] | None:
    """(n, k, colors) of `{"n": N, "k": K, "colors": [d, d, ...]}` with one
    digit per color and optional trailing JSON whitespace, else None.  The
    colors are bytes, one per edge, which `EdgeColoring` takes as they are.

    The body between the brackets is checked by three strided slices,
    digits, commas and spaces, so it is exactly "d, d, ..., d"."""
    if not (isinstance(text, str) and text.isascii()):
        return None
    data = text.encode("ascii").rstrip(b" \t\n\r")  # JSON's whitespace, no form feed
    head = _CANONICAL_HEAD.match(data)
    if head is None or not data.endswith(b"]}"):
        return None
    body = data[head.end() : -2]
    m = len(body) // 3 + 1  # colors, if the body is "d, d, ..., d"
    digits = body[::3]
    if (
        len(body) != 3 * m - 2
        or not digits.isdigit()
        or body[1::3].count(b",") != m - 1
        or body[2::3].count(b" ") != m - 1
    ):
        return None
    return int(head[1]), int(head[2]), digits.translate(_DIGIT_VALUES)
