"""Explicit edge colorings with many NIM edges, with built-in verification.

Three families:

* `extremal_overlay`: red class = any given pattern-free graph, blue class =
  its complement.  Every red edge is NIM, so the NIM count is at least the
  red edge count.
* `tail_forest_coloring`: K_n split into a block X of 2a-1 vertices and the
  rest Y; all X-Y edges red, both sides' internal edges blue.  For a
  two-component balanced forest whose components have 2a vertices each and
  which has no perfect matching, the NIM set is exactly the red edges plus
  the blue X-clique.
* `p2k_multicoloring`: a 2k-coloring built from a clique decomposition of a
  (2k-1)^2-vertex block U by modular-arithmetic cliques (2k-1 parallel
  classes of 2k-1 disjoint (2k-1)-cliques each, requiring 2k-1 prime),
  arranged so that each of the first 2k-1 color classes is a disjoint union
  of cliques plus one clique joined to independent vertices, i.e. exactly
  the near-extremal family for the path on 2k vertices.  Each edge's color
  is computed from its cells' coordinates mod 2k-1; the layout tables
  that `verify_layout` checks are built apart from the colors.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .graphs import (
    EdgeColoring,
    SimpleGraph,
    complete_edge_count,
    components,
    edge_rank_offsets,
)
from .nim import contains
from .patterns import PatternGraph


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


# -- extremal overlay ----------------------------------------------------


def extremal_overlay(n: int, h, red: SimpleGraph) -> EdgeColoring:
    """2-coloring whose color 0 is the given pattern-free graph on n vertices."""
    if red.n != n:
        raise ValueError(f"red graph has {red.n} vertices, expected {n}")
    if contains(red, h):
        raise ValueError("red graph contains the pattern")
    offsets = edge_rank_offsets(n)
    colors = bytearray(b"\1") * complete_edge_count(n)
    for u, v in red.edges():  # u < v
        colors[offsets[u] + v] = 0
    return EdgeColoring(n, 2, colors)


# -- tail / forest construction -------------------------------------------


def tail_forest_coloring(n: int, a: int) -> EdgeColoring:
    """Red complete bipartite K_{2a-1, n-2a+1}, blue cliques on both sides.

    X is vertices 0..2a-2.  Requires n >= 6a-1 so the blue clique on Y is
    big enough (>= 4a vertices) that every blue Y-edge lies in a blue copy
    of the target forest, making the NIM set exactly computable.
    """
    if a < 2:
        raise ValueError("a must be >= 2")
    if n < 4 * a + (2 * a - 1):
        raise ValueError(f"n={n} too small; need n >= {6 * a - 1} for a={a}")
    x_size = 2 * a - 1  # red (0) between X and Y, blue (1) within each side
    colors = bytearray()
    for u in range(x_size):  # row u: blue to the rest of X, then red to all of Y
        colors += b"\1" * (x_size - 1 - u) + bytes(n - x_size)
    colors += b"\1" * complete_edge_count(n - x_size)  # the blue clique on Y
    return EdgeColoring(n, 2, colors)


def tail_coloring_for(n: int, h: PatternGraph) -> tuple[EdgeColoring, int]:
    """Validate that h fits the two-component forest family, then color.

    Accepts a balanced forest with exactly two components of 2a vertices
    each and no perfect matching; rejects anything else (in particular
    forests that do have a perfect matching, for which the exact NIM count
    claim fails).
    """
    g = h.graph
    comps = components(g)
    if len(comps) != 2:
        raise ValueError(f"pattern must have exactly two components, got {len(comps)}")
    if g.n % 4 != 0:
        raise ValueError("pattern order must be 4a")
    a = g.n // 4
    if any(len(c) != 2 * a for c in comps):
        raise ValueError("both components must have 2a vertices")
    if not h.balanced:  # balanced implies a forest
        raise ValueError("pattern must be a balanced forest")
    if h.has_perfect_matching:
        raise ValueError("pattern admits a perfect matching; exact count claim needs none")
    return tail_forest_coloring(n, a), a


# -- the 2k-coloring from a clique decomposition ---------------------------


@dataclass(frozen=True)
class P2kConstructionLayout:
    """Vertex bookkeeping for `p2k_multicoloring`.

    The block U is the first (2k-1)^2 vertices, arranged in 2k-1 rows of
    2k-1; cell [i, j] (1-based row i, column j) is vertex
    (i-1)*(2k-1) + (j-1).  sigma[j-1][i-1] lists the clique with one vertex
    per row, row m holding column i + (m-1)*j (mod 2k-1, into 1..2k-1).
    sigma_diamond[j-1] is sigma[j-1][0] restricted to rows k+1..2k-1.  W is
    the rest.
    """

    k: int
    n: int
    rows: tuple[tuple[int, ...], ...]
    sigma: tuple[tuple[tuple[int, ...], ...], ...]
    sigma_diamond: tuple[tuple[int, ...], ...]
    w: tuple[int, ...]

    @property
    def block(self) -> int:
        return 2 * self.k - 1

    def vertex(self, i: int, j: int) -> int:
        """Vertex id of cell [i, j], 1 <= i, j <= 2k-1."""
        q = self.block
        if not (1 <= i <= q and 1 <= j <= q):
            raise ValueError(f"cell [{i}, {j}] out of range for block {q}")
        return (i - 1) * q + (j - 1)

    def to_dict(self) -> dict:
        side = range(1, self.block + 1)
        return {**vars(self), "label_map": [[i, j, self.vertex(i, j)] for i in side for j in side]}


def build_p2k_layout(n: int, k: int) -> P2kConstructionLayout:
    if k < 2:
        raise ValueError("k must be >= 2")
    q = 2 * k - 1
    if not _is_prime(q):
        raise ValueError(f"primality required for disjointness: 2k-1 = {q} is composite")
    if n < q * q + 1:
        raise ValueError(f"n={n} too small; need n >= {q * q + 1}")
    cell = lambda i, j: (i - 1) * q + (j - 1)
    rows = tuple(tuple(cell(i, j) for j in range(1, q + 1)) for i in range(1, q + 1))
    sigma = tuple(
        tuple(
            tuple(cell(m, (i - 1 + (m - 1) * j) % q + 1) for m in range(1, q + 1))
            for i in range(1, q + 1)
        )
        for j in range(1, q + 1)
    )
    diamond = tuple(per_j[0][k:] for per_j in sigma)  # rows k+1..2k-1 of sigma[j][1]
    w = tuple(range(q * q, n))
    return P2kConstructionLayout(k, n, rows, sigma, diamond, w)


def p2k_multicoloring(n: int, k: int) -> tuple[EdgeColoring, P2kConstructionLayout]:
    """The 2k-coloring of K_n whose first 2k-1 classes are near-extremal for P_2k.

    With q = 2k-1, cell (r, c) of U (0-based) is vertex r*q + c.  Two cells
    in rows r < s lie on the line of AG(2, q) of slope j = (c' - c)/(s - r)
    mod q, read in 1..q: a clique sigma[j][i] of the layout.  Their edge
    gets color j-1, except on the sub-clique of each sigma[j][1] on rows
    1..k, which gets 2k-1.  A cell of row r >= k lies on the diamond of
    j = c/r, and its edges to W get j-1.  Every other edge (within a row,
    rows 1..k to W, within W) gets the catch-all color 2k-1.  Dividing by
    s - r needs an inverse mod q for every nonzero s - r, which is why q
    must be prime.

    The colors are written row by row in canonical edge order, so each
    cell's edges to a later row are one rotation of a q-byte table for
    s - r.  They are filled in one byte per edge, so 2k <= 256: the next
    prime 2k-1 = 257 needs n > 66,049, over 2 * 10^9 edges.
    """
    layout = build_p2k_layout(n, k)
    q = last = layout.block  # the block side, and the catch-all color
    fill = bytes([last])
    # slope[d][q - c + x] is the color from cell (r, c) to (r + d, x), doubled so a slice rotates
    slope = [b""] + [bytes((x * pow(d, -1, q) % q or q) - 1 for x in range(q)) * 2 for d in range(1, q)]
    colors = bytearray()
    for r in range(q):
        for c in range(q):
            colors += fill * (q - 1 - c)
            for d in range(1, q - r):
                colors += slope[d][q - c : 2 * q - c]
            # the diamond through (r, c), r >= k, is the line from (0, 0) to it
            colors += (slope[r][c : c + 1] if r >= k else fill) * (n - q * q)
    colors += fill * complete_edge_count(n - q * q)
    offset = edge_rank_offsets(n)
    for j in range(q):  # sigma[j or q][1] holds cell (m, m*j mod q) of each row m < k
        cells = [m * q + m * j % q for m in range(k)]
        for s, u in enumerate(cells):
            for v in cells[s + 1 :]:
                colors[offset[u] + v] = last
    return EdgeColoring(n, 2 * k, colors), layout


def p2k_expected_nim(n: int, k: int) -> int:
    """NIM count of `p2k_multicoloring(n, k)` for P_2k, exact at every n.

    With q = 2k-1, each color j < q is q-1 copies of K_q plus K_{k-1} joined
    to an independent set (rows 1..k of sigma[j][1] and all of W): the
    `near_extremal_path_graph`, with (k-1)(n-k+1) + C(k-1, 2) edges for any t.
    No component has a P_2k, so all these edges are NIM.  In color q, rows
    k+1..q are isolated copies of K_q, whose (k-1)*C(q, 2) edges are NIM;
    every other edge lies on a P_2k through W, non-empty as n > q^2.  Like
    `build_p2k_layout`, it refuses k < 2 and n <= q^2; it does not ask q to
    be prime.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    q = 2 * k - 1
    if n < q * q + 1:
        raise ValueError(f"n={n} too small; need n >= {q * q + 1}")
    return q * ((k - 1) * (n - k + 1) + comb(k - 1, 2)) + (k - 1) * comb(q, 2)


@dataclass(frozen=True)
class LayoutReport:
    ok: bool
    violations: tuple[str, ...]
    stats: dict

    def to_dict(self) -> dict:
        return dict(vars(self))


def verify_layout(layout: P2kConstructionLayout) -> LayoutReport:
    """Re-check the decomposition identities extensionally from the tables.

    Checks: every sigma clique picks one vertex per row; the row cliques
    plus all sigma cliques cover each edge of U exactly once (so in
    particular no two parallel classes share an edge); the diamonds are
    pairwise vertex-disjoint, exactly cover rows k+1..2k-1 and lie inside
    sigma[j][1].
    """
    k, q = layout.k, layout.block
    violations = []
    row_of = {v: v // q for v in range(q * q)}
    every_row = set(range(q))

    for j in range(q):
        for i in range(q):
            verts = layout.sigma[j][i]
            if len(verts) != q or len(set(verts)) != q:
                violations.append(f"sigma[{j + 1}][{i + 1}] is not a {q}-clique vertex set")
                continue
            if set(map(row_of.get, verts)) != every_row:  # q distinct vertices, one per row
                violations.append(f"sigma[{j + 1}][{i + 1}] does not meet every row once")

    # edge coverage of U: rows + all sigma cliques, each edge exactly once
    total_u_edges = comb(q * q, 2)
    if not _covers_exactly(list(layout.rows) + [c for per_j in layout.sigma for c in per_j], q * q):
        violations += _coverage_violations(layout, total_u_edges)

    # diamond vertex-decomposition of rows k+1..2k-1
    tail_rows = set()
    for i in range(k, q):
        tail_rows.update(layout.rows[i])
    seen: set[int] = set()
    for j in range(q):
        d = set(layout.sigma_diamond[j])
        if len(d) != k - 1:
            violations.append(f"diamond[{j + 1}] has {len(d)} vertices, expected {k - 1}")
        overlap = seen & d
        if overlap:
            violations.append(f"diamond[{j + 1}] overlaps earlier diamonds at {sorted(overlap)}")
        seen |= d
        if not d <= set(layout.sigma[j][0]):
            violations.append(f"diamond[{j + 1}] is not inside sigma[{j + 1}][1]")
    if seen != tail_rows:
        violations.append("diamonds do not exactly cover the last k-1 rows")

    stats = {
        "u_edges": total_u_edges,
        "cliques": q + q * q,
        "w_size": len(layout.w),
    }
    return LayoutReport(not violations, tuple(violations), stats)


def _covers_exactly(cliques: list[tuple[int, ...]], size: int) -> bool:
    """Whether the cliques cover every edge of K_size exactly once.

    Each vertex v keeps a bit row met[v] of the vertices sharing a clique
    with it.  When every row is full, every edge is covered; when the
    cliques also hold no more pairs than K_size has edges, none is covered
    twice.  A clique with a repeated vertex or one outside 0..size-1 fails.
    """
    vertices = set(range(size))
    bit = [1 << v for v in range(size)]
    met = [0] * size
    pairs = 0
    for verts in cliques:
        if len(set(verts)) != len(verts) or not vertices.issuperset(verts):
            return False
        mask = sum(map(bit.__getitem__, verts))
        for v in verts:
            met[v] |= mask
        pairs += comb(len(verts), 2)
    return pairs == comb(size, 2) and met.count((1 << size) - 1) == size


def _coverage_violations(layout: P2kConstructionLayout, total_u_edges: int) -> list[str]:
    """The coverage violations, each U-edge tagged with the cliques that cover it."""
    q = layout.block
    coverage: dict[tuple[int, int], list[str]] = {}

    def cover(verts, tag):
        vs = sorted(verts)
        for s in range(len(vs)):
            for t in range(s + 1, len(vs)):
                coverage.setdefault((vs[s], vs[t]), []).append(tag)

    for i, row in enumerate(layout.rows):
        cover(row, f"row{i + 1}")
    for j in range(q):
        for i in range(q):
            cover(layout.sigma[j][i], f"sigma[{j + 1}][{i + 1}]")

    violations = []
    if len(coverage) != total_u_edges:
        violations.append(
            f"covered {len(coverage)} distinct U-edges, expected {total_u_edges}"
        )
    multi = [(e, tags) for e, tags in coverage.items() if len(tags) > 1]
    for e, tags in multi[:5]:
        violations.append(f"U-edge {e} covered by {tags}")
    if len(multi) > 5:
        violations.append(f"... and {len(multi) - 5} more multiply covered edges")
    return violations
