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
  the near-extremal family for the path on 2k vertices.  Every edge is
  assigned its color once.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .graphs import (
    EdgeColoring,
    SimpleGraph,
    all_pairs,
    complete_edge_count,
    components,
    edge_index,
)
from .nim import contains
from .patterns import PatternGraph
from .turan import ex_path


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
    colors = [1] * complete_edge_count(n)
    for u, v in red.edges():
        colors[edge_index(u, v, n)] = 0
    return EdgeColoring(n, 2, tuple(colors))


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
    return EdgeColoring(n, 2, tuple(0 if u < x_size <= v else 1 for u, v in all_pairs(n)))


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
        q = self.block
        return {
            "k": self.k,
            "n": self.n,
            "label_map": [
                [i, j, self.vertex(i, j)] for i in range(1, q + 1) for j in range(1, q + 1)
            ],
            "rows": [list(r) for r in self.rows],
            "sigma": [[list(c) for c in per_j] for per_j in self.sigma],
            "sigma_diamond": [list(c) for c in self.sigma_diamond],
            "w": list(self.w),
        }


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
    """The 2k-coloring of K_n whose first 2k-1 classes are path-extremal shaped.

    Build order; no step assigns an edge that an earlier step assigned:

    1. for each j, color every clique sigma[j][i] with color j-1, except
       the sub-clique of sigma[j][1] on rows 1..k, which gets color 2k-1;
    2. color all edges between sigma_diamond[j] and W with color j-1;
    3. give every remaining edge (row cliques, W clique, rows 1..k to W)
       color 2k-1.

    Step 1 covering each cross-row edge of U exactly once is what needs
    2k-1 prime.
    """
    layout = build_p2k_layout(n, k)
    q = layout.block
    last = 2 * k - 1  # color index of the final catch-all color
    m = complete_edge_count(n)
    colors = [-1] * m

    def assign(u: int, v: int, color: int) -> None:
        e = edge_index(u, v, n)
        if colors[e] != -1:
            raise AssertionError(
                f"edge ({u}, {v}) assigned twice: {colors[e]} then {color}"
            )
        colors[e] = color

    # step 1: parallel classes of cliques; verts[t] is the clique's vertex in row t+1
    for j in range(1, q + 1):
        for i in range(1, q + 1):
            verts = layout.sigma[j - 1][i - 1]
            for s in range(q):
                for t in range(s + 1, q):
                    assign(verts[s], verts[t], last if i == 1 and t < k else j - 1)

    # step 2: diamond-to-W bipartite edges
    for j in range(1, q + 1):
        for u in layout.sigma_diamond[j - 1]:
            for w in layout.w:
                assign(u, w, j - 1)

    # step 3: everything else
    for e in range(m):
        if colors[e] == -1:
            colors[e] = last
    return EdgeColoring(n, 2 * k, tuple(colors)), layout


def p2k_expected_nim(n: int, k: int) -> tuple[int, bool]:
    """Target NIM count (2k-1)*ex(n, P_2k) + (k-1)*C(2k-1, 2).

    The flag reports whether n has one of the two residues mod 2k-1 for
    which the first 2k-1 classes are genuinely extremal, i.e. for which
    the target is an exact equality rather than a nearby reference value.
    """
    q = 2 * k - 1
    value = q * ex_path(n, 2 * k).value + (k - 1) * comb(q, 2)
    exact = n % q in (k - 1, k)
    return value, exact


@dataclass(frozen=True)
class LayoutReport:
    ok: bool
    violations: tuple[str, ...]
    stats: dict

    def to_dict(self) -> dict:
        return {"ok": self.ok, "violations": list(self.violations), "stats": self.stats}


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
    u_vertices = set(range(q * q))
    row_of = {v: v // q for v in u_vertices}

    for j in range(q):
        for i in range(q):
            verts = layout.sigma[j][i]
            if len(verts) != q or len(set(verts)) != q:
                violations.append(f"sigma[{j + 1}][{i + 1}] is not a {q}-clique vertex set")
                continue
            if sorted(row_of.get(v, -1) for v in verts) != list(range(q)):
                violations.append(f"sigma[{j + 1}][{i + 1}] does not meet every row once")

    # edge coverage of U: rows + all sigma cliques, each edge exactly once
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

    total_u_edges = comb(q * q, 2)
    if len(coverage) != total_u_edges:
        violations.append(
            f"covered {len(coverage)} distinct U-edges, expected {total_u_edges}"
        )
    multi = [(e, tags) for e, tags in coverage.items() if len(tags) > 1]
    for e, tags in multi[:5]:
        violations.append(f"U-edge {e} covered by {tags}")
    if len(multi) > 5:
        violations.append(f"... and {len(multi) - 5} more multiply covered edges")

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
