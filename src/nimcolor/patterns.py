"""Generators, classifiers and a small text DSL for the pattern graphs H.

Supported families: paths, stars, spiders (t paths sharing one end vertex),
double brooms (a path with leaves appended to both ends), double stars
(the two-vertex double broom with equal leaf counts), disjoint unions of
those, and any custom graph.

Each generated pattern carries derived metadata used elsewhere, computed
on first use: its bipartition (when bipartite), all tails (paths v0-v1-v2
with deg(v2)=1, deg(v1)=2), whether every component is a balanced tree,
and whether the forest has a perfect matching.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from .errors import NotBipartiteError
from .graphs import SimpleGraph, _bfs_forest, disjoint_union


@dataclass(frozen=True)
class PatternGraph:
    """A pattern graph with its family and spec.  Its structural annotations
    are computed on first use and then kept: counting NIM edges reads none
    of them."""

    graph: SimpleGraph
    family: str
    spec: str

    @property
    def vertex_count(self) -> int:
        return self.graph.n

    @property
    def edge_count(self) -> int:
        return self.graph.edge_count

    @cached_property
    def bipartition(self) -> Optional[tuple[tuple[int, ...], tuple[int, ...]]]:
        """The sides of `bipartition(graph)`, or None if the graph has an odd cycle."""
        try:
            return bipartition(self.graph)
        except NotBipartiteError:
            return None

    @cached_property
    def tails(self) -> tuple[tuple[int, int, int], ...]:
        """Every tail of the graph, as `find_tails` lists them."""
        return tuple(find_tails(self.graph))

    @cached_property
    def balanced(self) -> bool:
        """Whether the graph is a forest of balanced trees."""
        return is_forest(self.graph) and is_balanced(self.graph)

    @cached_property
    def has_perfect_matching(self) -> bool:
        """Whether the graph is a forest with a perfect matching."""
        return is_forest(self.graph) and has_perfect_matching_forest(self.graph)


def _as_graph(h) -> SimpleGraph:
    return h.graph if isinstance(h, PatternGraph) else h


def pattern_spec(h) -> str:
    """The name results report for a pattern; a raw graph is custom:{n}v{e}e."""
    return h.spec if isinstance(h, PatternGraph) else f"custom:{h.n}v{h.edge_count}e"


# -- generators --------------------------------------------------------


def make_path(length: int) -> PatternGraph:
    """Path on `length` vertices (so length-1 edges)."""
    if length < 1:
        raise ValueError("path needs at least one vertex")
    g = SimpleGraph.from_edges(length, [(i, i + 1) for i in range(length - 1)])
    return PatternGraph(g, "path", f"path:{length}")


def make_star(leaves: int) -> PatternGraph:
    """Star with `leaves` leaves attached to center 0."""
    if leaves < 0:
        raise ValueError("leaf count must be >= 0")
    g = SimpleGraph.from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])
    return PatternGraph(g, "star", f"star:{leaves}")


def make_spider(lengths: list[int]) -> PatternGraph:
    """Spider: paths of the given edge-lengths sharing the common vertex 0."""
    if not lengths:
        raise ValueError("spider needs at least one branch")
    if any(l < 1 for l in lengths):
        raise ValueError("branch lengths must be >= 1")
    edges = []
    nxt = 1
    for l in lengths:
        prev = 0
        for _ in range(l):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
    g = SimpleGraph.from_edges(nxt, edges)
    return PatternGraph(g, "spider", "spider:" + ",".join(str(l) for l in lengths))


def make_double_broom(t: int, s1: int, s2: int) -> PatternGraph:
    """Path on t vertices with s1 leaves on one end and s2 on the other."""
    if t < 2:
        raise ValueError("double broom needs a path of at least 2 vertices")
    if s1 < 1 or s2 < 1:
        raise ValueError("leaf counts must be >= 1")
    edges = [(i, i + 1) for i in range(t - 1)]
    nxt = t
    for _ in range(s1):
        edges.append((0, nxt))
        nxt += 1
    for _ in range(s2):
        edges.append((t - 1, nxt))
        nxt += 1
    g = SimpleGraph.from_edges(nxt, edges)
    return PatternGraph(g, "double_broom", f"dbroom:{t},{s1},{s2}")


def make_double_star(a: int) -> PatternGraph:
    """Two adjacent centers with a-1 leaves each: a balanced tree on 2a vertices."""
    if a < 2:
        raise ValueError("double star needs a >= 2")
    broom = make_double_broom(2, a - 1, a - 1)
    return PatternGraph(broom.graph, "double_star", f"dstar:{a}")


def forest_union(h1: PatternGraph, h2: PatternGraph) -> PatternGraph:
    """Disjoint union of two acyclic patterns."""
    if not is_forest(h1.graph) or not is_forest(h2.graph):
        raise ValueError("forest_union requires acyclic inputs")
    g = disjoint_union(h1.graph, h2.graph)
    return PatternGraph(g, "union", f"{h1.spec}+{h2.spec}")


def custom_pattern(graph: SimpleGraph, spec: str | None = None) -> PatternGraph:
    """Wrap an arbitrary graph for NIM counting; no structure is assumed."""
    return PatternGraph(graph, "custom", spec or pattern_spec(graph))


# -- classifiers -------------------------------------------------------


def find_tails(h) -> list[tuple[int, int, int]]:
    """All triples (v0, v1, v2) with deg(v2)=1, deg(v1)=2 and N(v1)={v0, v2}."""
    g = _as_graph(h)
    out = []
    for v1 in range(g.n):
        if g.degree(v1) != 2:
            continue
        a, b = g.neighbors(v1)
        if g.degree(b) == 1:
            out.append((a, v1, b))
        if g.degree(a) == 1:
            out.append((b, v1, a))
    return sorted(out)


def bipartition(h) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """2-coloring by BFS per component, returned with |A| <= |B|.

    Per component the side containing its lowest-indexed vertex goes to A;
    the sides are swapped as a whole only if that leaves A larger.  Ties
    keep vertex 0 in A.  Raises NotBipartiteError on an odd cycle.
    """
    g = _as_graph(h)
    _, side = _two_color(g)
    for u, v in g.edges():
        if side[u] == side[v]:
            raise NotBipartiteError(f"odd cycle through edge ({u}, {v})")
    a = tuple(v for v in range(g.n) if side[v] == 0)
    b = tuple(v for v in range(g.n) if side[v] == 1)
    if len(a) > len(b):
        a, b = b, a
    return a, b


def _two_color(g: SimpleGraph) -> tuple[list[list[int]], list[int]]:
    """The walk's components, and each vertex's side: 0 at each root, flipping along BFS edges.

    The sides are a proper 2-coloring iff no edge joins equal sides; in a
    forest every edge is a BFS edge, so they always are.
    """
    orders, parent = _bfs_forest(g)
    side = [0] * g.n
    for order in orders:
        for v in order[1:]:
            side[v] = 1 - side[parent[v]]
    return orders, side


def is_forest(h) -> bool:
    g = _as_graph(h)
    return g.edge_count == g.n - len(_bfs_forest(g)[0])


def has_perfect_matching_forest(h) -> bool:
    """Leaf-up greedy matching: exact and linear for forests.

    Each tree is walked in reverse BFS order, so a vertex comes after all
    its children.  A vertex still unmatched then can only be matched to
    its parent; the forest has a perfect matching iff that always succeeds.
    """
    g = _as_graph(h)
    orders, parent = _bfs_forest(g)
    if g.edge_count != g.n - len(orders):
        raise ValueError("perfect-matching test is implemented for forests only")
    free = [True] * g.n
    for order in orders:
        for v in reversed(order):
            if free[v]:
                p = parent[v]
                if p < 0 or not free[p]:
                    return False
                free[v] = free[p] = False
    return True


def is_balanced(h) -> bool:
    """True iff every component is a tree with equal bipartition classes."""
    g = _as_graph(h)
    orders, side = _two_color(g)
    if g.edge_count != g.n - len(orders):
        raise ValueError("balance test is implemented for forests only")
    return all(2 * sum(side[v] for v in order) == len(order) for order in orders)


# -- text DSL ----------------------------------------------------------
#
#   pattern := atom ("+" atom)*          (disjoint union, left-assoc)
#   atom    := "path:"INT | "star:"INT | "spider:"INT(","INT)*
#            | "dbroom:"INT","INT","INT | "dstar:"INT


class PatternSyntaxError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# the most a spec's integers may sum to, each counted as at least 1: no family's
# order is more than twice its atom's sum, so this bounds the graph a spec builds
MAX_SPEC_SUM = 4096


def parse_pattern(text: str) -> PatternGraph:
    """Parse the pattern DSL; raises PatternSyntaxError with an offset.

    Every atom is read before any graph is built, so a spec past
    MAX_SPEC_SUM is refused without allocating.
    """
    if not text:
        raise PatternSyntaxError("empty pattern", 0)
    atoms = []
    offset = 0
    for chunk in text.split("+"):
        atoms.append((offset, *_parse_atom(chunk, offset)))
        offset += len(chunk) + 1
    total = sum(max(v, 1) for _, _, values in atoms for v in values)
    if total > MAX_SPEC_SUM:
        raise PatternSyntaxError(f"pattern integers sum to {total}, over the limit of {MAX_SPEC_SUM}", 0)
    parts = []
    for offset, make, values in atoms:
        try:
            parts.append(make(*values))
        except ValueError as exc:
            raise PatternSyntaxError(str(exc), offset)
    if len(parts) == 1:
        return parts[0]
    # every atom is a tree, so their union is a forest with no walk to check it
    return PatternGraph(disjoint_union(*(p.graph for p in parts)), "union", "+".join(p.spec for p in parts))


# each family's generator and the count of integers it takes; None: one or more
_FAMILIES = {
    "path": (make_path, 1),
    "star": (make_star, 1),
    "spider": (lambda *lengths: make_spider(list(lengths)), None),
    "dbroom": (make_double_broom, 3),
    "dstar": (make_double_star, 1),
}


def _parse_atom(chunk: str, offset: int):
    """(generator, arguments) of one atom, its syntax checked but nothing built."""
    if ":" not in chunk:
        raise PatternSyntaxError(f"expected 'family:args', got {chunk!r}", offset)
    name, _, args = chunk.partition(":")
    values = args.split(",") if args else []
    if not all(x.isascii() and x.removeprefix("-").isdigit() for x in values):  # int() takes "3_0", " 3"
        raise PatternSyntaxError(f"non-integer argument in {args!r}", offset + len(name) + 1)
    values = list(map(int, values))
    if name not in _FAMILIES:
        raise PatternSyntaxError(f"unknown family {name!r}", offset)
    make, count = _FAMILIES[name]
    if count is None and not values:
        raise PatternSyntaxError(f"{name} needs at least one length", offset)
    if count is not None and len(values) != count:
        raise PatternSyntaxError(f"{name} takes {count} argument(s), got {len(values)}", offset)
    return make, values
