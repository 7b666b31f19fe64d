"""Generators, classifiers and a small text DSL for the pattern graphs H.

Supported families: paths, stars, spiders (t paths sharing one end vertex),
double brooms (a path with leaves appended to both ends), double stars
(the two-vertex double broom with equal leaf counts), disjoint unions of
those, and custom graphs loaded from edge data.

Each generated pattern carries derived metadata used elsewhere: its
bipartition (when bipartite), all tails (paths v0-v1-v2 with deg(v2)=1,
deg(v1)=2), whether every component is a balanced tree, and whether the
forest has a perfect matching.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import NotBipartiteError
from .graphs import SimpleGraph, _bfs_forest, disjoint_union


@dataclass(frozen=True)
class PatternGraph:
    graph: SimpleGraph
    family: str
    spec: str
    bipartition: Optional[tuple[tuple[int, ...], tuple[int, ...]]]
    tails: tuple[tuple[int, int, int], ...]
    balanced: bool
    has_perfect_matching: bool

    @property
    def vertex_count(self) -> int:
        return self.graph.n

    @property
    def edge_count(self) -> int:
        return self.graph.edge_count


def _as_graph(h) -> SimpleGraph:
    return h.graph if isinstance(h, PatternGraph) else h


def pattern_spec(h) -> str:
    """The name results report for a pattern; a raw graph is custom:{n}v{e}e."""
    return h.spec if isinstance(h, PatternGraph) else f"custom:{h.n}v{h.edge_count}e"


def _annotate(graph: SimpleGraph, family: str, spec: str) -> PatternGraph:
    try:
        bip = bipartition(graph)
    except NotBipartiteError:
        bip = None
    forest = is_forest(graph)
    return PatternGraph(
        graph=graph,
        family=family,
        spec=spec,
        bipartition=bip,
        tails=tuple(find_tails(graph)),
        balanced=is_balanced(graph) if forest else False,
        has_perfect_matching=has_perfect_matching_forest(graph) if forest else False,
    )


# -- generators --------------------------------------------------------


def make_path(length: int) -> PatternGraph:
    """Path on `length` vertices (so length-1 edges)."""
    if length < 1:
        raise ValueError("path needs at least one vertex")
    g = SimpleGraph.from_edges(length, [(i, i + 1) for i in range(length - 1)])
    return _annotate(g, "path", f"path:{length}")


def make_star(leaves: int) -> PatternGraph:
    """Star with `leaves` leaves attached to center 0."""
    if leaves < 0:
        raise ValueError("leaf count must be >= 0")
    g = SimpleGraph.from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])
    return _annotate(g, "star", f"star:{leaves}")


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
    return _annotate(g, "spider", "spider:" + ",".join(str(l) for l in lengths))


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
    return _annotate(g, "double_broom", f"dbroom:{t},{s1},{s2}")


def make_double_star(a: int) -> PatternGraph:
    """Two adjacent centers with a-1 leaves each: a balanced tree on 2a vertices."""
    if a < 2:
        raise ValueError("double star needs a >= 2")
    broom = make_double_broom(2, a - 1, a - 1)
    return _annotate(broom.graph, "double_star", f"dstar:{a}")


def forest_union(h1: PatternGraph, h2: PatternGraph) -> PatternGraph:
    """Disjoint union of two acyclic patterns."""
    if not is_forest(h1.graph) or not is_forest(h2.graph):
        raise ValueError("forest_union requires acyclic inputs")
    g = disjoint_union(h1.graph, h2.graph)
    return _annotate(g, "union", f"{h1.spec}+{h2.spec}")


def custom_pattern(graph: SimpleGraph, spec: str | None = None) -> PatternGraph:
    """Wrap an arbitrary graph for NIM counting; no structure is assumed."""
    return _annotate(graph, "custom", spec or pattern_spec(graph))


def custom_pattern_from_json(text: str) -> PatternGraph:
    """Load a custom pattern from JSON of the form {"n": int, "edges": [[u, v], ...]}."""
    import json

    payload = json.loads(text)
    for field in ("n", "edges"):
        if field not in payload:
            raise ValueError(f"pattern JSON missing field {field!r}")
    g = SimpleGraph.from_edges(int(payload["n"]), [tuple(e) for e in payload["edges"]])
    return custom_pattern(g)


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


def parse_pattern(text: str) -> PatternGraph:
    """Parse the pattern DSL; raises PatternSyntaxError with an offset."""
    if not text:
        raise PatternSyntaxError("empty pattern", 0)
    parts = []
    offset = 0
    for chunk in text.split("+"):
        parts.append(_parse_atom(chunk, offset))
        offset += len(chunk) + 1
    result = parts[0]
    for part in parts[1:]:
        result = forest_union(result, part)
    return result


def _parse_atom(chunk: str, offset: int) -> PatternGraph:
    if ":" not in chunk:
        raise PatternSyntaxError(f"expected 'family:args', got {chunk!r}", offset)
    name, _, args = chunk.partition(":")
    try:
        values = [int(x) for x in args.split(",")] if args else []
    except ValueError:
        raise PatternSyntaxError(f"non-integer argument in {args!r}", offset + len(name) + 1)
    try:
        if name == "path":
            _expect(values, 1, name, offset)
            return make_path(values[0])
        if name == "star":
            _expect(values, 1, name, offset)
            return make_star(values[0])
        if name == "spider":
            if not values:
                raise PatternSyntaxError("spider needs at least one length", offset)
            return make_spider(values)
        if name == "dbroom":
            _expect(values, 3, name, offset)
            return make_double_broom(*values)
        if name == "dstar":
            _expect(values, 1, name, offset)
            return make_double_star(values[0])
    except ValueError as exc:
        if isinstance(exc, PatternSyntaxError):
            raise
        raise PatternSyntaxError(str(exc), offset)
    raise PatternSyntaxError(f"unknown family {name!r}", offset)


def _expect(values: list[int], count: int, name: str, offset: int) -> None:
    if len(values) != count:
        raise PatternSyntaxError(f"{name} takes {count} argument(s), got {len(values)}", offset)
