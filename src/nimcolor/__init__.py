"""nimcolor: NIM edges of edge-colored complete graphs.

An edge of a k-colored K_n is NIM for a pattern H when it lies in no
monochromatic copy of H.  This package builds, verifies and searches
colorings with many NIM edges, and computes the Turan numbers the edge
counts are measured against.
"""

__version__ = "0.1.0"

from .errors import NotBipartiteError, ResourceLimitError, TuranUnavailableError
from .graphs import (
    EdgeColoring,
    SimpleGraph,
    complement,
    components,
    disjoint_union,
    edge_index,
    edge_unindex,
    join,
)
from .nim import NimReport, contains, nim_edges
from .patterns import (
    PatternGraph,
    bipartition,
    custom_pattern,
    find_tails,
    forest_union,
    has_perfect_matching_forest,
    is_balanced,
    make_double_broom,
    make_double_star,
    make_path,
    make_spider,
    make_star,
    parse_pattern,
)
from .constructions import (
    P2kConstructionLayout,
    extremal_overlay,
    p2k_expected_nim,
    p2k_multicoloring,
    tail_coloring_for,
    tail_forest_coloring,
    verify_layout,
)
from .search import SearchResult, exhaustive_f, hill_climb_f
from .turan import (
    TuranResult,
    ex_balanced_forest,
    ex_path,
    extremal_path_graph,
    lemma_gap,
    near_extremal_path_graph,
    turan_oracle,
    turan_value,
)

__all__ = [
    # errors
    "NotBipartiteError", "ResourceLimitError", "TuranUnavailableError",
    # graphs
    "EdgeColoring", "SimpleGraph", "complement", "components", "disjoint_union", "edge_index",
    "edge_unindex", "join",
    # nim
    "NimReport", "contains", "nim_edges",
    # patterns
    "PatternGraph", "bipartition", "custom_pattern", "find_tails", "forest_union",
    "has_perfect_matching_forest", "is_balanced", "make_double_broom", "make_double_star",
    "make_path", "make_spider", "make_star", "parse_pattern",
    # constructions
    "P2kConstructionLayout", "extremal_overlay", "p2k_expected_nim", "p2k_multicoloring",
    "tail_coloring_for", "tail_forest_coloring", "verify_layout",
    # search
    "SearchResult", "exhaustive_f", "hill_climb_f",
    # turan
    "TuranResult", "ex_balanced_forest", "ex_path", "extremal_path_graph", "lemma_gap",
    "near_extremal_path_graph", "turan_oracle", "turan_value",
]
