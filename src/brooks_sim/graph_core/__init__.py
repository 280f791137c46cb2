"""Graph representation, structural measures, instance generators, and IO."""

from .coloring import PartialColoring
from .generators import (
    DEFAULT_EPSILON,
    FAMILIES,
    GeneratedGraph,
    generate,
    generate_instance,
)
from .graph import Graph, complete_graph, cycle_graph, mask_of, path_graph
from .io import load_graph, load_graph_with_header, save_graph
from .measures import (
    anti_degree,
    contains_delta_plus_one_clique,
    edges_inside,
    missing_pairs,
    outside_degree,
    sparsity,
)

__all__ = [
    "DEFAULT_EPSILON",
    "FAMILIES",
    "GeneratedGraph",
    "Graph",
    "PartialColoring",
    "anti_degree",
    "complete_graph",
    "contains_delta_plus_one_clique",
    "cycle_graph",
    "edges_inside",
    "generate",
    "generate_instance",
    "load_graph",
    "load_graph_with_header",
    "mask_of",
    "missing_pairs",
    "outside_degree",
    "path_graph",
    "save_graph",
    "sparsity",
]
