"""Graph representation, structural measures, instance generators, and IO."""

from .coloring import PartialColoring
from .generators import (
    FAMILIES,
    GeneratedGraph,
    generate_instance,
)
from .graph import Graph, mask_of
from .io import load_graph_with_header, save_graph
from .measures import (
    common_neighbour_pass,
    contains_delta_plus_one_clique,
)

__all__ = [
    "FAMILIES",
    "GeneratedGraph",
    "Graph",
    "PartialColoring",
    "common_neighbour_pass",
    "contains_delta_plus_one_clique",
    "generate_instance",
    "load_graph_with_header",
    "mask_of",
    "save_graph",
]
