"""Graph substrate: CSR container, builders, generators, I/O, stats.

Public surface::

    from repro.graph import CSRGraph, from_edges
    from repro.graph.generators import rgg, grid2d, suitesparse
"""

from .build import (
    complete_graph,
    induced_subgraph,
    cycle_graph,
    empty_graph,
    from_adjacency,
    from_arcs,
    from_edges,
    from_scipy,
    path_graph,
    star_graph,
)
from .csr import CSRGraph
from .partition import (
    DevicePartition,
    GraphPartition,
    block_partition,
    boundary_flags,
    edge_cut_partition,
    partition_graph,
    partition_owner,
)
from .stats import GraphStats, degree_histogram, graph_stats
from .traversal import (
    bfs_levels,
    connected_components,
    eccentricity,
    estimate_diameter,
    largest_component,
)

__all__ = [
    "CSRGraph",
    "from_edges",
    "from_arcs",
    "from_adjacency",
    "from_scipy",
    "empty_graph",
    "complete_graph",
    "path_graph",
    "cycle_graph",
    "star_graph",
    "induced_subgraph",
    "DevicePartition",
    "GraphPartition",
    "block_partition",
    "boundary_flags",
    "edge_cut_partition",
    "partition_graph",
    "partition_owner",
    "GraphStats",
    "graph_stats",
    "degree_histogram",
    "bfs_levels",
    "eccentricity",
    "estimate_diameter",
    "connected_components",
    "largest_component",
]
