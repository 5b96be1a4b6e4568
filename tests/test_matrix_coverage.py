"""The full compatibility matrix: every registered coloring
implementation, plus the distributed ids at four devices, against
every generator family and the degenerate inputs, on every available
backend.

Small sizes keep the product tractable (22 ids × 15 families); each
cell asserts a complete, valid coloring on each backend.  This is the
broadest single safety net in the suite — any algorithm/topology
interaction bug (isolated vertices, uniform degrees, hubs,
disconnection, empty or complete graphs, more devices than vertices)
lands here first.
"""

import numpy as np
import pytest

from repro.backend import available_backends
from repro.core.registry import algorithm_names, run_algorithm
from repro.core.validate import is_valid_coloring
from repro.graph.build import complete_graph, empty_graph, from_edges, star_graph
from repro.graph.generators import (
    banded,
    barabasi_albert,
    erdos_renyi,
    fem_mesh2d,
    grid2d,
    random_regular,
    rgg,
    rmat,
    watts_strogatz,
)

FAMILIES = {
    "grid": lambda: grid2d(9, 9),
    "fem": lambda: fem_mesh2d(9, 9, rng=1),
    "banded": lambda: banded(70, 6),
    "rgg": lambda: rgg(120, rng=2),
    "erdos_renyi": lambda: erdos_renyi(90, m=360, rng=3),
    "regular": lambda: random_regular(60, 6, rng=4),
    "small_world": lambda: watts_strogatz(80, 4, 0.2, rng=5),
    "power_law": lambda: barabasi_albert(90, 3, rng=6),
    "rmat": lambda: rmat(6, edge_factor=6, rng=7),
    "disconnected": lambda: from_edges(
        [[0, 1], [1, 2], [5, 6]], num_vertices=9
    ),
    # Degenerate inputs; the one-vertex and five-vertex graphs leave
    # devices idle at @d4.
    "empty": lambda: empty_graph(0),
    "one_vertex": lambda: empty_graph(1),
    "isolated5": lambda: empty_graph(5),
    "star1000": lambda: star_graph(1000),
    "k60": lambda: complete_graph(60),
}

ALGORITHMS = algorithm_names() + ["dist.jpl@d4", "dist.speculative@d4"]


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_algorithm_family_cell(algorithm, family):
    graph = FAMILIES[family]()
    base = algorithm.split("@")[0]
    for backend in available_backends():
        result = run_algorithm(algorithm, graph, rng=11, backend=backend)
        cell = (algorithm, family, backend)
        assert result.is_complete, cell
        assert is_valid_coloring(graph, result.colors), cell
        assert result.num_colors <= graph.max_degree + 1 or base in (
            # IS-family iteration-indexed colorings can exceed Δ+1.
            "gunrock.is",
            "gunrock.is_single",
            "gunrock.is_atomics",
            "gunrock.ar",
            "gunrock.hash",
            "graphblas.is",
            "graphblas.jpl",
            "naumov.jpl",
            "naumov.cc",
            "dist.jpl",
            "graphblas.mis",
        ), (cell, result.num_colors)


def test_every_algorithm_handles_isolated_vertices():
    g = empty_graph(7)
    for algorithm in ALGORITHMS:
        result = run_algorithm(algorithm, g, rng=1)
        assert result.is_complete, algorithm
        assert result.num_colors == 1, algorithm
