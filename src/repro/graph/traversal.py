"""Level-synchronous traversals over :class:`CSRGraph`.

The harness needs BFS twice: to estimate diameters the way Table I does
(sampled eccentricities, the ``*`` convention) and to report connected
components in dataset summaries.  Both are implemented as frontier-at-a-
time sweeps — the same bulk-synchronous structure the paper's GPU
frameworks use — with all per-level work vectorized.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .._rng import RngLike, ensure_rng
from ..errors import GraphError
from .csr import CSRGraph, arc_positions

__all__ = [
    "bfs_levels",
    "eccentricity",
    "estimate_diameter",
    "connected_components",
    "largest_component",
]


def bfs_levels(graph: CSRGraph, source: int) -> np.ndarray:
    """BFS distance from ``source`` to every vertex (−1 = unreachable).

    Level-synchronous: each step expands the whole current frontier with
    one gather over CSR and dedups via the level array.
    """
    n = graph.num_vertices
    if not 0 <= source < n:
        raise GraphError(f"source {source} out of range [0, {n})")
    levels = np.full(n, -1, dtype=np.int64)
    levels[source] = 0
    frontier = np.array([source], dtype=np.int64)
    depth = 0
    offsets, indices = graph.offsets, graph.indices
    while len(frontier):
        depth += 1
        neigh = _expand(offsets, indices, frontier)
        if not len(neigh):
            break
        fresh = neigh[levels[neigh] < 0]
        if not len(fresh):
            break
        fresh = np.unique(fresh)
        levels[fresh] = depth
        frontier = fresh
    return levels


def _expand(offsets: np.ndarray, indices: np.ndarray, frontier: np.ndarray) -> np.ndarray:
    """Concatenate the neighbor lists of every frontier vertex (with dups)."""
    degs = offsets[frontier + 1] - offsets[frontier]
    return indices[arc_positions(offsets, frontier, degs)]


def eccentricity(graph: CSRGraph, source: int) -> int:
    """Eccentricity of ``source`` within its connected component."""
    levels = bfs_levels(graph, source)
    return int(levels.max(initial=0))


def estimate_diameter(
    graph: CSRGraph,
    *,
    num_samples: int = 64,
    rng: RngLike = None,
) -> int:
    """Estimate the graph diameter by sampling BFS eccentricities.

    This mirrors Table I's footnote: "diameter is an estimate using
    samples from 10,000 vertices" — a lower bound equal to the maximum
    eccentricity over sampled sources.  ``num_samples`` is clipped to n.
    """
    n = graph.num_vertices
    if n == 0:
        return 0
    gen = ensure_rng(rng)
    k = min(num_samples, n)
    sources = gen.choice(n, size=k, replace=False)
    return max(eccentricity(graph, int(s)) for s in sources)


def connected_components(graph: CSRGraph) -> Tuple[int, np.ndarray]:
    """Connected components via repeated BFS.

    Returns ``(count, labels)`` where ``labels[v]`` is the 0-based
    component id of ``v``.  Directed graphs are treated as their
    underlying undirected graph only if symmetric; for general directed
    graphs this computes weakly-reachable sets from seeds in id order,
    which equals weak components when the arc set is symmetric.
    """
    n = graph.num_vertices
    labels = np.full(n, -1, dtype=np.int64)
    count = 0
    for seed in range(n):
        if labels[seed] >= 0:
            continue
        levels = bfs_levels(graph, seed)
        labels[levels >= 0] = count
        count += 1
    return count, labels


def largest_component(graph: CSRGraph) -> CSRGraph:
    """The induced subgraph on the largest connected component.

    Vertices are relabeled to ``[0, n')`` preserving relative order.  Used
    by generators that must hand the coloring algorithms a connected mesh.
    """
    count, labels = connected_components(graph)
    if count <= 1:
        return graph
    sizes = np.bincount(labels, minlength=count)
    keep = labels == int(np.argmax(sizes))
    remap = np.full(graph.num_vertices, -1, dtype=np.int64)
    remap[keep] = np.arange(int(keep.sum()), dtype=np.int64)
    src, dst = graph.arcs()
    sel = keep[src] & keep[dst]
    from .build import from_arcs

    return from_arcs(
        remap[src[sel]],
        remap[dst[sel]],
        int(keep.sum()),
        undirected=graph.undirected,
        name=graph.name,
    )
