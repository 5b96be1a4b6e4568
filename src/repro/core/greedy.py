"""The sequential greedy baseline (the paper's "CPU/Color_Greedy").

§II: "The classic sequential 'greedy' graph coloring algorithm works by
using some ordering of vertices. Then it colors each vertex in order by
using the minimum color that does not appear in its neighbors."

The reference implementation is the standard O(n + m) stamped-
forbidden-array sweep (:func:`_greedy_colors_scalar`).  The production
path (:func:`_greedy_colors_vectorized`) computes the *same* coloring
level-synchronously: orienting every edge from the earlier to the later
vertex in the given order yields a DAG, and a vertex can be colored the
moment all of its predecessors are — at which point its color (the
minimum excluded value over predecessor colors) is exactly what the
sequential sweep would have assigned, because later-ordered neighbors
are still uncolored when the sweep reaches it.  Each DAG level is an
independent set, so whole levels are colored at once with NumPy segment
operations; the result is bit-identical to the sequential sweep for any
ordering (see ``tests/test_vectorized_kernels.py``).  Orderings that
produce long thin wavefronts (e.g. ``natural`` on meshes) fall back to
the scalar sweep for the tail, which is also exact.

Simulated CPU time is charged per traversed arc and per vertex from a
:class:`~repro.gpusim.device.CPUSpec`, which is how the paper's "1.92×
less time than the greedy sequential algorithm" comparisons are
reproduced without the authors' Xeon.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from .. import backend as _backend
from .._clock import wall_timer
from .._rng import RngLike
from ..errors import ColoringError
from ..gpusim.device import CPUSpec, HOST_CPU
from ..graph.csr import CSRGraph, arc_positions
from .orderings import get_ordering
from .result import ColoringResult

__all__ = ["greedy_coloring", "dsatur_coloring"]

#: Below this frontier width a level-synchronous round costs more in
#: fixed per-kernel overhead than the scalar sweep would spend
#: coloring it.
_MIN_FRONTIER = 64


def _greedy_colors_scalar(
    graph: CSRGraph,
    order: np.ndarray,
    *,
    colors: Optional[np.ndarray] = None,
) -> np.ndarray:
    """The classic stamped-forbidden-array sweep (reference semantics).

    With ``colors`` given, continues a partially colored sweep: entries
    that are already non-zero are kept, and only the zero entries of
    ``order`` (visited in order) are colored.
    """
    offsets, indices = graph.offsets, graph.indices
    if colors is None:
        colors = np.zeros(graph.num_vertices, dtype=np.int64)
    # stamp[c] == v means color c is forbidden for the current vertex v.
    stamp = np.full(graph.max_degree + 2, -1, dtype=np.int64)
    for v in order:
        if colors[v]:
            continue
        nbr_colors = colors[indices[offsets[v] : offsets[v + 1]]]
        stamp[nbr_colors[nbr_colors > 0]] = v
        c = 1
        while stamp[c] == v:
            c += 1
        colors[v] = c
    return colors


def _greedy_colors_vectorized(graph: CSRGraph, order: np.ndarray) -> np.ndarray:
    """Level-synchronous greedy, bit-identical to the scalar sweep.

    Kahn-style: maintain for every vertex the count of uncolored
    *predecessors* (neighbors earlier in ``order``); each round colors
    the zero-count frontier en masse — its minimum excluded color over
    predecessor colors is one backend ``segmented_mex`` call over the
    predecessor sub-CSR (the level-sync greedy conflict scan) — then
    decrements successor counts with ``bincount``.  Falls back to the
    scalar sweep once the frontier narrows below :data:`_MIN_FRONTIER`
    (long-wavefront orderings), which preserves exactness.
    """
    n = graph.num_vertices
    offsets, indices = graph.offsets, graph.indices
    degrees = graph.degrees
    colors = np.zeros(n, dtype=np.int64)
    if n == 0:
        return colors

    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n, dtype=np.int64)
    src = np.repeat(np.arange(n, dtype=np.int64), degrees)
    earlier = rank[indices] < rank[src]
    # Predecessor / successor sub-CSR (both inherit CSR row grouping).
    pdst = indices[earlier]
    pdeg = np.bincount(src[earlier], minlength=n)
    poff = np.zeros(n, dtype=np.int64)
    np.cumsum(pdeg[:-1], out=poff[1:])
    sdst = indices[~earlier]
    sdeg = degrees - pdeg
    soff = np.zeros(n, dtype=np.int64)
    np.cumsum(sdeg[:-1], out=soff[1:])

    indeg = pdeg.copy()
    be = _backend.current()
    frontier = be.frontier_compact(indeg == 0)
    while frontier.size:
        if frontier.size < _MIN_FRONTIER:
            # Thin wavefront: the remaining vertices, swept in rank
            # order, see exactly the predecessor colors the sequential
            # sweep would — finish scalar.
            rest = np.flatnonzero(colors == 0)
            return _greedy_colors_scalar(
                graph, rest[np.argsort(rank[rest])], colors=colors
            )
        # Every frontier vertex's predecessors are already colored, so
        # its sequential-sweep color is exactly the mex over its
        # predecessor sub-CSR segment.
        colors[frontier] = be.segmented_mex(
            colors, pdst, poff[frontier], pdeg[frontier]
        )
        fs = sdeg[frontier]
        total = int(fs.sum())
        if not total:
            break
        dec = np.bincount(sdst[arc_positions(soff, frontier, fs)], minlength=n)
        indeg -= dec
        frontier = be.frontier_compact((indeg == 0) & (dec > 0))
    return colors


def greedy_coloring(
    graph: CSRGraph,
    *,
    ordering: Union[str, np.ndarray] = "natural",
    rng: RngLike = None,
    cpu: Optional[CPUSpec] = None,
) -> ColoringResult:
    """Sequential greedy coloring in the given vertex order.

    ``ordering`` is a name from :data:`~repro.core.orderings.ORDERINGS`
    or an explicit permutation of ``range(n)``.
    """
    n = graph.num_vertices
    if isinstance(ordering, str):
        order_name = ordering
        order = get_ordering(ordering)(graph, rng)
    else:
        order_name = "custom"
        order = np.asarray(ordering, dtype=np.int64)
        if sorted(order.tolist()) != list(range(n)):
            raise ColoringError("ordering must be a permutation of range(n)")

    timer = wall_timer()
    if n < 4 * _MIN_FRONTIER:
        colors = _greedy_colors_scalar(graph, order)
    else:
        colors = _greedy_colors_vectorized(graph, order)
    wall = timer.elapsed_s()

    spec = cpu if cpu is not None else HOST_CPU
    sim_ms = (graph.num_arcs * spec.edge_ns + n * spec.vertex_ns) / 1e6
    return ColoringResult(
        colors=colors,
        algorithm=f"cpu.greedy[{order_name}]",
        graph_name=graph.name,
        iterations=1,
        sim_ms=sim_ms,
        wall_s=wall,
    )


def dsatur_coloring(
    graph: CSRGraph, *, cpu: Optional[CPUSpec] = None
) -> ColoringResult:
    """DSATUR (Brélaz): dynamically color the vertex with the highest
    saturation (most distinctly-colored neighbors), breaking ties by
    degree.

    Not in the paper's comparison set, but the strongest classic
    sequential heuristic — included as the quality upper baseline for
    EXPERIMENTS.md and the ordering ablation.
    """
    n = graph.num_vertices
    timer = wall_timer()
    colors = np.zeros(n, dtype=np.int64)
    offsets, indices = graph.offsets, graph.indices
    degrees = graph.degrees
    # Per-vertex sets of neighbor colors would be O(m) memory in the
    # worst case; track saturation counts with a bitset-free dict of
    # per-vertex seen-color sets only for uncolored frontier vertices.
    saturation = np.zeros(n, dtype=np.int64)
    seen = [set() for _ in range(n)]
    uncolored = np.ones(n, dtype=bool)
    stamp = np.full(graph.max_degree + 2, -1, dtype=np.int64)
    for _ in range(n):
        # Highest saturation, then highest degree, then lowest id.
        cand = np.flatnonzero(uncolored)
        best = cand[np.lexsort((cand, -degrees[cand], -saturation[cand]))[0]]
        nbrs = indices[offsets[best] : offsets[best + 1]]
        nbr_colors = colors[nbrs]
        stamp[nbr_colors[nbr_colors > 0]] = best
        c = 1
        while stamp[c] == best:
            c += 1
        colors[best] = c
        uncolored[best] = False
        for u in nbrs:
            if uncolored[u] and c not in seen[u]:
                seen[u].add(c)
                saturation[u] += 1
    wall = timer.elapsed_s()
    spec = cpu if cpu is not None else HOST_CPU
    # DSATUR pays an extra priority-queue factor over plain greedy.
    sim_ms = (
        graph.num_arcs * spec.edge_ns * 2 + n * spec.vertex_ns * 8
    ) / 1e6
    return ColoringResult(
        colors=colors,
        algorithm="cpu.dsatur",
        graph_name=graph.name,
        iterations=1,
        sim_ms=sim_ms,
        wall_s=wall,
    )
