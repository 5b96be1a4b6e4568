"""Recursive Largest First (RLF) coloring — Leighton's timetable
heuristic (the paper's citation [5]).

RLF builds one color class at a time: seed the class with the vertex of
largest degree in the uncolored subgraph, then repeatedly add the
candidate with the most neighbors in the class's *excluded zone*
(uncolored vertices already adjacent to the class), until the class is
maximal; repeat.  Slower than one-pass greedy but typically the best
classic heuristic on quality — included as the quality reference for
the ablation tables, alongside DSATUR.

Implementation is incremental: the RLF score (excluded-zone adjacency)
is maintained with one scatter-add per newly excluded vertex, so a full
run costs O(colors · m) updates plus one O(n) arg-max per placed
vertex, instead of the naive O(n²·Δ) rescan.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .. import backend as _backend
from .._clock import wall_timer
from ..gpusim.device import CPUSpec, HOST_CPU
from ..graph.csr import CSRGraph, arc_positions
from .result import ColoringResult

__all__ = ["rlf_coloring"]


def rlf_coloring(graph: CSRGraph, *, cpu: Optional[CPUSpec] = None) -> ColoringResult:
    """Color ``graph`` with Recursive Largest First.

    Deterministic (ties broken toward lower vertex id).
    """
    timer = wall_timer()
    n = graph.num_vertices
    colors = np.zeros(n, dtype=np.int64)
    offsets, indices = graph.offsets, graph.indices
    uncolored = np.ones(n, dtype=bool)
    color = 0
    # Pick key: lexicographic (score, sub_deg, -id) packed into int64.
    id_term = np.arange(n, 0, -1, dtype=np.int64)  # favors low ids
    S_ID = np.int64(n + 1)
    S_SCORE = S_ID * np.int64(graph.max_degree + 2)

    def neighbors_of(v: int) -> np.ndarray:
        return indices[offsets[v] : offsets[v + 1]]

    while uncolored.any():
        color += 1
        candidate = uncolored.copy()
        # Degree within the uncolored subgraph (recomputed per class).
        ids = np.flatnonzero(uncolored)
        sub_deg = np.zeros(n, dtype=np.int64)
        degs = offsets[ids + 1] - offsets[ids]
        total = int(degs.sum())
        if total:
            nbrs_flat = indices[arc_positions(offsets, ids, degs)]
            owners = np.repeat(ids, degs)
            _backend.current().scatter_reduce(
                sub_deg, owners, uncolored[nbrs_flat].astype(np.int64), "sum"
            )
        score = np.zeros(n, dtype=np.int64)
        key = sub_deg * S_ID + id_term  # first pick: by subgraph degree
        while candidate.any():
            masked = np.where(candidate, key, np.int64(-1))
            v = int(np.argmax(masked))
            colors[v] = color
            uncolored[v] = False
            candidate[v] = False
            # Exclude v's candidate neighbors; bump their neighbors'
            # scores (one scatter-add per exclusion).
            nbrs = neighbors_of(v)
            fresh = nbrs[candidate[nbrs]]
            candidate[fresh] = False
            for w in fresh:
                nb = neighbors_of(int(w))
                _backend.current().scatter_reduce(
                    score, nb, np.ones(len(nb), dtype=np.int64), "sum"
                )
            if len(fresh):
                key = score * S_SCORE + sub_deg * S_ID + id_term
    wall = timer.elapsed_s()
    spec = cpu if cpu is not None else HOST_CPU
    # Each color class rescans the remaining subgraph's arcs (the RLF
    # scoring), so sequential cost scales with arcs x classes.
    sim_ms = (
        graph.num_arcs * spec.edge_ns * max(color, 1)
        + n * spec.vertex_ns * max(color, 1)
    ) / 1e6
    return ColoringResult(
        colors=colors,
        algorithm="cpu.rlf",
        graph_name=graph.name,
        iterations=color,
        sim_ms=sim_ms,
        wall_s=wall,
    )
