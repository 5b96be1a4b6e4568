"""Classic Jones–Plassmann coloring (reference implementation).

§II of the paper: "Jones and Plassmann propose a parallel graph
coloring algorithm … Each vertex then colors itself using the minimum
color available to it" [14].  A vertex colors itself in the round where
its random priority beats every *still-uncolored* neighbor, taking the
smallest color absent among its already-colored neighbors.

This is the semantic reference for the framework JP variants and the
back-end for the largest-degree-first ablation (§VI: replace random
priorities with degrees).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .. import backend as _backend
from .._rng import RngLike, ensure_rng, random_weights
from ..errors import ColoringError
from ..graph.csr import CSRGraph
from .result import ColoringResult

__all__ = ["jones_plassmann_coloring"]


def _min_available(graph: CSRGraph, colors: np.ndarray, winners: np.ndarray) -> np.ndarray:
    """Per-winner minimum positive color absent among its neighbors
    (the "mex").

    Winners form an independent set, so their choices never conflict
    with one another within a round.  The segmented-mex kernel runs on
    the execution backend; the mex is unique per neighbor-color
    multiset, so every backend returns the same values.
    """
    winners = np.asarray(winners, dtype=np.int64)
    if len(winners) == 0:
        return np.empty(0, dtype=np.int64)
    offsets = graph.offsets
    degs = offsets[winners + 1] - offsets[winners]
    return _backend.current().segmented_mex(
        colors, graph.indices, offsets[winners], degs
    )


def jones_plassmann_coloring(
    graph: CSRGraph,
    *,
    priorities: Optional[np.ndarray] = None,
    rng: RngLike = None,
) -> ColoringResult:
    """Jones–Plassmann with random (default) or supplied priorities.

    Supplying ``priorities = graph.degrees`` yields the largest-degree-
    first variant the paper proposes comparing against (§VI); ties are
    broken by vertex id.
    """
    n = graph.num_vertices
    gen = ensure_rng(rng)
    if priorities is None:
        prio = random_weights(n, gen)
    else:
        prio = np.asarray(priorities, dtype=np.int64)
        if len(prio) != n:
            raise ColoringError("priorities must have one entry per vertex")
    # Strict total order: (priority, id) lexicographic, encoded in one key.
    key = prio * (n + 1) + np.arange(n, dtype=np.int64)

    colors = np.zeros(n, dtype=np.int64)
    rounds = 0
    while (colors == 0).any():
        rounds += 1
        if rounds > n + 1:
            raise ColoringError("Jones-Plassmann failed to converge")
        uncolored = colors == 0
        be = _backend.current()
        ids = be.frontier_compact(uncolored)
        # Uncolored vertices whose key beats every uncolored neighbor's.
        won = be.active_max(graph.offsets, graph.indices, key, uncolored, ids)
        winners = ids[won]
        colors[winners] = _min_available(graph, colors, winners)
    return ColoringResult(
        colors=colors,
        algorithm="reference.jones_plassmann",
        graph_name=graph.name,
        iterations=rounds,
    )
