"""GPU speculative (Gebremedhin–Manne-style) coloring — Deveci et al.

The paper's related work (§II-A) cites Deveci, Boman, Devine &
Rajamanickam, "Parallel graph coloring for manycore architectures",
which ports the speculative-coloring / conflict-resolution scheme to
GPUs; §VI proposes comparing it against the IS family.  This module is
that comparison point, on the same simulated device:

Every round, **all** uncolored vertices simultaneously take the
smallest color not used by any neighbor *as of the round start*
(a speculative first-fit); a conflict-detection pass then uncolors the
lower-priority endpoint of every same-color edge, and the survivors
become final.  Rounds repeat until no vertex is left.  Per round the
kernels are load-balanced edge-parallel (forbidden-color gathering and
conflict detection), so unlike the serial-loop IS variants it does not
pay the degree-saturation penalty — but it may need several rework
rounds on dense regions.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .. import backend as _backend
from .._clock import wall_timer
from .._rng import RngLike, ensure_rng
from ..errors import ColoringError
from ..gpusim.cost_model import CostModel
from ..gpusim.device import DeviceSpec
from ..graph.csr import CSRGraph
from .keys import strict_keys
from .result import ColoringResult

__all__ = ["speculative_gpu_coloring"]


def _speculative_first_fit(graph: CSRGraph, colors: np.ndarray, active: np.ndarray) -> np.ndarray:
    """Smallest color unused by any neighbor (per the snapshot), for
    every active vertex at once — the backend's segmented mex over
    neighbor colors."""
    ids = _backend.current().frontier_compact(active)
    if len(ids) == 0:
        return np.empty(0, dtype=np.int64)
    offsets = graph.offsets
    degs = offsets[ids + 1] - offsets[ids]
    return _backend.current().segmented_mex(
        colors, graph.indices, offsets[ids], degs
    )


def speculative_gpu_coloring(
    graph: CSRGraph,
    *,
    rng: RngLike = None,
    device: Optional[DeviceSpec] = None,
) -> ColoringResult:
    """Deveci-style speculative GPU coloring with conflict rework."""
    timer = wall_timer()
    n = graph.num_vertices
    gen = ensure_rng(rng)
    cost = CostModel(device)
    # Static random priorities arbitrate conflicts.
    prio = strict_keys(n, gen)
    cost.charge_map(n, name="init_random")

    colors = np.zeros(n, dtype=np.int64)
    final = np.zeros(n, dtype=bool)
    src_all = np.repeat(np.arange(n, dtype=np.int64), graph.degrees)
    rounds = 0
    while not final.all():
        if rounds > n + 1:
            raise ColoringError("speculative coloring failed to converge")
        rounds += 1
        active = ~final
        ids = np.flatnonzero(active)
        active_arcs = int(graph.degrees[active].sum())
        # Kernel 1: speculative first-fit (edge-parallel gather of
        # forbidden colors + per-vertex mex).
        colors[ids] = _speculative_first_fit(graph, colors, active)
        cost.charge_edge_balanced(active_arcs, name="speculate_kernel", eff=2.0)
        cost.charge_sync(name="speculate_sync")
        # Kernel 2: conflict detection over the arcs of active vertices;
        # the lower-priority endpoint of each violation reverts.
        losers = _backend.current().conflict_losers(
            src_all, graph.indices, colors, prio, active
        )
        cost.charge_edge_balanced(active_arcs, name="conflict_kernel", eff=1.0)
        cost.charge_sync(name="conflict_sync")
        final |= active
        if len(losers):
            colors[losers] = 0
            final[losers] = False
    return ColoringResult(
        colors=colors,
        algorithm="gpu.speculative",
        graph_name=graph.name,
        iterations=rounds,
        sim_ms=cost.total_ms,
        wall_s=timer.elapsed_s(),
        counters=cost.counters,
    )
