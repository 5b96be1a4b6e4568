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

Both kernels scan only the active vertices' rows, so a round costs
O(frontier arcs), as charged.  The highest-priority active vertex never
loses a clash, so every round finalizes a vertex at least: a run takes
at most n rounds (K_n takes exactly n), and the guard raises past that.
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
    offsets = graph.offsets
    be = _backend.current()
    ids = np.arange(n, dtype=np.int64)
    rounds = 0
    while len(ids):
        # The highest-priority active vertex never loses a clash, so
        # every round finalizes at least one vertex.
        if rounds == n:
            raise ColoringError("speculative coloring failed to converge")
        rounds += 1
        starts = offsets[ids]
        degs = offsets[ids + 1] - starts
        active_arcs = int(degs.sum())
        # Kernel 1: speculative first-fit (edge-parallel gather of
        # forbidden colors + per-vertex mex).
        colors[ids] = be.segmented_mex(colors, graph.indices, starts, degs)
        cost.charge_edge_balanced(active_arcs, name="speculate_kernel", eff=2.0)
        cost.charge_sync(name="speculate_sync")
        # Kernel 2: conflict detection over the arcs of active vertices;
        # the lower-priority endpoint of each violation reverts.
        lost = be.conflict_losers(colors, graph.indices, ids, starts, degs, prio)
        cost.charge_edge_balanced(active_arcs, name="conflict_kernel", eff=1.0)
        cost.charge_sync(name="conflict_sync")
        ids = ids[lost]
        colors[ids] = 0
    return ColoringResult(
        colors=colors,
        algorithm="gpu.speculative",
        graph_name=graph.name,
        iterations=rounds,
        sim_ms=cost.total_ms,
        wall_s=timer.elapsed_s(),
        counters=cost.counters,
    )
