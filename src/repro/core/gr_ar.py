"""Gunrock advance + neighbor-reduce coloring (Algorithm 7 of the paper).

This variant replaces the serial per-thread neighbor loop of Alg. 5
with a load-balanced advance that materializes the neighbor frontier
followed by a parallel segmented max-reduction (§IV-B3).  Vertices
whose random number beats their segment's reduced maximum form the
independent set and take this iteration's color.

"Because the Reduce operator can only perform binary operations …, the
implementation cannot paint two colors per iteration" — so AR colors
one set per iteration, and pays two global synchronizations plus the
per-segment overhead of the segmented reduction.  That combination is
why Table II reports it as the slowest variant by a wide margin.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .._clock import wall_timer
from .._rng import RngLike, ensure_rng
from ..gpusim.cost_model import CostModel
from ..gpusim.device import DeviceSpec
from ..graph.csr import CSRGraph
from ..gunrock import (
    Enactor,
    Frontier,
    GunrockContext,
    advance,
    compute,
    filter_frontier,
    neighbor_reduce,
)
from .keys import strict_keys
from .result import ColoringResult

__all__ = ["gunrock_ar_coloring"]


def gunrock_ar_coloring(
    graph: CSRGraph,
    *,
    rng: RngLike = None,
    device: Optional[DeviceSpec] = None,
) -> ColoringResult:
    """Color ``graph`` with the Gunrock Advance-Reduce primitive (Alg. 7)."""
    timer = wall_timer()
    n = graph.num_vertices
    gen = ensure_rng(rng)
    cost = CostModel(device)
    ctx = GunrockContext(graph, cost)

    colors = np.zeros(n, dtype=np.int64)

    frontier = Frontier.all_vertices(graph)
    enactor = Enactor(ctx)
    int_min = np.iinfo(np.int64).min

    def iteration(it: int) -> bool:
        nonlocal frontier
        # Fresh randomness per iteration, matching the other variants.
        keys = strict_keys(n, gen)
        cost.charge_map(len(frontier), name="rand_kernel")
        san = cost.sanitizer
        if san is not None:
            with san.kernel("rand_kernel") as k:
                lanes = np.arange(n, dtype=np.int64)
                k.write("keys", lanes, lane=lanes)
        # Advance: materialize the neighbor frontier of active vertices,
        # keeping only neighbors not yet removed/colored (Alg. 7 line 17).
        ef = advance(ctx, frontier, name="advance_op")
        # Mask out already-colored targets by sending their key to -inf so
        # they can never win the reduction.
        masked_keys = np.where(colors == 0, keys, int_min)
        seg_max = neighbor_reduce(
            ctx, ef, masked_keys, op="max", name="reduce_max_op"
        )
        ctx.sync(name="reduce_sync")

        def color_removed_op(ids: np.ndarray) -> None:
            winners = keys[ids] > seg_max
            colors[ids[winners]] = it + 1
            if san is not None:
                with san.kernel("color_removed_op") as k:
                    # Thread v compares its own key with its segment's
                    # reduced max and writes only its own color slot.
                    k.read("keys", ids, lane=ids)
                    k.read(
                        "seg_max",
                        np.arange(len(ids), dtype=np.int64),
                        lane=ids,
                    )
                    won = ids[winners]
                    k.write("colors", won, lane=won)

        compute(ctx, frontier, color_removed_op, name="color_removed_op", loop="map")
        ctx.sync(name="color_sync")

        frontier = filter_frontier(
            ctx, frontier, colors[frontier.ids] == 0, name="compact"
        )
        return bool(frontier)

    iterations = enactor.run(iteration)
    return ColoringResult(
        colors=colors,
        algorithm="gunrock.ar",
        graph_name=graph.name,
        iterations=iterations,
        sim_ms=cost.total_ms,
        wall_s=timer.elapsed_s(),
        counters=cost.counters,
        trace=cost.trace,
    )
