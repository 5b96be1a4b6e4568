"""Gunrock independent-set coloring (Algorithm 5 of the paper).

A compute operator runs over the frontier of uncolored vertices; each
thread serially scans its neighbor list comparing pre-assigned random
numbers.  Vertices beating every uncolored neighbor take color
``2·iteration + 1``; with the **min-max optimization** the vertices
losing to every uncolored neighbor simultaneously take
``2·iteration + 2`` — "we can perform assignment on two colors every
iteration with no additional overhead, amortizing the cost of the
serial for loop … this optimization reduces the coloring time almost
by half" (§IV-B1).

Variants (the rows of Table II):

* ``min_max=True``  — two independent sets per iteration (default);
* ``min_max=False`` — max set only, one color per iteration;
* ``use_atomics=True`` — the colored-count stop check uses a global
  atomic counter instead of a separate reduction kernel.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .. import backend as _backend
from .._clock import wall_timer
from .._rng import RngLike, ensure_rng
from ..gpusim.cost_model import CostModel
from ..gpusim.device import DeviceSpec
from ..graph.csr import CSRGraph
from ..gunrock import Enactor, Frontier, GunrockContext, compute, filter_frontier
from .keys import strict_keys
from .result import ColoringResult

__all__ = ["gunrock_is_coloring"]


def gunrock_is_coloring(
    graph: CSRGraph,
    *,
    min_max: bool = True,
    use_atomics: bool = False,
    rng: RngLike = None,
    device: Optional[DeviceSpec] = None,
) -> ColoringResult:
    """Color ``graph`` with the Gunrock IS primitive (Alg. 5)."""
    timer = wall_timer()
    n = graph.num_vertices
    gen = ensure_rng(rng)
    cost = CostModel(device)
    ctx = GunrockContext(graph, cost)

    colors = np.zeros(n, dtype=np.int64)

    frontier = Frontier.all_vertices(graph)
    enactor = Enactor(ctx)

    def iteration(it: int) -> bool:
        nonlocal frontier
        base = 2 * it if min_max else it
        active = colors == 0
        newly = np.zeros(n, dtype=bool)
        # Fresh random draw per iteration (Alg. 5 line 7 draws once; we
        # re-randomize like Naumov's JPL so the independent-set rate per
        # round matches the comparator — the min-max amortization claim
        # is unaffected, and color counts become directly comparable).
        keys = strict_keys(n, gen)
        cost.charge_map(len(frontier), name="rand_kernel")
        san = cost.sanitizer
        if san is not None:
            with san.kernel("rand_kernel") as k:
                lanes = np.arange(n, dtype=np.int64)
                k.write("keys", lanes, lane=lanes)

        def color_op(ids: np.ndarray) -> None:
            # Serial neighbor loop: compare own key with every active
            # neighbor's; both extrema found in the same pass.
            nmax, nmin = _backend.current().active_extrema(
                graph.offsets, graph.indices, keys, active
            )
            colormax = active & (keys > nmax)
            colors[colormax] = base + 1
            newly[:] = colormax
            if min_max:
                colormin = active & (keys < nmin)
                # The pseudocode assigns max first, min second, so a
                # vertex with no active neighbor ends at color + 2.
                colors[colormin] = base + 2
                newly[:] = colormax | colormin
            if san is not None:
                with san.kernel("color_op") as k:
                    # Thread v scans its own neighbor list: it reads the
                    # superstep-start snapshot mask and its neighbors'
                    # keys, then writes only its own color slot (twice,
                    # max then min, for a lonely vertex — same lane, so
                    # kernel-internal program order, not a race).
                    src = np.repeat(
                        np.arange(n, dtype=np.int64), graph.degrees
                    )
                    k.read("active", graph.indices, lane=src)
                    k.read("keys", graph.indices, lane=src)
                    wmax = np.flatnonzero(colormax)
                    k.write("colors", wmax, lane=wmax)
                    if min_max:
                        wmin = np.flatnonzero(colormin)
                        k.write("colors", wmin, lane=wmin)
                    k.write("newly", ids, lane=ids)

        compute(ctx, frontier, color_op, name="color_op", loop="serial")

        # Stop-condition check (§IV-B1): count colored vertices either
        # with a global atomic per newly colored vertex, or with a
        # separate reduction kernel.
        n_new = int(newly.sum())
        if use_atomics:
            compute(
                ctx,
                frontier,
                lambda ids: None,
                name="check_op",
                loop="map",
                atomics=n_new,
            )
            if san is not None:
                with san.kernel("check_op") as k:
                    # Every newly colored thread atomically increments
                    # one global counter (the Table II atomics variant).
                    k.read("newly", frontier.ids, lane=frontier.ids)
                    k.write(
                        "colored_counter",
                        np.zeros(n_new, dtype=np.int64),
                        atomic=True,
                    )
        else:
            compute(ctx, frontier, lambda ids: None, name="check_op", loop="map")
            cost.charge_reduce(len(frontier), name="check_reduce")
            if san is not None:
                with san.kernel("check_reduce") as k:
                    # Separate tree-reduction kernel over the flags.
                    k.read("newly", frontier.ids, lane=frontier.ids)
                    k.write(
                        "colored_count",
                        np.zeros(len(frontier), dtype=np.int64),
                        reduction=True,
                    )
        ctx.sync(name="check_sync")

        frontier = filter_frontier(
            ctx, frontier, colors[frontier.ids] == 0, name="compact"
        )
        return bool(frontier)

    iterations = enactor.run(iteration)
    variant = "min_max" if min_max else ("atomics" if use_atomics else "single")
    return ColoringResult(
        colors=colors,
        algorithm=f"gunrock.is[{variant}]",
        graph_name=graph.name,
        iterations=iterations,
        sim_ms=cost.total_ms,
        wall_s=timer.elapsed_s(),
        counters=cost.counters,
        trace=cost.trace,
    )
