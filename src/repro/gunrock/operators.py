"""Gunrock operators: compute, advance, neighbor-reduce, filter.

These are the three operators the paper builds its coloring variants
from (§III-B), plus the filter used for frontier compaction.  Each
operator executes vectorized and charges the
:class:`~repro.gpusim.CostModel` with the structural cost of the real
GPU operator:

* ``compute`` — a parallel forall over the frontier.  When the kernel
  declares ``loop="serial"`` (the per-thread neighbor for-loop of
  Alg. 5 lines 25–35) the charge uses the warp lock-step model; a plain
  per-item kernel charges a map.
* ``advance`` — materializes the neighbor (edge) frontier, charged as a
  load-balanced edge-parallel kernel.
* ``neighbor_reduce`` — advance + segmented reduction over each
  vertex's neighbor list (Alg. 7 line 10), "internally performed by
  assigning segments to threads, warps or blocks depending on the size
  of the segment" — charged with the per-segment overhead that makes AR
  the paper's slowest variant.
* ``filter`` — stream compaction of a frontier by predicate.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from .. import backend as _backend
from ..errors import FrontierError, GunrockError
from ..gpusim.cost_model import CostModel
from ..graph.csr import CSRGraph, arc_positions
from ..trace import span_phase
from .frontier import EdgeFrontier, Frontier

__all__ = ["GunrockContext", "compute", "advance", "neighbor_reduce", "filter_frontier"]


class GunrockContext:
    """Shared state for one algorithm run: the graph and its cost model."""

    def __init__(self, graph: CSRGraph, cost: Optional[CostModel] = None) -> None:
        self.graph = graph
        self.cost = cost if cost is not None else CostModel()

    def sync(self, name: str = "sync") -> None:
        """A global synchronization (kernel boundary)."""
        self.cost.charge_sync(name=name)


def compute(
    ctx: GunrockContext,
    frontier: Frontier,
    kernel: Callable[[np.ndarray], None],
    *,
    name: str,
    loop: str = "map",
    passes: int = 1,
    atomics: int = 0,
) -> None:
    """Run ``kernel(active_ids)`` as a parallel forall over the frontier.

    ``loop="serial"`` charges the warp lock-step serial-neighbor-loop
    model (``passes`` full neighbor sweeps per thread); ``loop="map"``
    charges a flat per-item kernel.  ``atomics`` counts global atomic
    operations the kernel issues (e.g. the colored-vertex counter of the
    atomics variant in Table II).
    """
    if loop not in ("map", "serial"):
        raise GunrockError(f"unknown compute loop kind {loop!r}")
    kernel(frontier.ids)
    with span_phase(ctx.cost.trace, f"compute:{name}"):
        if loop == "serial":
            ctx.cost.charge_serial_loop(
                frontier.degrees(ctx.graph), name=name, passes=passes
            )
        else:
            ctx.cost.charge_map(len(frontier), name=name)
        if atomics:
            ctx.cost.charge_atomics(atomics, name=f"{name}.atomics")


def advance(
    ctx: GunrockContext,
    frontier: Frontier,
    *,
    name: str = "advance",
) -> EdgeFrontier:
    """Generate the neighbor frontier of ``frontier`` (§III-B1).

    Each input vertex maps to its full neighbor list; the result keeps
    segment offsets so a segmented reduction can follow.
    """
    g = ctx.graph
    degs = frontier.degrees(g)
    total = int(degs.sum())
    seg = np.zeros(len(frontier) + 1, dtype=np.int64)
    np.cumsum(degs, out=seg[1:])
    targets = g.indices[arc_positions(g.offsets, frontier.ids, degs)]
    sources = np.repeat(frontier.ids, degs)
    # Load-balanced edge-parallel kernel that also materializes the
    # frontier to memory (the overhead §V-B attributes to AR).
    with span_phase(ctx.cost.trace, f"advance:{name}"):
        ctx.cost.charge_edge_balanced(total, name=name, eff=1.5)
    san = ctx.cost.sanitizer
    if san is not None:
        with san.kernel(name) as k:
            # One thread per output edge slot writes its own slot.
            slots = np.arange(total, dtype=np.int64)
            k.write(f"edge_frontier@{name}", slots, lane=slots)
    return EdgeFrontier(sources, targets, seg, frontier)


_REDUCERS = {
    "max": (np.maximum, np.iinfo(np.int64).min),
    "min": (np.minimum, np.iinfo(np.int64).max),
    "sum": (np.add, 0),
}


def neighbor_reduce(
    ctx: GunrockContext,
    edge_frontier: EdgeFrontier,
    values: np.ndarray,
    *,
    op: str = "max",
    arg: bool = False,
    name: str = "neighbor_reduce",
) -> np.ndarray:
    """Segmented reduction of ``values[target]`` over each source vertex's
    neighbor segment (§III-B3).

    Returns one reduced value per origin-frontier vertex (the monoid
    identity for empty segments).  With ``arg=True`` returns instead the
    *target vertex id* attaining the extremum, the smallest on ties and
    -1 for empty segments (needed by the AR variant, which colors the
    winning neighbor).
    """
    try:
        ufunc, identity = _REDUCERS[op]
    except KeyError:
        raise GunrockError(f"unknown reduction {op!r}") from None
    if arg and op == "sum":
        raise GunrockError("arg reduction requires max or min")
    seg = edge_frontier.segment_offsets
    nseg = len(seg) - 1
    lens = np.diff(seg)
    vals = values[edge_frontier.targets]
    with span_phase(ctx.cost.trace, f"neighbor_reduce:{name}"):
        ctx.cost.charge_segmented_reduce(
            edge_frontier.num_edges, nseg, name=name
        )
    san = ctx.cost.sanitizer
    if san is not None:
        with san.kernel(name) as k:
            # Each edge thread reads its target's value and combines it
            # into the segment slot — a declared cross-lane reduction.
            k.read(f"values@{name}", edge_frontier.targets)
            if edge_frontier.num_edges:
                seg_lanes = np.repeat(np.arange(nseg, dtype=np.int64), lens)
                k.write(f"reduce_out@{name}", seg_lanes, reduction=True)
    be = _backend.current()
    if op == "sum":
        # Float accumulation order is part of the backend contract, so
        # sums keep the scatter formulation.
        out = np.full(nseg, identity, dtype=values.dtype)
        if edge_frontier.num_edges:
            seg_of = np.repeat(np.arange(nseg, dtype=np.int64), lens)
            be.scatter_reduce(out, seg_of, vals, ufunc)
        return out
    # max/min: one segmented reduction over the non-empty segments;
    # empty ones keep the identity (or -1, "no target", for arg).
    full = np.flatnonzero(lens)
    if arg:
        out = np.full(nseg, -1, dtype=np.int64)
    else:
        out = np.full(nseg, identity, dtype=values.dtype)
    if len(full) == 0:
        return out
    extremes = be.segmented_reduce(vals, seg[full], op)
    if arg:
        # The smallest target attaining its segment's extremum.
        hits = vals == np.repeat(extremes, lens[full])
        targets = np.where(hits, edge_frontier.targets, np.iinfo(np.int64).max)
        extremes = be.segmented_reduce(targets, seg[full], "min")
    out[full] = extremes
    return out


def filter_frontier(
    ctx: GunrockContext,
    frontier: Frontier,
    keep: np.ndarray,
    *,
    name: str = "filter",
) -> Frontier:
    """Compact a frontier to the entries where ``keep`` is true.

    ``keep`` is aligned with ``frontier.ids``.  Charged as a map kernel
    (stream compaction).
    """
    if len(keep) != len(frontier):
        raise FrontierError("keep mask must align with the frontier")
    with span_phase(ctx.cost.trace, f"filter:{name}"):
        ctx.cost.charge_map(len(frontier), name=name)
    kept = frontier.ids[
        _backend.current().frontier_compact(np.asarray(keep, dtype=bool))
    ]
    san = ctx.cost.sanitizer
    if san is not None:
        with san.kernel(name) as k:
            # Stream compaction: each surviving element lands in its own
            # (prefix-sum-assigned) output slot.
            slots = np.arange(len(kept), dtype=np.int64)
            k.write(f"compacted@{name}", slots, lane=slots)
    return Frontier(kept, _trusted=True)
