"""Hardwired comparator implementations after Naumov et al. [12].

The paper benchmarks against the two ``csrcolor``-family GPU colorings
from "Parallel graph coloring with applications to the incomplete-LU
factorization on the GPU" (NVIDIA NVR-2015-001), exposed through
cuSPARSE:

* **JPL** (Jones–Plassmann–Luby): every iteration draws *fresh* random
  values; each uncolored vertex that is a strict local maximum among
  uncolored neighbors takes the iteration's color.  One independent
  set — one color — per iteration, load-balanced hardwired kernels.
* **CC**: the aggressive multi-hash variant: each sweep evaluates
  several hash functions at once and colors both the local maxima and
  the local minima of each hash, assigning up to ``2 × num_hashes``
  distinct colors per sweep.  Far fewer sweeps, far more colors — the
  implementation the paper reports GraphBLAST-MIS beating by ≈5× on
  color count.

Both execute on the same simulated device so speedups against them are
apples-to-apples with the Gunrock/GraphBLAST implementations.
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
from ..graph.csr import CSRGraph, row_reduce
from ..trace import span_phase, tag_iteration
from .keys import strict_keys
from .result import ColoringResult

__all__ = ["naumov_jpl_coloring", "naumov_cc_coloring"]

_I64_MIN = np.iinfo(np.int64).min
_I64_MAX = np.iinfo(np.int64).max


def _active_snapshot(graph: CSRGraph, active: np.ndarray):
    """Compress the CSR down to arcs whose *neighbor* is active.

    The CC sweep evaluates every hash of a sweep against the same
    activity snapshot, so the per-arc membership test and neighbor
    gather structure can be built once and reused by all
    ``num_hashes`` extrema passes.  Only valid for undirected (arc-
    symmetric) graphs, where "active neighbors of v" equals "active
    sources of arcs into v" — which is what the backend's
    ``active_extrema`` computes by scatter.

    Returns ``(sub_indices, sub_offsets)``: the active-neighbor lists
    of all vertices concatenated and their CSR offsets.
    """
    offsets, indices = graph.offsets, graph.indices
    mask = active[indices]
    prefix = np.zeros(len(indices) + 1, dtype=np.int64)
    np.cumsum(mask, out=prefix[1:])
    return indices[mask], prefix[offsets]


def _snapshot_extrema(keys: np.ndarray, snapshot):
    """Per-vertex max/min of ``keys`` over a compressed snapshot.

    Row reductions over the active-neighbor lists replace the per-arc
    scatter of ``active_extrema``; the results are element-for-element
    identical (both reduce the same key multiset per vertex).
    """
    sub, sub_offsets = snapshot
    vals = keys[sub]
    nmax = row_reduce(vals, sub_offsets, "max", _I64_MIN)
    nmin = row_reduce(vals, sub_offsets, "min", _I64_MAX)
    return nmax, nmin


def naumov_jpl_coloring(
    graph: CSRGraph,
    *,
    rng: RngLike = None,
    device: Optional[DeviceSpec] = None,
) -> ColoringResult:
    """The JPL comparator: one re-randomized independent set per color."""
    timer = wall_timer()
    n = graph.num_vertices
    gen = ensure_rng(rng)
    cost = CostModel(device)

    colors = np.zeros(n, dtype=np.int64)
    iterations = 0
    while True:
        active = colors == 0
        ids = np.flatnonzero(active)
        n_active = len(ids)
        if n_active == 0:
            break
        if iterations > 2 * n + 16:
            raise ColoringError("naumov.jpl failed to converge")
        iterations += 1
        tag_iteration(cost.trace, iterations - 1)
        with span_phase(cost.trace, "superstep"):
            keys = strict_keys(n, gen)
            cost.charge_map(n_active, name="rand_kernel")
            # Hardwired load-balanced kernel over the arcs of active vertices.
            active_arcs = int(graph.degrees[ids].sum())
            cost.charge_edge_balanced(active_arcs, name="jpl_kernel", eff=1.85)
            be = _backend.current()
            won = ids[be.active_max(graph.offsets, graph.indices, keys, active, ids)]
            colors[won] = iterations
            san = cost.sanitizer
            if san is not None:
                with san.kernel("jpl_kernel") as k:
                    # Thread v scans its arcs against the iteration-start
                    # activity snapshot and writes only its own color slot.
                    src = np.repeat(np.arange(n, dtype=np.int64), graph.degrees)
                    k.read("active", graph.indices, lane=src)
                    k.read("keys", graph.indices, lane=src)
                    k.write("colors", won, lane=won)
            cost.charge_reduce(n_active, name="done_check")
            cost.charge_sync(name="iter_sync")

    return ColoringResult(
        colors=colors,
        algorithm="naumov.jpl",
        graph_name=graph.name,
        iterations=iterations,
        sim_ms=cost.total_ms,
        wall_s=timer.elapsed_s(),
        counters=cost.counters,
        trace=cost.trace,
    )


def naumov_cc_coloring(
    graph: CSRGraph,
    *,
    num_hashes: int = 10,
    rng: RngLike = None,
    device: Optional[DeviceSpec] = None,
) -> ColoringResult:
    """The CC comparator: multi-hash sweeps, up to ``2·num_hashes``
    colors per sweep.

    Within a sweep, hash k's local maxima take color ``base + 2k + 1``
    and its local minima ``base + 2k + 2``; a vertex colored by an
    earlier hash of the same sweep is excluded from later ones.  All
    hashes of a sweep read the same activity snapshot, which is safe
    because each (hash, extremum) class is independently conflict-free
    and classes get distinct colors.
    """
    if num_hashes < 1:
        raise ColoringError("num_hashes must be >= 1")
    timer = wall_timer()
    n = graph.num_vertices
    gen = ensure_rng(rng)
    cost = CostModel(device)

    colors = np.zeros(n, dtype=np.int64)
    sweeps = 0
    while True:
        active = colors == 0
        n_active = int(active.sum())
        if n_active == 0:
            break
        if sweeps > 2 * n + 16:
            raise ColoringError("naumov.cc failed to converge")
        sweeps += 1
        tag_iteration(cost.trace, sweeps - 1)
        with span_phase(cost.trace, "superstep"):
            base = 2 * num_hashes * (sweeps - 1)
            cost.charge_map(n_active, name="rand_kernel")
            active_arcs = int(graph.degrees[active].sum())
            # One kernel evaluates all hashes: per-edge cost grows mildly
            # with the number of hash evaluations.
            cost.charge_edge_balanced(
                active_arcs, name="cc_kernel", eff=1.0 + 0.3 * num_hashes
            )
            # All hashes compare against the sweep-start snapshot, so the
            # compressed active-neighbor structure is shared across them
            # (undirected graphs only; directed fall back to the scatter).
            snapshot = active
            compressed = _active_snapshot(graph, active) if graph.undirected else None
            remaining = active.copy()
            san = cost.sanitizer
            sweep_writes = []
            for k in range(num_hashes):
                keys = strict_keys(n, gen)
                if compressed is not None:
                    nmax, nmin = _snapshot_extrema(keys, compressed)
                else:
                    nmax, nmin = _backend.current().active_extrema(
                        graph.offsets, graph.indices, keys, snapshot
                    )
                # Extremal w.r.t. the snapshot: each (hash, extremum) class
                # is an independent set, and classes take distinct colors,
                # so intra-sweep assignments never conflict.  Comparing
                # against the stale snapshot (rather than the shrinking
                # active set) is what makes csrcolor burn through color
                # slots: later hashes color few vertices but still consume
                # two fresh colors each.
                maxima = remaining & (keys > nmax)
                minima = remaining & (keys < nmin) & ~maxima
                colors[maxima] = base + 2 * k + 1
                colors[minima] = base + 2 * k + 2
                remaining = remaining & (colors == 0)
                if san is not None:
                    sweep_writes.append(np.flatnonzero(maxima))
                    sweep_writes.append(np.flatnonzero(minima))
            if san is not None:
                with san.kernel("cc_kernel") as sk:
                    # One kernel evaluates every hash of the sweep against
                    # the sweep-start snapshot; thread v writes only its own
                    # color slot, and the ``remaining`` exclusion guarantees
                    # the hash classes never double-write a vertex.
                    src = np.repeat(np.arange(n, dtype=np.int64), graph.degrees)
                    sk.read("active_snapshot", graph.indices, lane=src)
                    won = np.concatenate(sweep_writes) if sweep_writes else (
                        np.empty(0, dtype=np.int64)
                    )
                    sk.write("colors", won, lane=won)
            cost.charge_reduce(n_active, name="done_check")
            cost.charge_sync(name="iter_sync")

    return ColoringResult(
        colors=colors,
        algorithm=f"naumov.cc[h={num_hashes}]",
        graph_name=graph.name,
        iterations=sweeps,
        sim_ms=cost.total_ms,
        wall_s=timer.elapsed_s(),
        counters=cost.counters,
        trace=cost.trace,
    )
