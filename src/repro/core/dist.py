"""Distributed (multi-device) coloring variants — Bogle & Slota style.

The ROADMAP's north-star graphs do not fit one device, so this module
ports the two rework-style colorings to the multi-device cost model
(`repro.gpusim.cluster`): a deterministic partitioner
(`repro.graph.partition`) assigns every vertex an owning device, each
simulated device executes the superstep kernels over the vertices it
owns, and devices meet at a cluster barrier where boundary colors cross
the interconnect as halo messages and fast devices stall for the
slowest one.  The supersteps read only the owner map and the per-vertex
boundary flags.  Each superstep gathers its frontier's owners once, and
every per-device tally is one ``bincount`` over that frontier (or its
winners or losers), never a pass over all n vertices or m arcs.

Algorithm semantics are *device-count invariant by construction*: every
device draws the same per-iteration random keys (seed-replicated, as in
Bogle & Slota's distributed JPL), and boundary colors are exchanged at
every superstep barrier, so each device sees exactly the neighbor state
a single-device run would see.  The returned ``colors`` are therefore
bit-identical across 1, 2, …, N devices — the cross-device determinism
wall in ``tests/test_dist_determinism.py`` pins this.

Cost accounting is per-device and exact: each device charges its local
kernels (same kernel names and per-work costs as the single-device
counterparts in :mod:`repro.core.naumov` / `.speculative`), plus halo
(``kind="halo"``) and barrier-stall (``kind="wait"``) records.  On one
device the cluster barrier is a no-op and the charge stream — hence
``sim_ms``, counters, and trace — is bit-identical to the existing
single-device implementations, so the golden suite extends rather than
forks.

Boundary conflicts (two devices speculatively giving one color to the
two endpoints of a cut edge) are resolved by the priority rule in
bounded rounds: the lower-priority endpoint reverts, the reversion is
broadcast in the round's second halo exchange.  The highest-priority
active vertex never loses, so every round finalizes one vertex at least
and a run takes at most n rounds; the guard raises past that, exactly
as in the single-device speculative implementation.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .. import backend as _backend
from .._clock import wall_timer
from .._rng import RngLike, ensure_rng
from ..errors import ColoringError
from ..gpusim.cluster import ClusterCostModel, ClusterSpec, InterconnectSpec
from ..gpusim.device import DeviceSpec
from ..graph.csr import CSRGraph, arc_positions
from ..graph.partition import boundary_flags, partition_owner
from ..trace import span_phase, tag_iteration
from .keys import strict_keys
from .result import ColoringResult

__all__ = [
    "distributed_jpl_coloring",
    "distributed_speculative_coloring",
    "HALO_BYTES_PER_VERTEX",
]

#: Wire size of one boundary-color update: a global vertex id plus its
#: color, both int64.
HALO_BYTES_PER_VERTEX = 16


def _make_cluster(
    num_devices: int,
    device: Optional[DeviceSpec],
    interconnect: Optional[InterconnectSpec],
) -> ClusterCostModel:
    kwargs = {}
    if device is not None:
        kwargs["device"] = device
    if interconnect is not None:
        kwargs["interconnect"] = interconnect
    return ClusterCostModel(ClusterSpec.homogeneous(num_devices, **kwargs))


def _per_device(dev, ndev, weights=None) -> list:
    """Per-device count of some vertices — or the sum of their
    ``weights`` — given each one's owning device ``dev``, as exact Python
    ints, in one bincount.  Weight sums are nonnegative integers below
    2**53, so the float64 accumulation is exact."""
    if weights is None:
        return np.bincount(dev, minlength=ndev).tolist()
    sums = np.bincount(dev, weights=weights, minlength=ndev)
    return [int(x) for x in sums]


def distributed_jpl_coloring(
    graph: CSRGraph,
    *,
    rng: RngLike = None,
    device: Optional[DeviceSpec] = None,
    num_devices: int = 1,
    interconnect: Optional[InterconnectSpec] = None,
    partitioner: str = "block",
) -> ColoringResult:
    """Distributed JPL: per-device independent-set supersteps with a
    boundary-color halo exchange at every iteration barrier.

    Random keys are seed-replicated on every device, so the produced
    coloring is bit-identical to :func:`repro.core.naumov.
    naumov_jpl_coloring` at any device count; on one device the whole
    charge stream is bit-identical too.
    """
    timer = wall_timer()
    n = graph.num_vertices
    gen = ensure_rng(rng)
    cluster = _make_cluster(num_devices, device, interconnect)
    ndev = cluster.num_devices
    owner = partition_owner(graph, ndev, method=partitioner)
    boundary = boundary_flags(graph, owner)
    degrees = graph.degrees
    offsets = graph.offsets
    be = _backend.current()

    colors = np.zeros(n, dtype=np.int64)
    iterations = 0
    while True:
        active = colors == 0
        ids = be.frontier_compact(active)
        if len(ids) == 0:
            break
        if iterations > 2 * n + 16:
            raise ColoringError("dist.jpl failed to converge")
        iterations += 1
        keys = strict_keys(n, gen)
        won = be.active_max(offsets, graph.indices, keys, active, ids)
        colors[ids[won]] = iterations
        dev = owner[ids]
        degs = degrees[ids]
        n_active = _per_device(dev, ndev)
        n_arcs = _per_device(dev, ndev, degs)
        n_halo = _per_device(dev[won & boundary[ids]], ndev)
        for d in range(ndev):
            cm = cluster.device(d)
            tag_iteration(cm.trace, iterations - 1)
            with span_phase(cm.trace, "superstep"):
                cm.charge_map(n_active[d], name="rand_kernel")
                cm.charge_edge_balanced(n_arcs[d], name="jpl_kernel", eff=1.85)
                san = cm.sanitizer
                if san is not None:
                    mine = dev == d
                    dids, ddegs = ids[mine], degs[mine]
                    lanes = np.repeat(dids, ddegs)
                    nbrs = graph.indices[arc_positions(offsets, dids, ddegs)]
                    with san.kernel("dist_jpl_kernel") as k:
                        # Thread v (owned, active) scans its local row —
                        # local and ghost neighbors alike — and writes
                        # only its own color slot.
                        k.read("active", nbrs, lane=lanes)
                        k.read("keys", nbrs, lane=lanes)
                        dwon = ids[won & mine]
                        k.write("colors", dwon, lane=dwon)
                    with san.kernel("halo_exchange_kernel") as k:
                        # Each device refreshes its private ghost slots:
                        # ghost g is written by exactly the lane that
                        # owns that mirror slot.
                        ghost_upd = ids[won & ~mine]
                        k.read("colors", ghost_upd, lane=ghost_upd)
                        k.write("ghost_colors", ghost_upd, lane=ghost_upd)
                cm.charge_reduce(n_active[d], name="done_check")
                cm.charge_sync(name="iter_sync")
        cluster.barrier([HALO_BYTES_PER_VERTEX * h for h in n_halo])

    algorithm = "dist.jpl" if ndev == 1 else f"dist.jpl[d={ndev}]"
    return ColoringResult(
        colors=colors,
        algorithm=algorithm,
        graph_name=graph.name,
        iterations=iterations,
        sim_ms=cluster.total_ms,
        wall_s=timer.elapsed_s(),
        counters=cluster.merged_counters(),
        trace=cluster.merged_trace(algorithm=algorithm, dataset=graph.name),
    )


def distributed_speculative_coloring(
    graph: CSRGraph,
    *,
    rng: RngLike = None,
    device: Optional[DeviceSpec] = None,
    num_devices: int = 1,
    interconnect: Optional[InterconnectSpec] = None,
    partitioner: str = "block",
) -> ColoringResult:
    """Distributed speculative coloring with boundary conflict rounds.

    Every round each device speculatively first-fits its local active
    vertices, exchanges boundary colors, detects same-color edges
    (cut edges included — the priorities are seed-replicated so both
    endpoints agree on the loser), reverts the losers, and broadcasts
    the reversions in a second halo exchange.  Coloring and round count
    are bit-identical to :func:`repro.core.speculative.
    speculative_gpu_coloring` at any device count.
    """
    timer = wall_timer()
    n = graph.num_vertices
    gen = ensure_rng(rng)
    cluster = _make_cluster(num_devices, device, interconnect)
    ndev = cluster.num_devices
    owner = partition_owner(graph, ndev, method=partitioner)
    boundary = boundary_flags(graph, owner)
    be = _backend.current()

    prio = strict_keys(n, gen)
    for d, n_owned in enumerate(np.bincount(owner, minlength=ndev).tolist()):
        cluster.device(d).charge_map(n_owned, name="init_random")
    cluster.barrier()

    colors = np.zeros(n, dtype=np.int64)
    offsets = graph.offsets
    ids = np.arange(n, dtype=np.int64)
    rounds = 0
    while len(ids):
        if rounds == n:
            raise ColoringError("dist.speculative failed to converge")
        rounds += 1
        starts = offsets[ids]
        segs = offsets[ids + 1] - starts
        colors[ids] = be.segmented_mex(colors, graph.indices, starts, segs)
        lost = be.conflict_losers(colors, graph.indices, ids, starts, segs, prio)
        dev = owner[ids]
        cut = boundary[ids]
        n_arcs = _per_device(dev, ndev, segs)
        n_speculate = _per_device(dev[cut], ndev)
        n_resolve = _per_device(dev[lost & cut], ndev)
        for d in range(ndev):
            cm = cluster.device(d)
            tag_iteration(cm.trace, rounds - 1)
            with span_phase(cm.trace, "superstep"):
                cm.charge_edge_balanced(n_arcs[d], name="speculate_kernel", eff=2.0)
                san = cm.sanitizer
                if san is not None:
                    with san.kernel("dist_speculate_kernel") as k:
                        # Each active owned vertex gathers its row's
                        # forbidden colors and writes its own slot.
                        dids = ids[dev == d]
                        k.read("colors_snapshot", dids, lane=dids)
                        k.write("colors", dids, lane=dids)
                cm.charge_sync(name="speculate_sync")
        cluster.barrier(
            [HALO_BYTES_PER_VERTEX * h for h in n_speculate],
            name="halo_exchange",
        )
        for d in range(ndev):
            cm = cluster.device(d)
            with span_phase(cm.trace, "superstep"):
                cm.charge_edge_balanced(n_arcs[d], name="conflict_kernel", eff=1.0)
                san = cm.sanitizer
                if san is not None:
                    with san.kernel("boundary_resolve_kernel") as k:
                        # Both endpoints of a same-color cut edge detect
                        # the clash; the agreed loser is uncolored with
                        # an atomic exchange (either side may win the
                        # store — the value is identical).
                        dlose = ids[lost & (dev == d)]
                        k.read("prio", dlose, lane=dlose)
                        k.write("colors", dlose, atomic=True)
                cm.charge_sync(name="conflict_sync")
        cluster.barrier(
            [HALO_BYTES_PER_VERTEX * h for h in n_resolve],
            name="boundary_resolve",
        )
        ids = ids[lost]
        colors[ids] = 0

    algorithm = (
        "dist.speculative" if ndev == 1 else f"dist.speculative[d={ndev}]"
    )
    return ColoringResult(
        colors=colors,
        algorithm=algorithm,
        graph_name=graph.name,
        iterations=rounds,
        sim_ms=cluster.total_ms,
        wall_s=timer.elapsed_s(),
        counters=cluster.merged_counters(),
        trace=cluster.merged_trace(algorithm=algorithm, dataset=graph.name),
    )
