"""Gunrock hash coloring (Algorithm 6 of the paper).

Each frontier vertex *proposes* its extremal-random-number uncolored
neighbors for coloring (one max, one min proposal per vertex), which
makes the tentative color set larger than an independent set — and
therefore not conflict-free.  Proposed vertices first try to *reuse* an
existing color not recorded in their per-vertex hash table of
prohibited colors; failing that they take a fresh color.  A conflict-
resolution operator then rescans neighborhoods and uncolors one
endpoint of every violation, and a hash-generation operator folds newly
visible neighbor colors into the tables (§IV-B2).

"The implementation sacrifices fast runtime for fewer colors …
Empirically, using the hash table can reduce the total number of
colors by 1 or 2.  Our hash table reserves a fixed number of entries
per vertex" — ``hash_size`` below, swept by the ``ablate.hash_size``
bench.

Two liveness details the paper leaves implicit are made explicit here:
an active vertex with no uncolored neighbors proposes *itself* (nobody
else ever would), and if an entire round's proposals are wiped out by
conflicts against earlier-final colors, the highest-priority proposal
is re-issued with a guaranteed-fresh color so every iteration makes
progress.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .. import backend as _backend
from .._clock import wall_timer
from .._rng import RngLike, ensure_rng
from ..gpusim.cost_model import CostModel
from ..gpusim.device import DeviceSpec
from ..graph.csr import CSRGraph, arc_positions
from ..gunrock import Enactor, Frontier, GunrockContext, compute, filter_frontier
from ..trace import span_phase
from .keys import key_ids, strict_keys
from .result import ColoringResult

__all__ = ["gunrock_hash_coloring"]


def _segments(graph: CSRGraph, ids: np.ndarray):
    """(owner, neighbor) arc arrays covering the given vertex ids."""
    degs = graph.offsets[ids + 1] - graph.offsets[ids]
    pos = arc_positions(graph.offsets, ids, degs)
    return np.repeat(ids, degs), graph.indices[pos]


def _propose(
    graph: CSRGraph, ids: np.ndarray, colors: np.ndarray, keys: np.ndarray
) -> np.ndarray:
    """Alg. 6 lines 11–18: nominate each active vertex's max-key and
    min-key uncolored neighbors; actives with no uncolored neighbor
    nominate themselves.  Returns the sorted unique nominees.

    The active vertices' arcs run owner by owner, so after dropping
    colored neighbors each owner's surviving run is one segment of a
    segmented max and min over the neighbors' strict keys.  Strict keys
    are unique, so an extremal key names exactly one vertex.
    """
    degs = graph.offsets[ids + 1] - graph.offsets[ids]
    nbrs = graph.indices[arc_positions(graph.offsets, ids, degs)]
    ok = colors[nbrs] == 0
    nbrs = nbrs[ok]
    # Surviving arcs per owner, from the running count of kept arcs.
    kept = np.zeros(len(ok) + 1, dtype=np.int64)
    np.cumsum(ok, out=kept[1:])
    ends = np.cumsum(degs)
    counts = kept[ends] - kept[ends - degs]
    picked = np.zeros(len(colors), dtype=bool)
    picked[ids[counts == 0]] = True
    if len(nbrs):
        starts = (np.cumsum(counts) - counts)[counts > 0]
        nbr_keys = keys[nbrs]
        be = _backend.current()
        for op in ("max", "min"):
            extremes = be.segmented_reduce(nbr_keys, starts, op)
            picked[key_ids(extremes, len(colors))] = True
    return np.flatnonzero(picked)


def gunrock_hash_coloring(
    graph: CSRGraph,
    *,
    hash_size: int = 4,
    rng: RngLike = None,
    device: Optional[DeviceSpec] = None,
) -> ColoringResult:
    """Color ``graph`` with the Gunrock hash primitive (Alg. 6)."""
    timer = wall_timer()
    n = graph.num_vertices
    gen = ensure_rng(rng)
    cost = CostModel(device)
    ctx = GunrockContext(graph, cost)

    colors = np.zeros(n, dtype=np.int64)
    # Proposal priorities; redrawn every iteration like the IS variant.
    keys = strict_keys(n, gen)
    # Per-vertex hash table of prohibited (= seen-on-neighbor) colors;
    # 0 marks an empty slot.  hash_size == 0 disables reuse entirely.
    table = np.zeros((n, max(hash_size, 1)), dtype=np.int64)
    table_used = np.zeros(n, dtype=np.int64)
    # A vertex whose reused color was killed by conflict resolution must
    # not retry reuse (the fixed-size table cannot learn all prohibited
    # colors); per Alg. 6 line 26 it takes the iteration's new color.
    failed_reuse = np.zeros(n, dtype=bool)

    frontier = Frontier.all_vertices(graph)
    enactor = Enactor(ctx)
    max_color_used = 0

    def reuse_colors(proposed: np.ndarray) -> None:
        """Alg. 6 lines 20–28: smallest existing color absent from the
        vertex's hash table, else a fresh color."""
        nonlocal max_color_used
        if len(proposed) == 0:
            return
        assigned = np.zeros(len(proposed), dtype=np.int64)
        may_reuse = ~failed_reuse[proposed]
        if hash_size > 0 and max_color_used > 0:
            rows = table[proposed]
            # A table holds at most hash_size colors, so some color in
            # 1..hash_size+1 escapes it; also cap by colors in existence.
            for c in range(1, min(max_color_used, hash_size + 1) + 1):
                free = may_reuse & (assigned == 0) & ~(rows == c).any(axis=1)
                assigned[free] = c
        fresh = assigned == 0
        # "If existing colors result in conflict, use new color" (line
        # 26): the smallest color not yet in existence.  All of this
        # round's fresh takers share it; conflict resolution arbitrates.
        assigned[fresh] = max_color_used + 1
        colors[proposed] = assigned
        max_color_used = max(max_color_used, int(assigned.max(initial=0)))

    def resolve_conflicts(proposed: np.ndarray) -> None:
        """Uncolor one endpoint of every same-color violation: against a
        finalized neighbor the proposal always loses; between two
        proposals the lower key loses.  If the whole round is wiped out,
        re-issue the top proposal with a guaranteed-fresh color."""
        nonlocal max_color_used
        if len(proposed) == 0:
            return
        is_new = np.zeros(n, dtype=bool)
        is_new[proposed] = True
        owners, nbrs = _segments(graph, proposed)
        clash = (colors[owners] == colors[nbrs]) & (colors[owners] > 0)
        owners, nbrs = owners[clash], nbrs[clash]
        vs_old = ~is_new[nbrs]
        losers = np.where(
            vs_old | (keys[owners] < keys[nbrs]), owners, nbrs
        )
        colors[losers] = 0
        failed_reuse[losers] = True
        champion = -1
        if not (colors[proposed] > 0).any():
            # Whole round wiped: the top-priority proposal retakes this
            # iteration's fresh color, which no *finalized* vertex holds
            # (every earlier taker of it was just uncolored above).
            champion = int(proposed[np.argmax(keys[proposed])])
            colors[champion] = max_color_used + 1
            max_color_used += 1
        san = cost.sanitizer
        if san is not None:
            with san.kernel("conflict_op") as k:
                # Each proposal's thread rescans its neighborhood; both
                # endpoints of a violation may try to uncolor the same
                # loser — an idempotent store of 0, declared atomic (the
                # hazard class Alg. 6's conflict resolution embraces).
                k.read("colors", nbrs, lane=owners)
                k.read("keys", nbrs, lane=owners)
                k.write("colors", losers, atomic=True)
                k.write("failed_reuse", losers, atomic=True)
                if champion >= 0:
                    # Champion re-issue: a single CAS claiming the
                    # iteration's fresh color.
                    k.write("colors", np.array([champion]), atomic=True)

    def update_tables(survivors: np.ndarray) -> None:
        """Fold this round's new colors into the neighbors' prohibited-
        color tables; full tables ignore new colors (§IV-B2)."""
        if hash_size == 0 or len(survivors) == 0:
            return
        owners, nbrs = _segments(graph, survivors)
        keep = colors[nbrs] == 0  # only uncolored vertices still need tables
        w, c = nbrs[keep], colors[owners[keep]]
        keep = c > 0
        w, c = w[keep], c[keep]
        if len(w) == 0:
            return
        enc = np.unique(w * np.int64(max_color_used + 2) + c)
        w = enc // np.int64(max_color_used + 2)
        c = enc % np.int64(max_color_used + 2)
        known = (table[w] == c[:, None]).any(axis=1)
        w, c = w[~known], c[~known]
        if len(w) == 0:
            return
        # Rank within each w group (w is sorted from np.unique).
        first = np.ones(len(w), dtype=bool)
        first[1:] = w[1:] != w[:-1]
        group_start = np.maximum.accumulate(
            np.where(first, np.arange(len(w)), 0)
        )
        rank = np.arange(len(w)) - group_start
        slot = table_used[w] + rank
        ok = slot < hash_size
        table[w[ok], slot[ok]] = c[ok]
        _backend.current().scatter_reduce(
            table_used, w[ok], np.ones(int(ok.sum()), dtype=np.int64), "sum"
        )
        san = cost.sanitizer
        if san is not None:
            with san.kernel("hash_gen_op") as k:
                # Each survivor's thread folds its color into its
                # uncolored neighbors' tables: slots are claimed with an
                # atomicAdd on table_used, so concurrent inserts into
                # one vertex's table are serialized by the counter.
                k.read("colors", np.concatenate([owners, nbrs]))
                k.write("table_used", w[ok], reduction=True)
                k.write(
                    "table",
                    w[ok] * np.int64(table.shape[1]) + slot[ok],
                    atomic=True,
                )

    def iteration(it: int) -> bool:
        nonlocal frontier, keys
        keys = strict_keys(n, gen)
        cost.charge_map(len(frontier), name="rand_kernel")
        san = cost.sanitizer
        if san is not None:
            with san.kernel("rand_kernel") as k:
                lanes = np.arange(n, dtype=np.int64)
                k.write("keys", lanes, lane=lanes)
        holder = {}

        def hash_color_op(ids: np.ndarray) -> None:
            proposed = _propose(graph, ids, colors, keys)
            reuse_colors(proposed)
            holder["proposed"] = proposed
            if san is not None:
                owners, nbrs = _segments(graph, ids)
                with san.kernel("hash_color_op") as k:
                    # Each active thread scans its neighbors' colors and
                    # keys, consults the nominee's prohibited-color
                    # table, and nominates by storing a color — several
                    # owners may nominate the same neighbor, so the
                    # store is an atomicCAS arbitrated later by the
                    # conflict-resolution pass.
                    k.read("colors", nbrs, lane=owners)
                    k.read("keys", nbrs, lane=owners)
                    k.read("table", proposed)
                    k.write("colors", proposed, atomic=True)

        # Named algorithm phases (Alg. 6's three operators) so the trace
        # shows the paper's propose → resolve → hash-update shape.
        with span_phase(cost.trace, "propose"):
            compute(ctx, frontier, hash_color_op, name="hash_color_op", loop="serial")
            ctx.sync(name="propose_sync")

        proposed = holder["proposed"]
        with span_phase(cost.trace, "resolve_conflicts"):
            pf = Frontier(proposed, _trusted=True)
            compute(ctx, pf, resolve_conflicts, name="conflict_op", loop="serial")
            ctx.sync(name="conflict_sync")

        with span_phase(cost.trace, "update_tables"):
            survivors = proposed[colors[proposed] > 0]
            sf = Frontier(survivors, _trusted=True)
            compute(ctx, sf, update_tables, name="hash_gen_op", loop="serial")

        frontier = filter_frontier(
            ctx, frontier, colors[frontier.ids] == 0, name="compact"
        )
        return bool(frontier)

    iterations = enactor.run(iteration)
    return ColoringResult(
        colors=colors,
        algorithm=f"gunrock.hash[h={hash_size}]",
        graph_name=graph.name,
        iterations=iterations,
        sim_ms=cost.total_ms,
        wall_s=timer.elapsed_s(),
        counters=cost.counters,
        trace=cost.trace,
    )
