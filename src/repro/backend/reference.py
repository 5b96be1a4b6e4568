"""The reference backend: today's vectorized numpy, verbatim.

Every primitive here is a pure extraction of the code that used to live
inline at its call sites (``core/``, ``gunrock/``, ``graphblas/``); the
golden-trajectory suite pins the trajectories those loops produced, so
this module is the executable definition of the bit-identity contract
other backends are tested against.
"""

from __future__ import annotations

from typing import Callable, Tuple

import numpy as np

from ..graph.csr import arc_positions
from .base import Backend, OpLike, resolve_op

__all__ = ["ReferenceBackend"]

_I64_MIN = np.iinfo(np.int64).min
_I64_MAX = np.iinfo(np.int64).max

#: Colors below this fit one int64 bitset (bit c for color c).
_BITSET_COLORS = 63


def _active_arcs(offsets, indices, keys, active):
    """(target, key) of every arc leaving an active vertex, pushed from
    the compacted frontier rather than filtered out of all m arcs."""
    ids = np.flatnonzero(active)
    degs = offsets[ids + 1] - offsets[ids]
    dst = indices[arc_positions(offsets, ids, degs)]
    return dst, np.repeat(keys[ids], degs)


class ReferenceBackend(Backend):
    """Interpreted-numpy execution of every primitive."""

    name = "reference"

    @property
    def fallback(self) -> Backend:
        return self

    def map_elementwise(self, fn: Callable, *arrays: np.ndarray):
        return fn(*arrays)

    def frontier_compact(self, mask: np.ndarray) -> np.ndarray:
        return np.flatnonzero(mask)

    def scatter_reduce(
        self, out: np.ndarray, idx: np.ndarray, vals: np.ndarray, op: OpLike
    ) -> None:
        resolve_op(op).at(out, idx, vals)

    def scatter_hit(
        self,
        out: np.ndarray,
        hit: np.ndarray,
        idx: np.ndarray,
        vals: np.ndarray,
        op: OpLike,
    ) -> None:
        resolve_op(op).at(out, idx, vals)
        hit[idx] = True

    def segmented_reduce(
        self, values: np.ndarray, starts: np.ndarray, op: OpLike
    ) -> np.ndarray:
        return resolve_op(op).reduceat(values, starts)

    def segmented_mex(
        self,
        colors: np.ndarray,
        indices: np.ndarray,
        starts: np.ndarray,
        counts: np.ndarray,
    ) -> np.ndarray:
        k = len(starts)
        if k == 0:
            return np.empty(0, dtype=np.int64)
        counts = np.asarray(counts, dtype=np.int64)
        total = int(counts.sum())
        out = np.ones(k, dtype=np.int64)
        if total == 0:
            return out
        excl = np.cumsum(counts) - counts
        pos = np.arange(total, dtype=np.int64) + np.repeat(
            np.asarray(starts, dtype=np.int64) - excl, counts
        )
        nbr_colors = colors[indices[pos]]
        maxc = int(nbr_colors.max())
        if maxc < _BITSET_COLORS:
            # OR bit c of every positive neighbor color into its
            # segment's word; the mex is the lowest clear bit above 0.
            shift = np.maximum(nbr_colors, 0).astype(np.int64, copy=False)
            bits = np.left_shift(np.int64(1), shift) & ~np.int64(1)
            nonempty = counts > 0
            used = np.zeros(k, dtype=np.int64)
            used[nonempty] = np.bitwise_or.reduceat(bits, excl[nonempty])
            free = ~(used | 1)
            # free & -free isolates the lowest clear bit, a power of two
            # (1 << 63 wraps to -2**63); float64 holds it exactly and
            # frexp's exponent is one past the bit's index either way.
            lowest = (free & -free).astype(np.float64)
            return (np.frexp(lowest)[1] - 1).astype(np.int64)
        # Collect each segment's distinct positive neighbor colors sorted
        # ascending; the mex is one past the longest prefix matching
        # 1, 2, 3, …  (unique-encode + group-rank, fully vectorized).
        owner = np.repeat(np.arange(k, dtype=np.int64), counts)
        keep = nbr_colors > 0
        owner, nbr_colors = owner[keep], nbr_colors[keep]
        enc = np.unique(owner * np.int64(maxc + 2) + nbr_colors)
        owner = enc // np.int64(maxc + 2)
        col = enc % np.int64(maxc + 2)
        sizes = np.bincount(owner, minlength=k)
        group_start = np.concatenate([[0], np.cumsum(sizes)[:-1]])
        rank = np.arange(len(owner), dtype=np.int64) - group_start[owner]
        good = col == rank + 1
        out = sizes + 1  # default: colors form a full prefix 1..size
        bad = np.flatnonzero(~good)
        if len(bad):
            # First bad position per owner: positions ascend within
            # groups, so writing reversed makes the earliest win.
            first = np.full(k, -1, dtype=np.int64)
            first[owner[bad][::-1]] = bad[::-1]
            has = first >= 0
            out[has] = first[has] - group_start[has] + 1
        return out.astype(np.int64)

    def active_max(
        self,
        offsets: np.ndarray,
        indices: np.ndarray,
        keys: np.ndarray,
        active: np.ndarray,
    ) -> np.ndarray:
        dst, vals = _active_arcs(offsets, indices, keys, active)
        out = np.full(len(offsets) - 1, _I64_MIN, dtype=np.int64)
        np.maximum.at(out, dst, vals)
        return out

    def active_extrema(
        self,
        offsets: np.ndarray,
        indices: np.ndarray,
        keys: np.ndarray,
        active: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        n = len(offsets) - 1
        dst, vals = _active_arcs(offsets, indices, keys, active)
        nmax = np.full(n, _I64_MIN, dtype=np.int64)
        nmin = np.full(n, _I64_MAX, dtype=np.int64)
        np.maximum.at(nmax, dst, vals)
        np.minimum.at(nmin, dst, vals)
        return nmax, nmin

    def conflict_losers(
        self,
        src: np.ndarray,
        dst: np.ndarray,
        colors: np.ndarray,
        prio: np.ndarray,
        active: np.ndarray,
    ) -> np.ndarray:
        clash = (colors[src] == colors[dst]) & active[src] & (colors[src] > 0)
        return np.where(prio[src] < prio[dst], src, dst)[clash]
