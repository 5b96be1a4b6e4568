"""The optional numba JIT backend.

Mirrors the fused C kernels of :mod:`repro.backend.cnative` as
``@njit`` loops — same single-pass structure, same exact int64
arithmetic and in-index-order float accumulation, hence the same bits
as the reference backend.  numba is *not* a dependency of this package:
:func:`load` reports ``(None, reason)`` when the import fails and the
selection layer falls back to reference with a one-time warning.

Kernels compile lazily on first call (numba's usual behaviour), so
merely selecting the backend is cheap.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .base import Backend, OpLike, resolve_op

__all__ = ["load", "NumbaBackend"]

#: Opcode encoding shared by the generic scatter/segmented kernels.
_OPCODES = {"maximum": 0, "minimum": 1, "add": 2, "multiply": 3}


def _build_kernels(njit):
    """Compile-on-demand kernel set (created once per process)."""

    @njit(cache=False)
    def scatter(out, idx, vals, opcode):
        for k in range(idx.shape[0]):
            i = idx[k]
            v = vals[k]
            o = out[i]
            if opcode == 0:  # maximum, numpy NaN semantics
                if v != v:
                    out[i] = v
                elif o == o and v > o:
                    out[i] = v
            elif opcode == 1:  # minimum
                if v != v:
                    out[i] = v
                elif o == o and v < o:
                    out[i] = v
            elif opcode == 2:
                out[i] = o + v
            else:
                out[i] = o * v

    @njit(cache=False)
    def scatter_hit(out, hit, idx, vals, opcode):
        for k in range(idx.shape[0]):
            i = idx[k]
            v = vals[k]
            o = out[i]
            if opcode == 0:
                if v != v:
                    out[i] = v
                elif o == o and v > o:
                    out[i] = v
            elif opcode == 1:
                if v != v:
                    out[i] = v
                elif o == o and v < o:
                    out[i] = v
            elif opcode == 2:
                out[i] = o + v
            else:
                out[i] = o * v
            hit[i] = True

    @njit(cache=False)
    def segmented_reduce(out, vals, starts, opcode):
        nseg = starts.shape[0]
        nvals = vals.shape[0]
        for s in range(nseg):
            lo = starts[s]
            hi = starts[s + 1] if s + 1 < nseg else nvals
            acc = vals[lo]
            for k in range(lo + 1, hi):
                v = vals[k]
                if opcode == 0:
                    if v != v:
                        acc = v
                    elif acc == acc and v > acc:
                        acc = v
                elif opcode == 1:
                    if v != v:
                        acc = v
                    elif acc == acc and v < acc:
                        acc = v
                elif opcode == 2:
                    acc = acc + v
                else:
                    acc = acc * v
            out[s] = acc

    @njit(cache=False)
    def segmented_mex(out, colors, indices, starts, counts, stamp):
        for s in range(starts.shape[0]):
            lo = starts[s]
            cnt = counts[s]
            tag = s + 1
            for k in range(cnt):
                c = colors[indices[lo + k]]
                if c > 0 and c <= cnt + 1:
                    stamp[c] = tag
            m = 1
            while stamp[m] == tag:
                m += 1
            out[s] = m

    @njit(cache=False)
    def active_max(out, offsets, indices, keys, active):
        for v in range(offsets.shape[0] - 1):
            if not active[v]:
                continue
            kv = keys[v]
            for e in range(offsets[v], offsets[v + 1]):
                d = indices[e]
                if kv > out[d]:
                    out[d] = kv

    @njit(cache=False)
    def active_extrema(nmax, nmin, offsets, indices, keys, active):
        for v in range(offsets.shape[0] - 1):
            if not active[v]:
                continue
            kv = keys[v]
            for e in range(offsets[v], offsets[v + 1]):
                d = indices[e]
                if kv > nmax[d]:
                    nmax[d] = kv
                if kv < nmin[d]:
                    nmin[d] = kv

    @njit(cache=False)
    def conflict_losers(out, colors, indices, ids, starts, counts, prio):
        k = 0
        for i in range(ids.shape[0]):
            s = ids[i]
            c = colors[s]
            if c <= 0:
                continue
            for e in range(starts[i], starts[i] + counts[i]):
                d = indices[e]
                if colors[d] == c:
                    out[k] = s if prio[s] < prio[d] else d
                    k += 1
        return k

    return {
        "scatter": scatter,
        "scatter_hit": scatter_hit,
        "segmented_reduce": segmented_reduce,
        "segmented_mex": segmented_mex,
        "active_max": active_max,
        "active_extrema": active_extrema,
        "conflict_losers": conflict_losers,
    }


class NumbaBackend(Backend):
    """JIT execution of the fused hot kernels via numba."""

    name = "numba"

    def __init__(self, njit) -> None:
        self._k = _build_kernels(njit)

    def _opcode(self, op: OpLike) -> Optional[int]:
        return _OPCODES.get(resolve_op(op).__name__)

    @staticmethod
    def _supported(*arrays: np.ndarray) -> bool:
        ok = (np.dtype(np.int64), np.dtype(np.float64), np.dtype(np.bool_))
        return all(a.dtype in ok and a.flags.c_contiguous for a in arrays)

    def scatter_reduce(self, out, idx, vals, op) -> None:
        vals = np.asarray(vals)
        opcode = self._opcode(op)
        if (
            opcode is None
            or vals.shape != idx.shape
            or vals.dtype != out.dtype
            or idx.dtype != np.int64
            or not self._supported(out, idx, vals)
        ):
            self.fallback.scatter_reduce(out, idx, vals, op)
            return
        self._k["scatter"](out, idx, vals, opcode)

    def scatter_hit(self, out, hit, idx, vals, op) -> None:
        vals = np.asarray(vals)
        opcode = self._opcode(op)
        if (
            opcode is None
            or vals.shape != idx.shape
            or vals.dtype != out.dtype
            or idx.dtype != np.int64
            or hit.dtype != np.bool_
            or not self._supported(out, hit, idx, vals)
        ):
            self.fallback.scatter_hit(out, hit, idx, vals, op)
            return
        self._k["scatter_hit"](out, hit, idx, vals, opcode)

    def segmented_reduce(self, values, starts, op) -> np.ndarray:
        values = np.asarray(values)
        starts = np.asarray(starts)
        opcode = self._opcode(op)
        nseg = len(starts)
        # reduceat uses pairwise summation for float add/mul; only the
        # order-exact cases run jitted (see cnative.segmented_reduce).
        ordered = values.dtype == np.int64 or opcode in (0, 1)
        if (
            opcode is None
            or not ordered
            or starts.dtype != np.int64
            or nseg == 0
            or len(values) == 0
            or int(starts.min()) < 0
            or int(starts.max()) >= len(values)
            or not self._supported(values, starts)
        ):
            return self.fallback.segmented_reduce(values, starts, op)
        out = np.empty(nseg, dtype=values.dtype)
        self._k["segmented_reduce"](out, values, starts, opcode)
        return out

    def segmented_mex(self, colors, indices, starts, counts) -> np.ndarray:
        starts = np.asarray(starts, dtype=np.int64)
        counts = np.asarray(counts, dtype=np.int64)
        nseg = len(starts)
        if nseg == 0:
            return np.empty(0, dtype=np.int64)
        if colors.dtype != np.int64 or indices.dtype != np.int64 or (
            not self._supported(colors, indices, starts, counts)
        ):
            return self.fallback.segmented_mex(colors, indices, starts, counts)
        out = np.empty(nseg, dtype=np.int64)
        stamp = np.zeros(int(counts.max(initial=0)) + 2, dtype=np.int64)
        self._k["segmented_mex"](out, colors, indices, starts, counts, stamp)
        return out

    def active_max(self, offsets, indices, keys, active) -> np.ndarray:
        if (
            offsets.dtype != np.int64
            or indices.dtype != np.int64
            or keys.dtype != np.int64
            or active.dtype != np.bool_
            or not self._supported(offsets, indices, keys, active)
        ):
            return self.fallback.active_max(offsets, indices, keys, active)
        out = np.full(len(offsets) - 1, np.iinfo(np.int64).min, dtype=np.int64)
        self._k["active_max"](out, offsets, indices, keys, active)
        return out

    def active_extrema(self, offsets, indices, keys, active):
        if (
            offsets.dtype != np.int64
            or indices.dtype != np.int64
            or keys.dtype != np.int64
            or active.dtype != np.bool_
            or not self._supported(offsets, indices, keys, active)
        ):
            return self.fallback.active_extrema(offsets, indices, keys, active)
        n = len(offsets) - 1
        nmax = np.full(n, np.iinfo(np.int64).min, dtype=np.int64)
        nmin = np.full(n, np.iinfo(np.int64).max, dtype=np.int64)
        self._k["active_extrema"](nmax, nmin, offsets, indices, keys, active)
        return nmax, nmin

    def conflict_losers(
        self, colors, indices, ids, starts, counts, prio
    ) -> np.ndarray:
        starts = np.asarray(starts, dtype=np.int64)
        counts = np.asarray(counts, dtype=np.int64)
        if (
            colors.dtype != np.int64
            or indices.dtype != np.int64
            or ids.dtype != np.int64
            or prio.dtype != np.int64
            or len(starts) != len(ids)
            or len(counts) != len(ids)
            or not self._supported(colors, indices, ids, starts, counts, prio)
        ):
            return self.fallback.conflict_losers(
                colors, indices, ids, starts, counts, prio
            )
        out = np.empty(int(counts.sum()), dtype=np.int64)
        k = self._k["conflict_losers"](
            out, colors, indices, ids, starts, counts, prio
        )
        return out[: int(k)].copy()


def load() -> Tuple[Optional[Backend], str]:
    """Import numba and wrap the JIT backend; (None, reason) if absent."""
    try:
        from numba import njit
    except ImportError as exc:
        return None, f"numba is not installed ({exc})"
    return NumbaBackend(njit), ""
