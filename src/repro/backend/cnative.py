"""The ``cnative`` backend: fused C kernels compiled on first use.

The profiled top kernels (``harness profile``) lose most of their wall
clock not in numpy's scatter itself — modern numpy has a fast indexed
loop for integer ``ufunc.at`` — but in the *chain* of full-arc
temporaries around it: ``np.repeat`` lane expansion, boolean-mask
compaction, two fancy gathers, then the scatter, each a separate pass
over arc-sized arrays.  The kernels here fuse that chain into a single
C pass over the CSR (one load per arc, zero temporaries), which is the
same memory-locality argument Gunrock makes for its fused
advance+compute operators.

The shared object is built once per source revision with the system C
compiler (``cc -O3``) and cached under
``$REPRO_BACKEND_CACHE`` (default ``~/.cache/repro/backend``).  When no
compiler is available :func:`load` reports the reason and the backend
layer falls back to reference — this backend is an accelerator, never a
requirement.

Bit identity with the reference backend is by construction:

* every routed kernel is exact int64 arithmetic (extrema, mex) or a
  per-row yes/no verdict (selection, conflict detection), where any
  correct evaluation order — an early exit included — gives the same
  bits; or
* it applies updates sequentially in index order (scatter/segmented
  reductions), matching ``ufunc.at`` / ``reduceat`` semantics exactly,
  including float accumulation order and NaN propagation.

Unsupported dtypes or non-contiguous outputs go to the inherited
reference implementation per call; ``map_elementwise`` and
``frontier_compact`` are inherited unchanged.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path
from typing import Optional, Tuple

import numpy as np

from .reference import OpLike, ReferenceBackend, resolve_op

__all__ = ["load", "CNativeBackend", "C_SOURCE"]

# One sequential loop per kernel; NaN guards mirror np.maximum/minimum
# (either operand NaN => NaN), and int64 accumulation goes through
# uint64 so overflow wraps exactly like numpy instead of being UB.
C_SOURCE = r"""
#include <stdint.h>

#define I64_ADD(a, b) ((int64_t)((uint64_t)(a) + (uint64_t)(b)))
#define I64_MUL(a, b) ((int64_t)((uint64_t)(a) * (uint64_t)(b)))

#define DEF_SCATTER(NAME, T, COMBINE)                                       \
void NAME(T *out, const int64_t *idx, const T *vals, int64_t m) {           \
    for (int64_t k = 0; k < m; ++k) {                                       \
        T v = vals[k];                                                      \
        T *o = out + idx[k];                                                \
        COMBINE;                                                            \
    }                                                                       \
}

#define DEF_SCATTER_HIT(NAME, T, COMBINE)                                   \
void NAME(T *out, uint8_t *hit, const int64_t *idx, const T *vals,          \
          int64_t m) {                                                      \
    for (int64_t k = 0; k < m; ++k) {                                       \
        int64_t i = idx[k];                                                 \
        T v = vals[k];                                                      \
        T *o = out + i;                                                     \
        COMBINE;                                                            \
        hit[i] = 1;                                                         \
    }                                                                       \
}

#define MAX_I64 if (v > *o) *o = v
#define MIN_I64 if (v < *o) *o = v
#define ADD_I64 *o = I64_ADD(*o, v)
#define MUL_I64 *o = I64_MUL(*o, v)
/* numpy maximum/minimum: NaN in either operand propagates. */
#define MAX_F64 if (v != v) *o = v; else if (*o == *o && v > *o) *o = v
#define MIN_F64 if (v != v) *o = v; else if (*o == *o && v < *o) *o = v
#define ADD_F64 *o = *o + v
#define MUL_F64 *o = *o * v

DEF_SCATTER(scatter_max_i64, int64_t, MAX_I64)
DEF_SCATTER(scatter_min_i64, int64_t, MIN_I64)
DEF_SCATTER(scatter_add_i64, int64_t, ADD_I64)
DEF_SCATTER(scatter_mul_i64, int64_t, MUL_I64)
DEF_SCATTER(scatter_max_f64, double, MAX_F64)
DEF_SCATTER(scatter_min_f64, double, MIN_F64)
DEF_SCATTER(scatter_add_f64, double, ADD_F64)
DEF_SCATTER(scatter_mul_f64, double, MUL_F64)

DEF_SCATTER_HIT(scatter_hit_max_i64, int64_t, MAX_I64)
DEF_SCATTER_HIT(scatter_hit_min_i64, int64_t, MIN_I64)
DEF_SCATTER_HIT(scatter_hit_add_i64, int64_t, ADD_I64)
DEF_SCATTER_HIT(scatter_hit_mul_i64, int64_t, MUL_I64)
DEF_SCATTER_HIT(scatter_hit_max_f64, double, MAX_F64)
DEF_SCATTER_HIT(scatter_hit_min_f64, double, MIN_F64)
DEF_SCATTER_HIT(scatter_hit_add_f64, double, ADD_F64)
DEF_SCATTER_HIT(scatter_hit_mul_f64, double, MUL_F64)

/* reduceat contract: segment s is vals[starts[s] : starts[s+1]] (the
 * last runs to nvals); an empty segment yields vals[starts[s]]. */
#define DEF_SEGREDUCE(NAME, T, COMBINE)                                     \
void NAME(T *out, const T *vals, const int64_t *starts, int64_t nseg,       \
          int64_t nvals) {                                                  \
    for (int64_t s = 0; s < nseg; ++s) {                                    \
        int64_t lo = starts[s];                                             \
        int64_t hi = (s + 1 < nseg) ? starts[s + 1] : nvals;                \
        T acc = vals[lo];                                                   \
        T *o = &acc;                                                        \
        for (int64_t k = lo + 1; k < hi; ++k) {                             \
            T v = vals[k];                                                  \
            COMBINE;                                                        \
        }                                                                   \
        out[s] = acc;                                                       \
    }                                                                       \
}

DEF_SEGREDUCE(segreduce_max_i64, int64_t, MAX_I64)
DEF_SEGREDUCE(segreduce_min_i64, int64_t, MIN_I64)
DEF_SEGREDUCE(segreduce_add_i64, int64_t, ADD_I64)
DEF_SEGREDUCE(segreduce_mul_i64, int64_t, MUL_I64)
DEF_SEGREDUCE(segreduce_max_f64, double, MAX_F64)
DEF_SEGREDUCE(segreduce_min_f64, double, MIN_F64)
DEF_SEGREDUCE(segreduce_add_f64, double, ADD_F64)
DEF_SEGREDUCE(segreduce_mul_f64, double, MUL_F64)

/* IS-selection test, one verdict per frontier row: row i's vertex
 * v = ids[i] wins iff keys[v] exceeds the int64 minimum and the key of
 * every active neighbor.  Undirected CSR, so v's row lists exactly the
 * active vertices whose keys the reference pushes into v's max slot;
 * the scan stops at the first neighbor that decides a loss. */
void active_max_rows(uint8_t *out, const int64_t *offsets,
                     const int64_t *indices, const int64_t *keys,
                     const uint8_t *active, const int64_t *ids,
                     int64_t nrows) {
    for (int64_t i = 0; i < nrows; ++i) {
        int64_t v = ids[i];
        int64_t kv = keys[v];
        uint8_t win = kv != INT64_MIN;
        for (int64_t e = offsets[v]; e < offsets[v + 1]; ++e) {
            int64_t d = indices[e];
            if (active[d] && keys[d] >= kv) {
                win = 0;
                break;
            }
        }
        out[i] = win;
    }
}

void active_extrema_i64(int64_t *nmax, int64_t *nmin,
                        const int64_t *offsets, const int64_t *indices,
                        const int64_t *keys, const uint8_t *active,
                        int64_t n) {
    for (int64_t v = 0; v < n; ++v) {
        if (!active[v]) continue;
        int64_t kv = keys[v];
        for (int64_t e = offsets[v]; e < offsets[v + 1]; ++e) {
            int64_t d = indices[e];
            if (kv > nmax[d]) nmax[d] = kv;
            if (kv < nmin[d]) nmin[d] = kv;
        }
    }
}

/* Per-segment minimum excluded positive color via a stamped scratch
 * array (tag = s + 1 so no clearing between segments; stamp must hold
 * max(counts) + 2 entries, initially zero).  Colors above cnt + 1
 * cannot affect the mex and are skipped. */
void segmented_mex_i64(int64_t *out, const int64_t *colors,
                       const int64_t *indices, const int64_t *starts,
                       const int64_t *counts, int64_t nseg,
                       int64_t *stamp) {
    for (int64_t s = 0; s < nseg; ++s) {
        int64_t lo = starts[s];
        int64_t cnt = counts[s];
        int64_t tag = s + 1;
        for (int64_t k = 0; k < cnt; ++k) {
            int64_t c = colors[indices[lo + k]];
            if (c > 0 && c <= cnt + 1) stamp[c] = tag;
        }
        int64_t m = 1;
        while (stamp[m] == tag) ++m;
        out[s] = m;
    }
}

/* Speculative conflict detection, one verdict per active row: row i
 * (source ids[i], targets indices[starts[i] : starts[i] + counts[i]])
 * loses iff its positive color is shared by a higher-priority target;
 * the scan stops at the first such target. */
void conflict_losers_rows(uint8_t *out, const int64_t *colors,
                          const int64_t *indices, const int64_t *ids,
                          const int64_t *starts, const int64_t *counts,
                          const int64_t *prio, int64_t nrows) {
    for (int64_t i = 0; i < nrows; ++i) {
        int64_t s = ids[i];
        int64_t c = colors[s];
        uint8_t lost = 0;
        if (c > 0) {
            int64_t ps = prio[s];
            const int64_t *row = indices + starts[i];
            for (int64_t j = 0; j < counts[i]; ++j) {
                int64_t d = row[j];
                if (colors[d] == c && ps < prio[d]) {
                    lost = 1;
                    break;
                }
            }
        }
        out[i] = lost;
    }
}
"""

_OP_NAMES = {
    "maximum": "max",
    "minimum": "min",
    "add": "add",
    "multiply": "mul",
}

_DTYPE_SUFFIX = {
    np.dtype(np.int64): "i64",
    np.dtype(np.float64): "f64",
}

_C_TYPES = {"i64": ctypes.c_int64, "f64": ctypes.c_double}


def _cache_dir() -> Path:
    env = os.environ.get("REPRO_BACKEND_CACHE", "")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro" / "backend"


def _find_compiler() -> Optional[str]:
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            return path
    return None


def _build_library() -> Tuple[Optional[ctypes.CDLL], str]:
    """Compile (or reuse) the kernel library; returns (lib, reason)."""
    compiler = _find_compiler()
    if compiler is None:
        return None, "no C compiler (cc/gcc/clang) on PATH"
    digest = hashlib.sha256(C_SOURCE.encode()).hexdigest()[:16]
    cache = _cache_dir()
    so_path = cache / f"repro_kernels_{digest}.so"
    if not so_path.exists():
        try:
            cache.mkdir(parents=True, exist_ok=True)
            with tempfile.TemporaryDirectory(dir=str(cache)) as tmp:
                c_path = Path(tmp) / "kernels.c"
                c_path.write_text(C_SOURCE)
                tmp_so = Path(tmp) / "kernels.so"
                proc = subprocess.run(
                    [compiler, "-O3", "-shared", "-fPIC",
                     "-o", str(tmp_so), str(c_path)],
                    capture_output=True,
                    text=True,
                    timeout=120,
                )
                if proc.returncode != 0:
                    tail = (proc.stderr or "").strip().splitlines()[-1:]
                    return None, f"compile failed: {' '.join(tail) or 'unknown'}"
                # Atomic publish: rename within the cache directory.
                os.replace(str(tmp_so), str(so_path))
        except (OSError, subprocess.SubprocessError) as exc:
            return None, f"compile failed: {exc}"
    try:
        return ctypes.CDLL(str(so_path)), ""
    except OSError as exc:
        return None, f"load failed: {exc}"


def _ptr(arr: np.ndarray) -> ctypes.c_void_p:
    return ctypes.c_void_p(arr.ctypes.data)


def _contig(arr: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(arr)


class CNativeBackend(ReferenceBackend):
    """Compiled-C execution of the fused hot kernels."""

    name = "cnative"

    def __init__(self, lib: ctypes.CDLL) -> None:
        self._lib = lib

    # -- dispatch helpers --------------------------------------------------

    def _kernel(self, family: str, op: OpLike, dtype: np.dtype):
        """The C symbol for (family, op, dtype), or None to fall back."""
        opname = _OP_NAMES.get(resolve_op(op).__name__)
        suffix = _DTYPE_SUFFIX.get(np.dtype(dtype))
        if opname is None or suffix is None:
            return None
        return getattr(self._lib, f"{family}_{opname}_{suffix}")

    # -- primitives --------------------------------------------------------

    def scatter_reduce(self, out, idx, vals, op) -> None:
        vals = np.asarray(vals)
        fn = self._kernel("scatter", op, out.dtype)
        if (
            fn is None
            or not out.flags.c_contiguous
            or vals.dtype != out.dtype
            or vals.shape != idx.shape
            or idx.dtype != np.int64
        ):
            super().scatter_reduce(out, idx, vals, op)
            return
        fn(_ptr(out), _ptr(_contig(idx)), _ptr(_contig(vals)),
           ctypes.c_int64(len(idx)))

    def scatter_hit(self, out, hit, idx, vals, op) -> None:
        vals = np.asarray(vals)
        fn = self._kernel("scatter_hit", op, out.dtype)
        if (
            fn is None
            or not out.flags.c_contiguous
            or not hit.flags.c_contiguous
            or hit.dtype != np.bool_
            or vals.dtype != out.dtype
            or vals.shape != idx.shape
            or idx.dtype != np.int64
        ):
            super().scatter_hit(out, hit, idx, vals, op)
            return
        fn(_ptr(out), _ptr(hit.view(np.uint8)), _ptr(_contig(idx)),
           _ptr(_contig(vals)), ctypes.c_int64(len(idx)))

    def segmented_reduce(self, values, starts, op) -> np.ndarray:
        values = np.asarray(values)
        starts = np.asarray(starts)
        fn = self._kernel("segreduce", op, values.dtype)
        nseg = len(starts)
        # reduceat uses pairwise summation for float add/mul; a
        # sequential loop would drift in the last bits, so only the
        # order-exact cases run compiled.
        ordered = values.dtype == np.int64 or resolve_op(op).__name__ in (
            "maximum",
            "minimum",
        )
        if (
            fn is None
            or not ordered
            or starts.dtype != np.int64
            or nseg == 0
            or len(values) == 0
            or int(starts.min()) < 0
            or int(starts.max()) >= len(values)
        ):
            return super().segmented_reduce(values, starts, op)
        out = np.empty(nseg, dtype=values.dtype)
        fn(_ptr(out), _ptr(_contig(values)), _ptr(_contig(starts)),
           ctypes.c_int64(nseg), ctypes.c_int64(len(values)))
        return out

    def segmented_mex(self, colors, indices, starts, counts) -> np.ndarray:
        starts = np.asarray(starts, dtype=np.int64)
        counts = np.asarray(counts, dtype=np.int64)
        nseg = len(starts)
        if nseg == 0:
            return np.empty(0, dtype=np.int64)
        if colors.dtype != np.int64 or indices.dtype != np.int64:
            return super().segmented_mex(colors, indices, starts, counts)
        out = np.empty(nseg, dtype=np.int64)
        stamp = np.zeros(int(counts.max(initial=0)) + 2, dtype=np.int64)
        self._lib.segmented_mex_i64(
            _ptr(out), _ptr(_contig(colors)), _ptr(_contig(indices)),
            _ptr(_contig(starts)), _ptr(_contig(counts)),
            ctypes.c_int64(nseg), _ptr(stamp),
        )
        return out

    def active_max(self, offsets, indices, keys, active, ids) -> np.ndarray:
        if (
            offsets.dtype != np.int64
            or indices.dtype != np.int64
            or keys.dtype != np.int64
            or active.dtype != np.bool_
            or ids.dtype != np.int64
        ):
            return super().active_max(offsets, indices, keys, active, ids)
        out = np.empty(len(ids), dtype=bool)
        self._lib.active_max_rows(
            _ptr(out.view(np.uint8)), _ptr(_contig(offsets)),
            _ptr(_contig(indices)), _ptr(_contig(keys)),
            _ptr(_contig(active).view(np.uint8)), _ptr(_contig(ids)),
            ctypes.c_int64(len(ids)),
        )
        return out

    def active_extrema(self, offsets, indices, keys, active):
        n = len(offsets) - 1
        if (
            offsets.dtype != np.int64
            or indices.dtype != np.int64
            or keys.dtype != np.int64
            or active.dtype != np.bool_
        ):
            return super().active_extrema(offsets, indices, keys, active)
        nmax = np.full(n, np.iinfo(np.int64).min, dtype=np.int64)
        nmin = np.full(n, np.iinfo(np.int64).max, dtype=np.int64)
        self._lib.active_extrema_i64(
            _ptr(nmax), _ptr(nmin), _ptr(_contig(offsets)),
            _ptr(_contig(indices)), _ptr(_contig(keys)),
            _ptr(_contig(active).view(np.uint8)), ctypes.c_int64(n),
        )
        return nmax, nmin

    def conflict_losers(
        self, colors, indices, ids, starts, counts, prio
    ) -> np.ndarray:
        starts = np.ascontiguousarray(starts, dtype=np.int64)
        counts = np.ascontiguousarray(counts, dtype=np.int64)
        if (
            colors.dtype != np.int64
            or indices.dtype != np.int64
            or ids.dtype != np.int64
            or prio.dtype != np.int64
            or len(starts) != len(ids)
            or len(counts) != len(ids)
        ):
            return super().conflict_losers(
                colors, indices, ids, starts, counts, prio
            )
        colors, indices, ids, prio = map(_contig, (colors, indices, ids, prio))
        out = np.empty(len(ids), dtype=bool)
        self._lib.conflict_losers_rows(
            _ptr(out.view(np.uint8)), _ptr(colors), _ptr(indices), _ptr(ids),
            _ptr(starts), _ptr(counts), _ptr(prio), ctypes.c_int64(len(ids)),
        )
        return out


def load() -> Tuple[Optional[ReferenceBackend], str]:
    """Build and wrap the compiled backend; (None, reason) on failure."""
    lib, reason = _build_library()
    if lib is None:
        return None, reason
    return CNativeBackend(lib), ""
