"""The reference backend: the kernel-execution contract and its
interpreted-numpy definition.

:class:`ReferenceBackend` executes the small set of data-parallel
primitives every hot loop in ``core/``, ``gunrock/`` and ``graphblas/``
is built from — elementwise maps, scatter reductions, segmented
reductions, the fused coloring kernels (neighbor extrema, segmented
mex, conflict resolution), the GraphBLAS vxm combine, and frontier
compaction.  Algorithms describe *what* to compute; a backend decides
*how* the inner loop runs.  It is also the base class of every other
backend (``repro.backend.Backend`` names it), so its methods are the
executable definition of the contract (docs/backends.md):

* **Bit identity.**  For any inputs, a backend returns (or stores, for
  the in-place primitives) arrays bit-identical to this class's.  All
  simulated quantities — colors, coloring sha256, ``sim_ms``, kernel
  counters, traces — are derived from these arrays, so swapping
  backends can never change a result, only wall-clock.
* **In-place semantics.**  ``scatter_reduce`` / ``scatter_hit`` update
  ``out`` (and ``hit``) in place, applying ``vals`` in index order —
  exactly ``np.ufunc.at``.  Float accumulation order is therefore part
  of the contract.
* **No cost-model interaction.**  Backends never touch the
  :class:`~repro.gpusim.cost_model.CostModel`; structural charges stay
  at the call sites, which is what keeps ``sim_ms`` backend-invariant.

A subclass overrides the primitives it can accelerate and hands any
input shape or dtype it has no specialized kernel for to ``super()``;
correctness is mandatory, acceleration is best-effort.  No method here
calls another primitive through ``self``, so a subclass's override (or
a wrapper patched onto an instance) sees exactly the calls its callers
make.
"""

from __future__ import annotations

from typing import Callable, Tuple, Union

import numpy as np

from ..errors import ReproError
from ..graph.csr import arc_positions

__all__ = ["ReferenceBackend", "BackendError", "resolve_op", "OpLike"]

#: Operations accepted by the reduction primitives: a kind string or a
#: raw numpy ufunc (the GraphBLAS layer passes its monoid ufuncs).
OpLike = Union[str, np.ufunc]

_KIND_UFUNCS = {
    "max": np.maximum,
    "min": np.minimum,
    "sum": np.add,
    "add": np.add,
    "mul": np.multiply,
}

_I64_MIN = np.iinfo(np.int64).min
_I64_MAX = np.iinfo(np.int64).max

#: Colors below this fit one int64 bitset (bit c for color c).
_BITSET_COLORS = 63


class BackendError(ReproError):
    """Unknown backend name or invalid backend configuration."""


def resolve_op(op: OpLike) -> np.ufunc:
    """Normalize a reduction op (kind string or ufunc) to the ufunc."""
    if isinstance(op, np.ufunc):
        return op
    try:
        return _KIND_UFUNCS[op]
    except KeyError:
        raise BackendError(
            f"unknown reduction op {op!r}; known kinds: "
            f"{', '.join(sorted(set(_KIND_UFUNCS)))}"
        ) from None


def _active_arcs(offsets, indices, keys, active):
    """(target, key) of every arc leaving an active vertex, pushed from
    the compacted frontier rather than filtered out of all m arcs."""
    ids = np.flatnonzero(active)
    degs = offsets[ids + 1] - offsets[ids]
    dst = indices[arc_positions(offsets, ids, degs)]
    return dst, np.repeat(keys[ids], degs)


class ReferenceBackend:
    """Interpreted-numpy execution of every primitive, and the base
    class other backends specialize."""

    #: Selection name; also the label recorded in journals/traces/BENCH.
    name = "reference"

    # -- generic primitives ------------------------------------------------

    def map_elementwise(self, fn: Callable, *arrays: np.ndarray):
        """Apply an elementwise kernel ``fn`` to ``arrays``.

        Elementwise maps are already fused vector code under numpy; the
        primitive exists as the dispatch seam a device backend (CuPy)
        needs, where the arrays live off-host.
        """
        return fn(*arrays)

    def frontier_compact(self, mask: np.ndarray) -> np.ndarray:
        """Indices of the true entries of ``mask``, ascending
        (stream compaction — ``np.flatnonzero`` semantics)."""
        return np.flatnonzero(mask)

    # -- scatter / segmented reductions ------------------------------------

    def scatter_reduce(
        self, out: np.ndarray, idx: np.ndarray, vals: np.ndarray, op: OpLike
    ) -> None:
        """In-place ``resolve_op(op).at(out, idx, vals)``: fold each
        ``vals[k]`` into ``out[idx[k]]``, in index order."""
        resolve_op(op).at(out, idx, vals)

    def scatter_hit(
        self,
        out: np.ndarray,
        hit: np.ndarray,
        idx: np.ndarray,
        vals: np.ndarray,
        op: OpLike,
    ) -> None:
        """The GraphBLAS vxm/mxv combine: :meth:`scatter_reduce` fused
        with marking ``hit[idx] = True`` (structural presence)."""
        resolve_op(op).at(out, idx, vals)
        hit[idx] = True

    def segmented_reduce(
        self, values: np.ndarray, starts: np.ndarray, op: OpLike
    ) -> np.ndarray:
        """``resolve_op(op).reduceat(values, starts)``: reduce each
        segment ``values[starts[i]:starts[i+1]]`` (last runs to the
        end), with reduceat's single-element quirk for empty segments."""
        return resolve_op(op).reduceat(values, starts)

    # -- fused coloring kernels --------------------------------------------

    def segmented_mex(
        self,
        colors: np.ndarray,
        indices: np.ndarray,
        starts: np.ndarray,
        counts: np.ndarray,
    ) -> np.ndarray:
        """Per-segment minimum excluded positive color.

        Segment ``s`` covers ``indices[starts[s] : starts[s] +
        counts[s]]`` (a CSR or sub-CSR neighbor list); the result is the
        smallest integer ``>= 1`` not among ``colors`` of those
        vertices, ignoring non-positive entries.  This is the level-sync
        greedy conflict scan, the JPL min-available step, and the
        speculative propose kernel.
        """
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
        # Past one word: segment s needs ceil((counts[s] + 2) / 64)
        # words, as its mex is at most counts[s] + 1 and larger colors
        # cannot move it.  Word w of a segment holds colors 64w..64w+63.
        words = ((counts + 1) >> 6) + 1
        word0 = np.cumsum(words) - words
        keep = (nbr_colors > 0) & (nbr_colors <= np.repeat(counts + 1, counts))
        c = nbr_colors[keep]
        used = np.zeros(int(words.sum()), dtype=np.int64)
        np.bitwise_or.at(
            used,
            np.repeat(word0, counts)[keep] + (c >> 6),
            np.left_shift(np.int64(1), c & 63),
        )
        used[word0] |= 1
        free = ~used
        # Each segment has a clear bit in its own words; take the first
        # word holding one, then that word's lowest clear bit.
        clear = np.flatnonzero(free)
        first = clear[np.searchsorted(clear, word0)]
        word = free[first]
        lowest = (word & -word).astype(np.float64)
        return (first - word0) * 64 + (np.frexp(lowest)[1] - 1).astype(np.int64)

    def active_max(
        self,
        offsets: np.ndarray,
        indices: np.ndarray,
        keys: np.ndarray,
        active: np.ndarray,
        ids: np.ndarray,
    ) -> np.ndarray:
        """The independent-set selection test, one bool per frontier
        row: whether ``keys[ids[i]]`` exceeds the key of every *active*
        neighbor (and the int64 minimum) in an undirected CSR.

        Pushes each active vertex's key into its neighbors' max slots,
        then compares the rows ``ids`` against them.
        """
        dst, vals = _active_arcs(offsets, indices, keys, active)
        nmax = np.full(len(offsets) - 1, _I64_MIN, dtype=np.int64)
        np.maximum.at(nmax, dst, vals)
        return keys[ids] > nmax[ids]

    def active_extrema(
        self,
        offsets: np.ndarray,
        indices: np.ndarray,
        keys: np.ndarray,
        active: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-vertex max *and* min of ``keys`` over active neighbors
        (the min-max IS optimization computes both in one pass)."""
        n = len(offsets) - 1
        dst, vals = _active_arcs(offsets, indices, keys, active)
        nmax = np.full(n, _I64_MIN, dtype=np.int64)
        nmin = np.full(n, _I64_MAX, dtype=np.int64)
        np.maximum.at(nmax, dst, vals)
        np.minimum.at(nmin, dst, vals)
        return nmax, nmin

    def conflict_losers(
        self,
        colors: np.ndarray,
        indices: np.ndarray,
        ids: np.ndarray,
        starts: np.ndarray,
        counts: np.ndarray,
        prio: np.ndarray,
    ) -> np.ndarray:
        """Speculative-coloring conflict detection, one bool per row of
        the active vertices ``ids``.

        Row ``i`` holds the arcs ``(ids[i], indices[starts[i] + j])``
        for ``j < counts[i]`` (the :meth:`segmented_mex` row form).  Its
        flag is set when ``ids[i]`` has a positive color that some
        neighbor of the row shares with a higher ``prio``: the vertex
        loses a clash and reverts.  Only these rows are scanned.
        """
        counts = np.asarray(counts, dtype=np.int64)
        excl = np.cumsum(counts) - counts
        pos = np.arange(int(counts.sum()), dtype=np.int64) + np.repeat(
            np.asarray(starts, dtype=np.int64) - excl, counts
        )
        dst = indices[pos]
        own = np.repeat(colors[ids], counts)
        lose = (own == colors[dst]) & (own > 0)
        lose &= np.repeat(prio[ids], counts) < prio[dst]
        out = np.zeros(len(ids), dtype=bool)
        nonempty = counts > 0
        out[nonempty] = np.logical_or.reduceat(lose, excl[nonempty])
        return out
