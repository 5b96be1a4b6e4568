"""The kernel-execution backend protocol.

A :class:`Backend` executes the small set of data-parallel primitives
every hot loop in ``core/``, ``gunrock/`` and ``graphblas/`` is built
from — elementwise maps, scatter reductions, segmented reductions, the
fused coloring kernels (neighbor extrema, segmented mex, conflict
resolution), the GraphBLAS vxm combine, and frontier compaction.
Algorithms describe *what* to compute; the backend decides *how* the
inner loop runs (interpreted numpy, JIT, compiled C, eventually CuPy).

The contract every backend must honor (docs/backends.md):

* **Bit identity.**  For any inputs, a backend returns (or stores, for
  the in-place primitives) arrays bit-identical to the reference
  backend's.  All simulated quantities — colors, coloring sha256,
  ``sim_ms``, kernel counters, traces — are derived from these arrays,
  so swapping backends can never change a result, only wall-clock.
* **In-place semantics.**  ``scatter_reduce`` / ``scatter_hit`` update
  ``out`` (and ``hit``) in place, applying ``vals`` in index order —
  exactly ``np.ufunc.at``.  Float accumulation order is therefore part
  of the contract.
* **No cost-model interaction.**  Backends never touch the
  :class:`~repro.gpusim.cost_model.CostModel`; structural charges stay
  at the call sites, which is what keeps ``sim_ms`` backend-invariant.

A backend may decline an input shape or dtype it has no specialized
kernel for by delegating to the reference implementation (see
:meth:`Backend.fallback`); correctness is mandatory, acceleration is
best-effort.
"""

from __future__ import annotations

from typing import Callable, Tuple, Union

import numpy as np

from ..errors import ReproError

__all__ = ["Backend", "BackendError", "resolve_op", "OpLike"]

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


class Backend:
    """Abstract kernel-execution backend.

    Subclasses override the primitives they can accelerate and fall
    back to :attr:`fallback` (the reference backend) for everything
    else.  The base class implements every primitive by delegation, so
    a backend specializing a single kernel is already complete.
    """

    #: Selection name; also the label recorded in journals/traces/BENCH.
    name = "abstract"

    @property
    def fallback(self) -> "Backend":
        """The backend used for primitives this one does not specialize."""
        from .reference import ReferenceBackend

        if getattr(self, "_fallback", None) is None:
            self._fallback = ReferenceBackend()
        return self._fallback

    # -- generic primitives ------------------------------------------------

    def map_elementwise(self, fn: Callable, *arrays: np.ndarray):
        """Apply an elementwise kernel ``fn`` to ``arrays``.

        Elementwise maps are already fused vector code under numpy; the
        primitive exists as the dispatch seam a device backend (CuPy)
        needs, where the arrays live off-host.
        """
        return self.fallback.map_elementwise(fn, *arrays)

    def frontier_compact(self, mask: np.ndarray) -> np.ndarray:
        """Indices of the true entries of ``mask``, ascending
        (stream compaction — ``np.flatnonzero`` semantics)."""
        return self.fallback.frontier_compact(mask)

    # -- scatter / segmented reductions ------------------------------------

    def scatter_reduce(
        self, out: np.ndarray, idx: np.ndarray, vals: np.ndarray, op: OpLike
    ) -> None:
        """In-place ``resolve_op(op).at(out, idx, vals)``: fold each
        ``vals[k]`` into ``out[idx[k]]``, in index order."""
        self.fallback.scatter_reduce(out, idx, vals, op)

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
        self.fallback.scatter_hit(out, hit, idx, vals, op)

    def segmented_reduce(
        self, values: np.ndarray, starts: np.ndarray, op: OpLike
    ) -> np.ndarray:
        """``resolve_op(op).reduceat(values, starts)``: reduce each
        segment ``values[starts[i]:starts[i+1]]`` (last runs to the
        end), with reduceat's single-element quirk for empty segments."""
        return self.fallback.segmented_reduce(values, starts, op)

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
        return self.fallback.segmented_mex(colors, indices, starts, counts)

    def active_max(
        self,
        offsets: np.ndarray,
        indices: np.ndarray,
        keys: np.ndarray,
        active: np.ndarray,
    ) -> np.ndarray:
        """Per-vertex max of ``keys`` over *active* neighbors of an
        undirected CSR (int64 min where none) — the independent-set
        selection scan."""
        return self.fallback.active_max(offsets, indices, keys, active)

    def active_extrema(
        self,
        offsets: np.ndarray,
        indices: np.ndarray,
        keys: np.ndarray,
        active: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-vertex max *and* min of ``keys`` over active neighbors
        (the min-max IS optimization computes both in one pass)."""
        return self.fallback.active_extrema(offsets, indices, keys, active)

    def conflict_losers(
        self,
        colors: np.ndarray,
        indices: np.ndarray,
        ids: np.ndarray,
        starts: np.ndarray,
        counts: np.ndarray,
        prio: np.ndarray,
    ) -> np.ndarray:
        """Speculative-coloring conflict resolution over the rows of the
        active vertices ``ids``.

        Row ``i`` holds the arcs ``(ids[i], indices[starts[i] + j])``
        for ``j < counts[i]`` (the :meth:`segmented_mex` row form).  For
        every arc whose endpoints share a positive color, the result
        holds the lower-priority endpoint — row after row, in arc order,
        one entry per clashing arc.  Only these rows are scanned.
        """
        return self.fallback.conflict_losers(
            colors, indices, ids, starts, counts, prio
        )
