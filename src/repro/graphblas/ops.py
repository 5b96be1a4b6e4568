"""GraphBLAS operations (§III-A of the paper).

Implements the five operations the paper's Algorithms 2–4 are written
against — ``assign``, ``apply``, ``vxm``, ``eWiseAdd``, ``reduce`` —
plus ``eWiseMult``, ``mxv`` and ``extract`` for API completeness.  All
follow the GraphBLAS C API semantics:

* **Masks** (§III-A1): where the mask is C-castable to 1 the computed
  result is written; where 0 the output entry is left unchanged.  A
  descriptor can complement the mask, switch it to structural, or
  request ``REPLACE`` (clear unwritten output entries).
* **Accumulators**: when an accumulation binary op is supplied, computed
  values combine with existing output entries instead of overwriting.
* **Union vs intersection**: ``eWiseAdd`` produces an entry where either
  operand has one (copying the single present value); ``eWiseMult``
  only where both do.

Every operation takes an optional ``cost`` :class:`CostModel` and
charges the structural cost of the equivalent GPU kernel, including the
masking work savings the paper highlights ("we can avoid many memory
accesses when the mask is 0").
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .. import backend as _backend
from ..errors import DimensionMismatch, InvalidValue
from ..gpusim.cost_model import CostModel
from ..graph.csr import arc_positions
from ..trace import span_phase
from .binaryop import BinaryOp, UnaryOp
from .descriptor import DEFAULT, Descriptor
from .matrix import Matrix
from .monoid import Monoid
from .semiring import Semiring
from .types import BOOL
from .vector import Vector, check_same_size

__all__ = [
    "assign",
    "apply",
    "vxm",
    "mxv",
    "mxm",
    "ewise_add",
    "ewise_mult",
    "reduce_scalar",
    "extract",
    "assign_indexed",
    "apply_bind_second",
    "select",
    "reduce_rows",
]


def _sanitizer(cost: Optional[CostModel]):
    """The cost model's race sanitizer, or ``None`` when disabled.

    GraphBLAS operations certify their kernels through the operator
    layer: algorithm code built purely from these ops inherits the
    race-freedom (or atomic/reduction declarations) recorded here.
    """
    return cost.sanitizer if cost is not None else None


def _record_masked_write(k, name: str, target: np.ndarray) -> None:
    """Record the masked merge into the output vector: one thread per
    output position writes (or skips) its own slot."""
    idx = np.flatnonzero(target)
    k.write(f"w@{name}", idx, lane=idx)


def _mask_array(
    mask: Optional[Vector], size: int, desc: Descriptor
) -> np.ndarray:
    """The effective boolean write-mask for an output of ``size``."""
    if mask is None:
        if desc.mask_complement:
            return np.zeros(size, dtype=bool)
        return np.ones(size, dtype=bool)
    if mask.size != size:
        raise DimensionMismatch(
            f"mask size {mask.size} != output size {size}"
        )
    return mask.mask_array(
        complement=desc.mask_complement, structure=desc.mask_structure
    )


def _write(
    w: Vector,
    mask: Optional[Vector],
    accum: Optional[BinaryOp],
    res_values: np.ndarray,
    res_present: np.ndarray,
    desc: Descriptor,
) -> None:
    """Merge a computed (values, structure) pair into ``w`` under the
    mask / accumulator / replace rules."""
    m = _mask_array(mask, w.size, desc)
    if desc.replace:
        # GrB_REPLACE clears the whole output before the masked write:
        # C<M, replace> = T keeps exactly T intersect M, nothing of old C.
        w.present[:] = False
        w.values[:] = w.gtype.zero
    target = m & res_present
    if accum is not None:
        both = target & w.present
        if both.any():
            w.values[both] = accum(w.values[both], res_values[both]).astype(
                w.gtype.dtype, copy=False
            )
        fresh = target & ~w.present
        w.values[fresh] = res_values[fresh]
    else:
        w.values[target] = res_values[target]
    w.present |= target


def assign(
    w: Vector,
    mask: Optional[Vector],
    accum: Optional[BinaryOp],
    value,
    desc: Descriptor = DEFAULT,
    *,
    cost: Optional[CostModel] = None,
    name: str = "assign",
) -> Vector:
    """GrB_assign of a scalar to all positions (``GrB_ALL``) of ``w``.

    Mirrors GraphBLAST's pruning behaviour: assigning the domain's
    implicit zero *deletes* the targeted entries rather than storing
    explicit zeros, so the candidate vectors of Alg. 2/3 shrink as
    vertices are colored and later masked operations skip them.
    """
    m = _mask_array(mask, w.size, desc)
    if cost is not None:
        with span_phase(cost.trace, name):
            cost.charge_gb_overhead(name=f"{name}.dispatch")
            cost.charge_map(int(m.sum()), name=name)
    san = _sanitizer(cost)
    if san is not None:
        with san.kernel(name) as k:
            _record_masked_write(k, name, m)
    zero = w.gtype.zero
    if not np.isscalar(value) and not isinstance(value, (int, float, bool, np.generic)):
        raise InvalidValue("assign expects a scalar value")
    if desc.replace:
        w.present[:] = False
        w.values[:] = zero
    if w.gtype.dtype.type(value) == zero:
        # Pruning write: remove entries instead of storing zeros.
        w.present[m] = False
        w.values[m] = zero
    else:
        w.values[m] = value
        w.present[m] = True
    return w


def apply(
    w: Vector,
    mask: Optional[Vector],
    accum: Optional[BinaryOp],
    op: UnaryOp,
    u: Vector,
    desc: Descriptor = DEFAULT,
    *,
    cost: Optional[CostModel] = None,
    name: str = "apply",
) -> Vector:
    """GrB_apply: elementwise ``w = op(u)`` through the mask."""
    check_same_size(w, u)
    res = np.asarray(op(u.values)).astype(w.gtype.dtype, copy=False)
    if cost is not None:
        with span_phase(cost.trace, name):
            cost.charge_gb_overhead(name=f"{name}.dispatch")
            cost.charge_map(u.nvals, name=name)
    san = _sanitizer(cost)
    if san is not None:
        with san.kernel(name) as k:
            src = np.flatnonzero(u.present)
            k.read(f"u@{name}", src, lane=src)
            _record_masked_write(
                k, name, _mask_array(mask, w.size, desc) & u.present
            )
    _write(w, mask, accum, res, u.present.copy(), desc)
    return w


def vxm(
    w: Vector,
    mask: Optional[Vector],
    accum: Optional[BinaryOp],
    semiring: Semiring,
    u: Vector,
    A: Matrix,
    desc: Descriptor = DEFAULT,
    *,
    cost: Optional[CostModel] = None,
    name: str = "vxm",
) -> Vector:
    """GrB_vxm: ``w[j] = ⊕_i u[i] ⊗ A[i, j]`` over present entries of u.

    Executed push-style (scatter contributions from present rows of
    ``u``), which is also how the work is charged: the kernel touches
    exactly the arcs of ``u``'s present entries; when an output mask is
    supplied and pulling masked columns would be cheaper, the cheaper
    direction is charged (the push–pull optimization of [28]).
    """
    if u.size != A.nrows:
        raise DimensionMismatch(f"u size {u.size} != A nrows {A.nrows}")
    if w.size != A.ncols:
        raise DimensionMismatch(f"w size {w.size} != A ncols {A.ncols}")
    uidx = np.flatnonzero(u.present)
    degs = A.offsets[uidx + 1] - A.offsets[uidx]
    push_edges = int(degs.sum())
    if cost is not None:
        # Direction-optimized charge [28]: push from the present entries
        # of u, or pull over the output mask's rows, whichever is
        # cheaper.  Kernels that don't work-skip (the MIS inner loop's
        # boolean vxm, per the paper's §V-C profiling) charge their true
        # cost explicitly at the call site.
        work = push_edges
        if mask is not None and A.nrows == w.size:
            m = _mask_array(mask, w.size, desc)
            work = min(push_edges, int(A.row_degrees()[m].sum()))
        with span_phase(cost.trace, name):
            cost.charge_gb_overhead(name=f"{name}.dispatch")
            cost.charge_vxm(work, len(uidx), name=name)
    monoid = semiring.add
    identity = monoid.identity(w.gtype.dtype)
    out = np.full(w.size, identity, dtype=w.gtype.dtype)
    hit = np.zeros(w.size, dtype=bool)
    if push_edges:
        pos = arc_positions(A.offsets, uidx, degs)
        dst = A.indices[pos]
        left = np.repeat(u.values[uidx], degs)
        prod = np.asarray(semiring.multiply(left, A.values[pos])).astype(
            w.gtype.dtype, copy=False
        )
        assert monoid.op.ufunc is not None, "additive monoid needs a ufunc"
        _backend.current().scatter_hit(out, hit, dst, prod, monoid.op.ufunc)
    san = _sanitizer(cost)
    if san is not None:
        with san.kernel(name) as k:
            # Push-style vxm: each present-row thread reads its own value
            # and combines contributions into the destination slots — a
            # declared cross-lane monoid reduction (ufunc.at above).
            k.read(f"u@{name}", uidx, lane=uidx)
            if push_edges:
                k.write(f"out@{name}", dst, reduction=True)
            final = _mask_array(mask, w.size, desc) & hit
            _record_masked_write(k, name, final)
    _write(w, mask, accum, out, hit, desc)
    return w


def mxv(
    w: Vector,
    mask: Optional[Vector],
    accum: Optional[BinaryOp],
    semiring: Semiring,
    A: Matrix,
    u: Vector,
    desc: Descriptor = DEFAULT,
    *,
    cost: Optional[CostModel] = None,
    name: str = "mxv",
) -> Vector:
    """GrB_mxv: ``w[i] = ⊕_j A[i, j] ⊗ u[j]``.

    For the symmetric adjacency matrices used throughout the paper this
    equals :func:`vxm` with operands swapped into the multiply; the
    general (asymmetric) case is implemented by pulling each row.
    """
    if u.size != A.ncols:
        raise DimensionMismatch(f"u size {u.size} != A ncols {A.ncols}")
    if w.size != A.nrows:
        raise DimensionMismatch(f"w size {w.size} != A nrows {A.nrows}")
    m = _mask_array(mask, w.size, desc)
    rows = np.flatnonzero(m)
    degs = A.offsets[rows + 1] - A.offsets[rows]
    total = int(degs.sum())
    if cost is not None:
        with span_phase(cost.trace, name):
            cost.charge_gb_overhead(name=f"{name}.dispatch")
            cost.charge_vxm(total, len(rows), name=name)
    monoid = semiring.add
    identity = monoid.identity(w.gtype.dtype)
    out = np.full(w.size, identity, dtype=w.gtype.dtype)
    hit = np.zeros(w.size, dtype=bool)
    if total:
        pos = arc_positions(A.offsets, rows, degs)
        cols = A.indices[pos]
        row_of = np.repeat(rows, degs)
        ok = u.present[cols]
        if ok.any():
            prod = np.asarray(
                semiring.multiply(A.values[pos][ok], u.values[cols[ok]])
            ).astype(w.gtype.dtype, copy=False)
            assert monoid.op.ufunc is not None
            _backend.current().scatter_hit(
                out, hit, row_of[ok], prod, monoid.op.ufunc
            )
    san = _sanitizer(cost)
    if san is not None:
        with san.kernel(name) as k:
            # Pull-style mxv: each masked row's thread gathers its own
            # neighbors and reduces into its own output slot.
            if total:
                row_lanes = np.repeat(rows, degs)
                k.read(f"u@{name}", cols, lane=row_lanes)
                k.write(f"out@{name}", row_lanes, lane=row_lanes)
            _record_masked_write(k, name, m & hit)
    _write(w, mask, accum, out, hit, desc)
    return w


def _ewise(
    w: Vector,
    mask: Optional[Vector],
    accum: Optional[BinaryOp],
    op: BinaryOp,
    u: Vector,
    v: Vector,
    desc: Descriptor,
    union: bool,
    cost: Optional[CostModel],
    name: str,
) -> Vector:
    check_same_size(w, u, v)
    both = u.present & v.present
    res = np.zeros(w.size, dtype=w.gtype.dtype)
    if both.any():
        res[both] = np.asarray(op(u.values[both], v.values[both])).astype(
            w.gtype.dtype, copy=False
        )
    if union:
        only_u = u.present & ~v.present
        only_v = v.present & ~u.present
        res[only_u] = u.values[only_u].astype(w.gtype.dtype, copy=False)
        res[only_v] = v.values[only_v].astype(w.gtype.dtype, copy=False)
        present = u.present | v.present
    else:
        present = both
    if cost is not None:
        with span_phase(cost.trace, name):
            cost.charge_gb_overhead(name=f"{name}.dispatch")
            cost.charge_map(int(present.sum()), name=name)
    san = _sanitizer(cost)
    if san is not None:
        with san.kernel(name) as k:
            src = np.flatnonzero(present)
            k.read(f"u@{name}", src, lane=src)
            k.read(f"v@{name}", src, lane=src)
            _record_masked_write(
                k, name, _mask_array(mask, w.size, desc) & present
            )
    _write(w, mask, accum, res, present, desc)
    return w


def ewise_add(
    w: Vector,
    mask: Optional[Vector],
    accum: Optional[BinaryOp],
    op: BinaryOp,
    u: Vector,
    v: Vector,
    desc: Descriptor = DEFAULT,
    *,
    cost: Optional[CostModel] = None,
    name: str = "eWiseAdd",
) -> Vector:
    """GrB_eWiseAdd: set-union elementwise combine (Alg. 2 line 9)."""
    return _ewise(w, mask, accum, op, u, v, desc, True, cost, name)


def ewise_mult(
    w: Vector,
    mask: Optional[Vector],
    accum: Optional[BinaryOp],
    op: BinaryOp,
    u: Vector,
    v: Vector,
    desc: Descriptor = DEFAULT,
    *,
    cost: Optional[CostModel] = None,
    name: str = "eWiseMult",
) -> Vector:
    """GrB_eWiseMult: set-intersection elementwise combine."""
    return _ewise(w, mask, accum, op, u, v, desc, False, cost, name)


def reduce_scalar(
    monoid: Monoid,
    u: Vector,
    *,
    cost: Optional[CostModel] = None,
    name: str = "reduce",
):
    """GrB_reduce of a vector to a scalar (Alg. 2 line 11).

    Reduces the *values of present entries*; returns the monoid identity
    for an empty vector.
    """
    vals = u.values[u.present]
    if cost is not None:
        with span_phase(cost.trace, name):
            cost.charge_gb_overhead(name=f"{name}.dispatch")
            cost.charge_reduce(len(vals), name=name)
    san = _sanitizer(cost)
    if san is not None:
        with san.kernel(name) as k:
            # Tree reduction: all lanes combine into one scalar slot.
            k.write(
                f"scalar@{name}",
                np.zeros(int(u.present.sum()), dtype=np.int64),
                reduction=True,
            )
    return monoid.reduce(vals, dtype=u.gtype.dtype)


def extract(
    w: Vector,
    mask: Optional[Vector],
    accum: Optional[BinaryOp],
    u: Vector,
    indices: np.ndarray,
    desc: Descriptor = DEFAULT,
    *,
    cost: Optional[CostModel] = None,
    name: str = "extract",
) -> Vector:
    """GrB_extract: ``w[k] = u[indices[k]]`` (a gather through the mask)."""
    idx = np.asarray(indices, dtype=np.int64)
    if w.size != len(idx):
        raise DimensionMismatch("output size must match index count")
    if len(idx) and (idx.min() < 0 or idx.max() >= u.size):
        raise InvalidValue("extract index out of range")
    res = u.values[idx].astype(w.gtype.dtype, copy=False)
    present = u.present[idx].copy()
    if cost is not None:
        with span_phase(cost.trace, name):
            cost.charge_gb_overhead(name=f"{name}.dispatch")
            cost.charge_map(len(idx), name=name)
    san = _sanitizer(cost)
    if san is not None:
        with san.kernel(name) as k:
            # Gather: output thread k reads u[indices[k]], writes slot k.
            k.read(f"u@{name}", idx)
            _record_masked_write(
                k, name, _mask_array(mask, w.size, desc) & present
            )
    _write(w, mask, accum, res, present, desc)
    return w


def mxm(
    semiring: Semiring,
    A: Matrix,
    B: Matrix,
    *,
    cost: Optional[CostModel] = None,
    name: str = "mxm",
) -> Matrix:
    """GrB_mxm: ``C[i, j] = ⊕_k A[i, k] ⊗ B[k, j]`` (unmasked, no accum).

    Row-expansion SpGEMM: every stored ``A[i, k]`` joins row k of B,
    and the resulting (i, j) contributions are combined with the
    additive monoid.  Work (and the charged cost) is the classic SpGEMM
    flop count ``Σ_{(i,k) ∈ A} nnz(B[k, :])``.

    Used by :mod:`repro.apps.jacobian` to build column-intersection
    structure (the pattern of ``AᵀA``) entirely inside the GraphBLAS
    layer.
    """
    if A.ncols != B.nrows:
        raise DimensionMismatch(
            f"A ncols {A.ncols} != B nrows {B.nrows}"
        )
    a_rows = np.repeat(np.arange(A.nrows, dtype=np.int64), A.row_degrees())
    a_cols = A.indices
    expand = B.offsets[a_cols + 1] - B.offsets[a_cols]  # nnz of B row k
    flops = int(expand.sum())
    if cost is not None:
        with span_phase(cost.trace, name):
            cost.charge_gb_overhead(name=f"{name}.dispatch")
            cost.charge_vxm(flops, A.nrows, name=name)
    if flops == 0:
        return Matrix.from_coo(
            A.gtype,
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=A.gtype.dtype),
            (A.nrows, B.ncols),
        )
    # Expand every (i, k, va) against B's row k.
    out_i = np.repeat(a_rows, expand)
    va = np.repeat(A.values, expand)
    pos = arc_positions(B.offsets, a_cols, expand)
    out_j = B.indices[pos]
    prod = np.asarray(semiring.multiply(va, B.values[pos]))
    # Combine duplicates with the additive monoid: sort by (i, j) and
    # reduce each run.
    key = out_i * np.int64(B.ncols) + out_j
    order = np.argsort(key, kind="stable")
    key, prod = key[order], prod[order]
    run_start = np.ones(flops, dtype=bool)
    run_start[1:] = key[1:] != key[:-1]
    boundaries = np.flatnonzero(run_start)
    monoid = semiring.add
    assert monoid.op.ufunc is not None
    combined = _backend.current().segmented_reduce(
        prod, boundaries, monoid.op.ufunc
    )
    uniq = key[boundaries]
    return Matrix.from_coo(
        A.gtype,
        uniq // np.int64(B.ncols),
        uniq % np.int64(B.ncols),
        np.asarray(combined, dtype=A.gtype.dtype),
        (A.nrows, B.ncols),
    )


def assign_indexed(
    w: Vector,
    mask: Optional[Vector],
    accum: Optional[BinaryOp],
    value,
    indices: np.ndarray,
    desc: Descriptor = DEFAULT,
    *,
    cost: Optional[CostModel] = None,
    name: str = "assign_indexed",
) -> Vector:
    """GrB_assign of a scalar to an explicit index list (non-ALL form).

    Positions outside ``indices`` are untouched (or cleared when the
    descriptor requests REPLACE); inside, the usual mask/zero-pruning
    rules of :func:`assign` apply.
    """
    idx = np.asarray(indices, dtype=np.int64)
    if len(idx) and (idx.min() < 0 or idx.max() >= w.size):
        raise InvalidValue("assign index out of range")
    m = _mask_array(mask, w.size, desc)
    target = np.zeros(w.size, dtype=bool)
    target[idx] = True
    target &= m
    if cost is not None:
        with span_phase(cost.trace, name):
            cost.charge_gb_overhead(name=f"{name}.dispatch")
            cost.charge_map(int(target.sum()), name=name)
    san = _sanitizer(cost)
    if san is not None:
        with san.kernel(name) as k:
            _record_masked_write(k, name, target)
    zero = w.gtype.zero
    if desc.replace:
        w.present[:] = False
        w.values[:] = zero
    if w.gtype.dtype.type(value) == zero:
        w.present[target] = False
        w.values[target] = zero
    else:
        w.values[target] = value
        w.present[target] = True
    return w


def apply_bind_second(
    w: Vector,
    mask: Optional[Vector],
    accum: Optional[BinaryOp],
    op: BinaryOp,
    u: Vector,
    scalar,
    desc: Descriptor = DEFAULT,
    *,
    cost: Optional[CostModel] = None,
    name: str = "apply_bind",
) -> Vector:
    """GrB_apply with a BinaryOp and a bound scalar: ``w = op(u, s)``.

    The GraphBLAS 1.3 "apply with bind-second" form, e.g. thresholding
    a weight vector (``GT`` with a cutoff) in one operation.
    """
    check_same_size(w, u)
    res = np.asarray(op(u.values, scalar)).astype(w.gtype.dtype, copy=False)
    if cost is not None:
        with span_phase(cost.trace, name):
            cost.charge_gb_overhead(name=f"{name}.dispatch")
            cost.charge_map(u.nvals, name=name)
    san = _sanitizer(cost)
    if san is not None:
        with san.kernel(name) as k:
            src = np.flatnonzero(u.present)
            k.read(f"u@{name}", src, lane=src)
            _record_masked_write(
                k, name, _mask_array(mask, w.size, desc) & u.present
            )
    _write(w, mask, accum, res, u.present.copy(), desc)
    return w


def select(
    w: Vector,
    mask: Optional[Vector],
    predicate,
    u: Vector,
    desc: Descriptor = DEFAULT,
    *,
    cost: Optional[CostModel] = None,
    name: str = "select",
) -> Vector:
    """GrB_select: keep the entries of ``u`` whose values pass
    ``predicate`` (a vectorized value → bool callable); everything else
    becomes structurally absent in ``w``."""
    check_same_size(w, u)
    keep = np.asarray(predicate(u.values), dtype=bool) & u.present
    if cost is not None:
        with span_phase(cost.trace, name):
            cost.charge_gb_overhead(name=f"{name}.dispatch")
            cost.charge_map(u.nvals, name=name)
    san = _sanitizer(cost)
    if san is not None:
        with san.kernel(name) as k:
            src = np.flatnonzero(u.present)
            k.read(f"u@{name}", src, lane=src)
            _record_masked_write(
                k, name, _mask_array(mask, w.size, desc) & keep
            )
    res = u.values.astype(w.gtype.dtype, copy=True)
    _write(w, mask, None, res, keep, desc)
    return w


def reduce_rows(
    w: Vector,
    mask: Optional[Vector],
    accum: Optional[BinaryOp],
    monoid: Monoid,
    A: Matrix,
    desc: Descriptor = DEFAULT,
    *,
    cost: Optional[CostModel] = None,
    name: str = "reduce_rows",
) -> Vector:
    """GrB_reduce (matrix → vector): ``w[i] = ⊕_j A[i, j]``.

    Empty rows produce no entry (GraphBLAS structural semantics); with
    the PLUS monoid over a unit adjacency matrix this computes vertex
    degrees entirely inside the API.
    """
    if w.size != A.nrows:
        raise DimensionMismatch(f"w size {w.size} != A nrows {A.nrows}")
    degs = A.row_degrees()
    if cost is not None:
        with span_phase(cost.trace, name):
            cost.charge_gb_overhead(name=f"{name}.dispatch")
            cost.charge_vxm(A.nvals, A.nrows, name=name)
    out = np.full(w.size, monoid.identity(w.gtype.dtype), dtype=w.gtype.dtype)
    if A.nvals:
        rows = np.repeat(np.arange(A.nrows, dtype=np.int64), degs)
        assert monoid.op.ufunc is not None
        _backend.current().scatter_reduce(
            out, rows, A.values.astype(w.gtype.dtype, copy=False), monoid.op.ufunc
        )
    san = _sanitizer(cost)
    if san is not None:
        with san.kernel(name) as k:
            # Row-segmented reduction: each row's thread owns its slot.
            if A.nvals:
                k.write(f"out@{name}", rows, lane=rows)
            _record_masked_write(
                k, name, _mask_array(mask, w.size, desc) & (degs > 0)
            )
    _write(w, mask, accum, out, degs > 0, desc)
    return w
