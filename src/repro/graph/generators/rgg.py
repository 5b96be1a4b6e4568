"""Random geometric graphs (RGG) in the DIMACS10 style.

The paper's scaling study (Fig. 3) uses the DIMACS10 graphs
``rgg_n_2_{15..24}_s0``: 2^k points in the unit square, connected when
within Euclidean distance r, with r chosen so the expected average
degree grows slowly with scale (Table I shows 9.78 at scale 15 up to
15.8 at scale 24 — the DIMACS10 family uses r ~ sqrt(ln(n)/n)).

:func:`rgg` generates the same family from scratch.  A uniform spatial
grid of cells of side at least r makes neighbor search O(n) expected:
each point is only compared against the points of its own and the 8
adjacent cells.  The search is one vectorized pass per forward cell
offset over all points at once, in blocks of at most
:data:`PAIR_BLOCK` candidate pairs, so no Python loop runs per cell and
the candidate arrays stay bounded at every scale.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from ..._rng import RngLike, ensure_rng
from ...errors import GeneratorError
from ..build import from_arcs
from ..csr import CSRGraph

__all__ = ["rgg", "rgg_scale", "dimacs10_radius"]

#: Most candidate pairs :func:`_radius_pairs` materializes at once, so
#: its working set beyond the n-long arrays stays bounded at any scale.
PAIR_BLOCK = 1 << 18


def dimacs10_radius(n: int) -> float:
    """The DIMACS10 connection radius for an n-point RGG.

    DIMACS10 uses ``r = sqrt(ln(n) / (pi * n)) * c`` with c chosen so the
    graph is almost surely connected; the resulting expected average
    degree is ``pi * r^2 * n ≈ c^2 * ln(n)``, reproducing Table I's slow
    degree growth (9.78 → 15.8 over scales 15 → 24).  We use c^2 = 0.94
    which matches the published averages to within a few percent.
    """
    if n < 2:
        raise GeneratorError("rgg needs at least 2 points")
    return math.sqrt(0.94 * math.log(n) / (math.pi * n))


def rgg(
    n: int,
    radius: Optional[float] = None,
    *,
    rng: RngLike = None,
    name: str = "",
) -> CSRGraph:
    """Generate a random geometric graph on ``n`` uniform points.

    Points are i.i.d. uniform in the unit square; an undirected edge
    joins every pair within ``radius``.  ``radius`` defaults to the
    DIMACS10 choice (:func:`dimacs10_radius`).
    """
    if n < 0:
        raise GeneratorError("n must be non-negative")
    if n <= 1:
        from ..build import empty_graph

        return empty_graph(n, name=name or f"rgg_{n}")
    r = dimacs10_radius(n) if radius is None else float(radius)
    if not 0 < r <= 1:
        raise GeneratorError("radius must lie in (0, 1]")
    gen = ensure_rng(rng)
    pts = gen.random((n, 2))
    src, dst = _radius_pairs(pts, r)
    return from_arcs(
        np.concatenate([src, dst]),
        np.concatenate([dst, src]),
        n,
        undirected=True,
        name=name or f"rgg_{n}",
    )


def rgg_scale(scale: int, *, rng: RngLike = None) -> CSRGraph:
    """The DIMACS10-style graph ``rgg_n_2_<scale>_s0``: 2**scale points."""
    if not 1 <= scale <= 26:
        raise GeneratorError("scale must be in [1, 26]")
    n = 1 << scale
    return rgg(n, rng=rng, name=f"rgg_n_2_{scale}_s0")


def _radius_pairs(pts: np.ndarray, r: float):
    """All index pairs (i < j) with ``|pts[i]-pts[j]| <= r``.

    Cell-list search: points are sorted once by their cell of side
    ``>= r``, so each cell is a contiguous run of sorted positions.
    Every nearby pair lies in one cell or in two adjacent cells; the 5
    forward offsets cover each unordered cell pair exactly once.  Per
    offset, each point's candidates are one contiguous run (the other
    cell, or its successors within its own cell), expanded with
    ``repeat``/``arange`` ramps in blocks of at most
    :data:`PAIR_BLOCK` candidates.
    """
    n = len(pts)
    ncell = max(1, int(1.0 / r))
    cell = np.minimum((pts * ncell).astype(np.int64), ncell - 1)
    cid = cell[:, 0] * ncell + cell[:, 1]
    order = np.argsort(cid, kind="stable")
    sorted_pts = pts[order]
    cid = cid[order]
    starts = np.zeros(ncell * ncell + 1, dtype=np.int64)
    np.cumsum(np.bincount(cid, minlength=ncell * ncell), out=starts[1:])
    cx, cy = np.divmod(cid, ncell)
    pos = np.arange(n, dtype=np.int64)

    r2 = r * r
    out_src = []
    out_dst = []
    # Offsets covering each unordered cell pair exactly once: self plus
    # the 4 "forward" neighbors (E, SW, S, SE) in lexicographic order.
    fwd = ((0, 0), (0, 1), (1, -1), (1, 0), (1, 1))
    for dx, dy in fwd:
        if (dx, dy) == (0, 0):
            lo = pos + 1  # j > i within the point's own cell
            hi = starts[cid + 1]
        else:
            nx, ny = cx + dx, cy + dy
            inside = (nx >= 0) & (nx < ncell) & (ny >= 0) & (ny < ncell)
            nb = np.where(inside, nx * ncell + ny, 0)
            lo = starts[nb]
            hi = np.where(inside, starts[nb + 1], lo)
        count = hi - lo
        ends = np.cumsum(count)
        p0 = 0
        while p0 < n:
            # The longest run of points whose candidates fit one block
            # (at least one point, so a single huge cell still advances).
            base = ends[p0 - 1] if p0 else 0
            p1 = max(p0 + 1, int(np.searchsorted(ends, base + PAIR_BLOCK, "right")))
            total = int(ends[p1 - 1] - base)
            if total:
                k = count[p0:p1]
                i = np.repeat(pos[p0:p1], k)
                # Ramp: candidate t of point p is sorted position lo[p] + t.
                j = np.repeat(lo[p0:p1] - (ends[p0:p1] - k - base), k)
                j += np.arange(total, dtype=np.int64)
                diff = sorted_pts[i] - sorted_pts[j]
                hit = (diff ** 2).sum(axis=1) <= r2
                out_src.append(order[i[hit]])
                out_dst.append(order[j[hit]])
            p0 = p1
    if not out_src:
        e = np.empty(0, dtype=np.int64)
        return e, e.copy()
    return np.concatenate(out_src), np.concatenate(out_dst)
