"""Compressed-sparse-row graph container.

Both graph frameworks in the paper (Gunrock and GraphBLAS) consume the
same input representation: a CSR adjacency structure — one array of
row offsets and one array of neighbor (column) indices (§IV of the
paper).  :class:`CSRGraph` is that representation, immutable and
validated at construction so every downstream kernel can rely on its
invariants:

* ``offsets`` has length ``n + 1``, is non-decreasing, starts at 0 and
  ends at ``num_arcs``;
* ``indices`` holds vertex ids in ``[0, n)``;
* per-row neighbor lists are sorted and duplicate-free;
* no self loops;
* for undirected graphs the arc set is symmetric (``(u,v)`` iff ``(v,u)``).

"Edges" follows the paper's Table I convention: for an undirected graph
an edge {u,v} is counted once (``num_edges``), while the CSR stores both
arcs (``num_arcs == 2 * num_edges``).
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

import numpy as np

from ..errors import GraphError

__all__ = ["CSRGraph", "arc_positions"]


class CSRGraph:
    """An immutable graph in compressed-sparse-row form.

    Parameters
    ----------
    offsets:
        ``int64[n+1]`` row-offset array.
    indices:
        ``int32/int64[num_arcs]`` neighbor array.
    undirected:
        Declares (and, under ``validate=True``, checks) arc symmetry.
    name:
        Optional human-readable label used by the harness and reprs.
    validate:
        When true (default), verify every structural invariant.  Internal
        constructors that build provably-valid CSR pass ``False``.
    """

    __slots__ = ("_offsets", "_indices", "_undirected", "_name", "_degrees")

    def __init__(
        self,
        offsets: np.ndarray,
        indices: np.ndarray,
        *,
        undirected: bool = True,
        name: str = "",
        validate: bool = True,
    ) -> None:
        offsets = np.asarray(offsets, dtype=np.int64)
        indices = np.asarray(indices, dtype=np.int64)
        if validate:
            _validate_csr(offsets, indices, undirected)
        self._offsets = offsets
        self._indices = indices
        self._undirected = bool(undirected)
        self._name = name
        self._degrees: Optional[np.ndarray] = None
        self._offsets.setflags(write=False)
        self._indices.setflags(write=False)

    # -- basic properties -------------------------------------------------

    @property
    def num_vertices(self) -> int:
        """Number of vertices ``n``."""
        return len(self._offsets) - 1

    @property
    def num_arcs(self) -> int:
        """Number of stored directed arcs (CSR entries)."""
        return len(self._indices)

    @property
    def num_edges(self) -> int:
        """Number of edges in the Table I sense.

        For undirected graphs each edge is stored as two arcs, so this is
        ``num_arcs // 2``; for directed graphs it equals ``num_arcs``.
        """
        return self.num_arcs // 2 if self._undirected else self.num_arcs

    @property
    def undirected(self) -> bool:
        """Whether the arc set is symmetric."""
        return self._undirected

    @property
    def name(self) -> str:
        """Dataset label (may be empty)."""
        return self._name

    @property
    def offsets(self) -> np.ndarray:
        """Read-only ``int64[n+1]`` row-offset array."""
        return self._offsets

    @property
    def indices(self) -> np.ndarray:
        """Read-only ``int64[num_arcs]`` neighbor array."""
        return self._indices

    # -- derived structure -------------------------------------------------

    @property
    def degrees(self) -> np.ndarray:
        """Out-degree of every vertex (cached, read-only)."""
        if self._degrees is None:
            deg = np.diff(self._offsets)
            deg.setflags(write=False)
            self._degrees = deg
        return self._degrees

    @property
    def max_degree(self) -> int:
        """Maximum vertex degree (0 for the empty graph)."""
        return int(self.degrees.max()) if self.num_vertices else 0

    @property
    def avg_degree(self) -> float:
        """Average out-degree (arcs / vertices), as reported in Table I."""
        return self.num_arcs / self.num_vertices if self.num_vertices else 0.0

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted neighbor list of vertex ``v`` (a read-only view)."""
        if not 0 <= v < self.num_vertices:
            raise GraphError(
                f"vertex {v} out of range [0, {self.num_vertices})"
            )
        return self._indices[self._offsets[v] : self._offsets[v + 1]]

    def degree(self, v: int) -> int:
        """Degree of a single vertex ``v``."""
        return len(self.neighbors(v))

    def has_arc(self, u: int, v: int) -> bool:
        """True if the arc ``u → v`` is present (binary search, O(log d))."""
        row = self.neighbors(u)
        pos = np.searchsorted(row, v)
        return bool(pos < len(row) and row[pos] == v)

    def arcs(self) -> Tuple[np.ndarray, np.ndarray]:
        """All arcs as parallel ``(sources, targets)`` arrays."""
        src = np.repeat(np.arange(self.num_vertices, dtype=np.int64), self.degrees)
        return src, self._indices.copy()

    def edge_list(self) -> np.ndarray:
        """Unique undirected edges as an ``(m, 2)`` array with ``u < v``.

        For a directed graph this returns every arc as a row instead.
        """
        src, dst = self.arcs()
        if not self._undirected:
            return np.column_stack([src, dst])
        keep = src < dst
        return np.column_stack([src[keep], dst[keep]])

    # -- conversion ---------------------------------------------------------

    def to_scipy(self):
        """The adjacency matrix as a ``scipy.sparse.csr_matrix`` of 1s."""
        from scipy.sparse import csr_matrix

        n = self.num_vertices
        data = np.ones(self.num_arcs, dtype=np.int8)
        return csr_matrix(
            (data, self._indices, self._offsets),
            shape=(n, n),
        )

    def reverse(self) -> "CSRGraph":
        """The transpose graph (arcs flipped).

        For undirected graphs this is the graph itself (a cheap copy that
        shares arrays); for directed graphs a new CSC→CSR conversion.
        """
        if self._undirected:
            return CSRGraph(
                self._offsets,
                self._indices,
                undirected=True,
                name=self._name,
                validate=False,
            )
        from .build import from_arcs

        src, dst = self.arcs()
        return from_arcs(
            dst, src, self.num_vertices, undirected=False, name=self._name
        )

    # -- dunder -------------------------------------------------------------

    def __iter__(self) -> Iterator[int]:
        return iter(range(self.num_vertices))

    def __len__(self) -> int:
        return self.num_vertices

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CSRGraph):
            return NotImplemented
        return (
            self._undirected == other._undirected
            and np.array_equal(self._offsets, other._offsets)
            and np.array_equal(self._indices, other._indices)
        )

    def __hash__(self) -> int:  # content hash; graphs are immutable
        return hash(
            (
                self._undirected,
                self._offsets.tobytes(),
                self._indices.tobytes(),
            )
        )

    def __repr__(self) -> str:
        kind = "undirected" if self._undirected else "directed"
        label = f" {self._name!r}" if self._name else ""
        return (
            f"<CSRGraph{label} {kind} n={self.num_vertices} "
            f"m={self.num_edges} avg_deg={self.avg_degree:.2f}>"
        )


def arc_positions(
    offsets: np.ndarray, ids: np.ndarray, degs: np.ndarray
) -> np.ndarray:
    """Flat positions of every arc of the rows ``ids``, row after row.

    Row ``ids[i]`` (of length ``degs[i]``) contributes ``offsets[ids[i]]
    + j`` for ``j < degs[i]``.  One ramp plus a per-row shift, so a
    single ``np.repeat``: ``arange(total) + repeat(offsets[ids] -
    exclusive_cumsum(degs), degs)``.
    """
    excl = np.cumsum(degs) - degs
    total = int(degs.sum())
    return np.arange(total, dtype=np.int64) + np.repeat(offsets[ids] - excl, degs)


def _validate_csr(offsets: np.ndarray, indices: np.ndarray, undirected: bool) -> None:
    """Raise :class:`GraphError` unless the arrays form a canonical CSR."""
    if offsets.ndim != 1 or len(offsets) < 1:
        raise GraphError("offsets must be a 1-D array of length n+1 >= 1")
    if indices.ndim != 1:
        raise GraphError("indices must be a 1-D array")
    if offsets[0] != 0:
        raise GraphError("offsets[0] must be 0")
    if offsets[-1] != len(indices):
        raise GraphError(
            f"offsets[-1]={offsets[-1]} must equal len(indices)={len(indices)}"
        )
    if np.any(np.diff(offsets) < 0):
        raise GraphError("offsets must be non-decreasing")
    n = len(offsets) - 1
    if len(indices):
        if indices.min() < 0 or indices.max() >= n:
            raise GraphError("neighbor indices out of range")
    # Sorted, duplicate-free rows: within a row, strictly increasing.
    if len(indices) > 1:
        row_of = np.repeat(np.arange(n, dtype=np.int64), np.diff(offsets))
        same_row = row_of[1:] == row_of[:-1]
        if np.any(same_row & (np.diff(indices) <= 0)):
            raise GraphError("rows must be sorted and duplicate-free")
    # No self-loops.
    if len(indices):
        row_of = np.repeat(np.arange(n, dtype=np.int64), np.diff(offsets))
        if np.any(row_of == indices):
            raise GraphError("self-loops are not allowed")
    if undirected and len(indices):
        # Symmetry: sort (src,dst) and (dst,src) arc sets and compare.
        row_of = np.repeat(np.arange(n, dtype=np.int64), np.diff(offsets))
        fwd = row_of * n + indices
        bwd = indices * n + row_of
        if not np.array_equal(np.sort(fwd), np.sort(bwd)):
            raise GraphError("declared undirected but arc set is asymmetric")
