"""GraphBLAS matrices (CSR).

A :class:`Matrix` stores a sparse matrix in compressed-sparse-row form —
the input representation both frameworks consume (§IV).  Graph coloring
only needs the adjacency pattern, so :meth:`from_graph` builds an
iso-valued matrix of ones over a :class:`~repro.graph.csr.CSRGraph`
without copying its structure arrays.
"""

from __future__ import annotations

from typing import Tuple, Union

import numpy as np

from ..errors import DimensionMismatch, InvalidValue
from ..graph.csr import CSRGraph
from .types import GrBType, from_dtype

__all__ = ["Matrix"]


class Matrix:
    """A sparse ``nrows × ncols`` matrix in CSR form."""

    __slots__ = (
        "offsets",
        "indices",
        "values",
        "_shape",
        "_type",
        "_iso",
        "_symmetric",
        "_degrees",
    )

    def __init__(
        self,
        gtype: Union[GrBType, np.dtype, type],
        offsets: np.ndarray,
        indices: np.ndarray,
        values: np.ndarray,
        shape: Tuple[int, int],
    ) -> None:
        self._type = gtype if isinstance(gtype, GrBType) else from_dtype(gtype)
        self.offsets = np.asarray(offsets, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.values = np.asarray(values, dtype=self._type.dtype)
        self._shape = (int(shape[0]), int(shape[1]))
        if len(self.offsets) != self._shape[0] + 1:
            raise DimensionMismatch("offsets length must be nrows + 1")
        if len(self.indices) != len(self.values):
            raise DimensionMismatch("indices and values must align")
        if len(self.indices) and (
            self.indices.min() < 0 or self.indices.max() >= self._shape[1]
        ):
            raise InvalidValue("column index out of range")
        self._iso = False
        self._symmetric = False
        self._degrees = None

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_graph(cls, graph: CSRGraph, gtype=None) -> "Matrix":
        """The adjacency matrix of ``graph`` with unit values.

        Shares the graph's offset/index arrays (no copy); the unit value
        is stored once, as a read-only broadcast over the arcs (an iso
        matrix).  An undirected graph's matrix is its own transpose.
        """
        from .types import INT64

        t = gtype if gtype is not None else INT64
        if not isinstance(t, GrBType):
            t = from_dtype(t)
        n = graph.num_vertices
        ones = np.broadcast_to(t.dtype.type(1), (graph.num_arcs,))
        A = cls(t, graph.offsets, graph.indices, ones, (n, n))
        A._iso = True
        A._symmetric = graph.undirected
        return A

    @classmethod
    def from_coo(
        cls, gtype, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, shape
    ) -> "Matrix":
        """Build from coordinate triples (duplicates: last wins)."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals)
        if not (len(rows) == len(cols) == len(vals)):
            raise DimensionMismatch("rows, cols, vals must align")
        nrows, ncols = int(shape[0]), int(shape[1])
        if len(rows) and (rows.min() < 0 or rows.max() >= nrows):
            raise InvalidValue("row index out of range")
        if len(cols) and (cols.min() < 0 or cols.max() >= ncols):
            raise InvalidValue("column index out of range")
        order = np.lexsort((cols, rows))
        rows, cols, vals = rows[order], cols[order], vals[order]
        if len(rows):
            key_same = np.zeros(len(rows), dtype=bool)
            key_same[1:] = (rows[1:] == rows[:-1]) & (cols[1:] == cols[:-1])
            keep = np.ones(len(rows), dtype=bool)
            keep[:-1] = ~key_same[1:]
            rows, cols, vals = rows[keep], cols[keep], vals[keep]
        offsets = np.zeros(nrows + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=nrows), out=offsets[1:])
        return cls(gtype, offsets, cols, vals, (nrows, ncols))

    # -- properties ----------------------------------------------------------

    @property
    def shape(self) -> Tuple[int, int]:
        return self._shape

    @property
    def nrows(self) -> int:
        """GrB_Matrix_nrows."""
        return self._shape[0]

    @property
    def ncols(self) -> int:
        """GrB_Matrix_ncols."""
        return self._shape[1]

    @property
    def nvals(self) -> int:
        """GrB_Matrix_nvals."""
        return len(self.indices)

    @property
    def gtype(self) -> GrBType:
        return self._type

    @property
    def iso(self) -> bool:
        """Whether every stored value is one broadcast scalar."""
        return self._iso

    @property
    def symmetric(self) -> bool:
        """Whether the matrix is known to equal its transpose."""
        return self._symmetric

    def row_degrees(self) -> np.ndarray:
        """Entries per row (cached, read-only; the work estimator for
        masked vxm)."""
        if self._degrees is None:
            self._degrees = np.diff(self.offsets)
            self._degrees.setflags(write=False)
        return self._degrees

    def row(self, i: int) -> Tuple[np.ndarray, np.ndarray]:
        """(column indices, values) of row ``i``."""
        if not 0 <= i < self.nrows:
            raise InvalidValue(f"row {i} out of range")
        s, e = self.offsets[i], self.offsets[i + 1]
        return self.indices[s:e], self.values[s:e]

    def transpose(self) -> "Matrix":
        """GrB_transpose: a new CSR matrix holding Aᵀ."""
        rows = np.repeat(
            np.arange(self.nrows, dtype=np.int64), self.row_degrees()
        )
        return Matrix.from_coo(
            self._type, self.indices, rows, self.values,
            (self.ncols, self.nrows),
        )

    def to_dense(self) -> np.ndarray:
        """Dense ``nrows × ncols`` array (absent = implicit zero)."""
        out = np.full(self._shape, self._type.zero, dtype=self._type.dtype)
        rows = np.repeat(np.arange(self.nrows, dtype=np.int64), self.row_degrees())
        out[rows, self.indices] = self.values
        return out

    def __repr__(self) -> str:
        return (
            f"<Matrix {self._type!r} {self.nrows}x{self.ncols} "
            f"nvals={self.nvals}>"
        )
