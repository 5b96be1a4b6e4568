"""GraphBLAS vectors.

A :class:`Vector` is a fixed-size sparse vector stored densely: a value
array plus a presence bitmap.  The GraphBLAS API "hides the distinction
between sparse vs. dense vectors … from the user" (§III-A3); the dense
backing keeps every operation a vectorized NumPy expression while
``nvals``/structure drive the cost model's work accounting exactly like
a sparsity-aware runtime's would.

Mirroring GraphBLAST's runtime behaviour — on which the paper's cost
argument depends — assigning the implicit zero through a mask *removes*
those entries from the structure (see :meth:`prune_zeros`).  That is
what makes the candidate vector ``weight`` in Alg. 2/3 shrink as
vertices are colored, so that later masked ``vxm`` calls only pay for
uncolored rows.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

from ..errors import DimensionMismatch, InvalidValue
from .types import GrBType, from_dtype

__all__ = ["Vector"]


class Vector:
    """A size-``n`` sparse vector with dense backing storage."""

    __slots__ = ("values", "present", "_type")

    def __init__(self, gtype: Union[GrBType, np.dtype, type], size: int) -> None:
        if size < 0:
            raise InvalidValue("vector size must be non-negative")
        self._type = gtype if isinstance(gtype, GrBType) else from_dtype(gtype)
        self.values = np.zeros(size, dtype=self._type.dtype)
        self.present = np.zeros(size, dtype=bool)

    # -- constructors --------------------------------------------------------

    @classmethod
    def new(cls, gtype, size: int) -> "Vector":
        """GrB_Vector_new: an empty vector of the given domain and size."""
        return cls(gtype, size)

    @classmethod
    def from_dense(cls, values: np.ndarray) -> "Vector":
        """A fully-present vector wrapping a copy of ``values``."""
        arr = np.asarray(values)
        v = cls(from_dtype(arr.dtype), len(arr))
        v.values[:] = arr
        v.present[:] = True
        return v

    @classmethod
    def sparse(cls, gtype, size: int, indices: np.ndarray, values: np.ndarray) -> "Vector":
        """A vector with entries only at ``indices`` (GrB_Vector_build)."""
        v = cls(gtype, size)
        v.build(indices, values)
        return v

    # -- structure -----------------------------------------------------------

    @property
    def size(self) -> int:
        """Dimension ``n`` (GrB_Vector_size)."""
        return len(self.values)

    @property
    def nvals(self) -> int:
        """Number of present entries (GrB_Vector_nvals)."""
        return int(np.count_nonzero(self.present))

    @property
    def gtype(self) -> GrBType:
        """The vector's scalar domain."""
        return self._type

    def dup(self) -> "Vector":
        """A deep copy (GrB_Vector_dup)."""
        v = Vector(self._type, self.size)
        v.values[:] = self.values
        v.present[:] = self.present
        return v

    def clear(self) -> None:
        """Remove all entries (GrB_Vector_clear)."""
        self.values[:] = self._type.zero
        self.present[:] = False

    def build(self, indices: np.ndarray, values) -> None:
        """Set entries at ``indices`` to ``values`` (scalar broadcasts)."""
        idx = np.asarray(indices, dtype=np.int64)
        if len(idx) and (idx.min() < 0 or idx.max() >= self.size):
            raise InvalidValue("build index out of range")
        self.values[idx] = values
        self.present[idx] = True

    def prune_zeros(self) -> None:
        """Drop entries whose value equals the implicit zero.

        GraphBLAST prunes explicit zeros so downstream masked operations
        skip them; the candidate-elimination writes of Alg. 2 line 19 /
        Alg. 3 lines 12 & 20 rely on this to shrink the active set.
        """
        self.present &= self.values != self._type.zero

    # -- element access --------------------------------------------------------

    def set_element(self, index: int, value) -> None:
        """GrB_Vector_setElement."""
        if not 0 <= index < self.size:
            raise InvalidValue(f"index {index} out of range [0, {self.size})")
        self.values[index] = value
        self.present[index] = True

    def get_element(self, index: int):
        """GrB_Vector_extractElement — returns None when absent."""
        if not 0 <= index < self.size:
            raise InvalidValue(f"index {index} out of range [0, {self.size})")
        if not self.present[index]:
            return None
        return self.values[index]

    def extract_tuples(self) -> Tuple[np.ndarray, np.ndarray]:
        """GrB_Vector_extractTuples: (indices, values) of present entries."""
        idx = np.flatnonzero(self.present)
        return idx, self.values[idx].copy()

    def to_dense(self, fill=None) -> np.ndarray:
        """Dense view with absent entries replaced by ``fill`` (default:
        the domain's implicit zero)."""
        out = self.values.copy()
        out[~self.present] = self._type.zero if fill is None else fill
        return out

    # -- mask helper -------------------------------------------------------------

    def mask_array(self, *, complement: bool = False, structure: bool = False) -> np.ndarray:
        """The boolean write-mask this vector denotes (§III-A1).

        Value masks admit positions whose entry is present *and*
        C-castable to true; structural masks admit all present entries.
        """
        m = self.present.copy()
        if not structure:
            m &= self.values != self._type.zero
        if complement:
            m = ~m
        return m

    # -- dunder ------------------------------------------------------------------

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:
        return f"<Vector {self._type!r} size={self.size} nvals={self.nvals}>"


def check_same_size(*vectors: Vector) -> int:
    """Raise :class:`DimensionMismatch` unless all vectors share a size."""
    sizes = {v.size for v in vectors}
    if len(sizes) > 1:
        raise DimensionMismatch(f"vector sizes differ: {sorted(sizes)}")
    return vectors[0].size
