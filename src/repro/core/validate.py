"""Coloring validation.

A coloring is valid when no edge joins two vertices of the same color
(the definition in the paper's introduction: C(v) ≠ C(u) ∀(v,u) ∈ E).
Validation is fully vectorized — one pass over the arc arrays — and is
run by every test and, in strict mode, by the harness after every
algorithm.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..errors import ValidationError
from ..graph.csr import CSRGraph

__all__ = [
    "is_valid_coloring",
    "count_conflicts",
    "find_conflicts",
    "assert_valid_coloring",
]


def _conflict_mask(graph: CSRGraph, colors: np.ndarray) -> np.ndarray:
    """Boolean per-arc mask of same-color endpoints (both colored)."""
    colors = np.asarray(colors)
    if len(colors) != graph.num_vertices:
        raise ValidationError(
            f"colors length {len(colors)} != vertices {graph.num_vertices}"
        )
    own = np.repeat(colors, graph.degrees)
    return (own == colors[graph.indices]) & (own > 0)


def count_conflicts(graph: CSRGraph, colors: np.ndarray) -> int:
    """Number of conflicting *edges* (each undirected conflict counted once)."""
    conflicts = int(np.count_nonzero(_conflict_mask(graph, colors)))
    return conflicts // 2 if graph.undirected else conflicts


def find_conflicts(graph: CSRGraph, colors: np.ndarray) -> np.ndarray:
    """The conflicting edges as an ``(k, 2)`` array with u < v."""
    pos = np.flatnonzero(_conflict_mask(graph, colors))
    # The row holding arc ``pos`` is its source.
    u = np.searchsorted(graph.offsets, pos, side="right") - 1
    v = graph.indices[pos]
    if graph.undirected:
        keep = u < v
        u, v = u[keep], v[keep]
    return np.column_stack([u, v])


def is_valid_coloring(
    graph: CSRGraph, colors: np.ndarray, *, allow_uncolored: bool = False
) -> bool:
    """True iff no same-color edge exists and (unless allowed) every
    vertex is colored."""
    colors = np.asarray(colors)
    if len(colors) != graph.num_vertices:
        return False
    if not allow_uncolored and (colors <= 0).any():
        return False
    return count_conflicts(graph, colors) == 0


def assert_valid_coloring(
    graph: CSRGraph, colors: np.ndarray, *, allow_uncolored: bool = False
) -> None:
    """Raise :class:`ValidationError` with diagnostics on any violation."""
    colors = np.asarray(colors)
    if len(colors) != graph.num_vertices:
        raise ValidationError(
            f"colors length {len(colors)} != vertices {graph.num_vertices}"
        )
    if not allow_uncolored:
        uncolored = int((colors <= 0).sum())
        if uncolored:
            raise ValidationError(f"{uncolored} vertices left uncolored")
    k = count_conflicts(graph, colors)
    if k:
        sample = find_conflicts(graph, colors)[:5].tolist()
        raise ValidationError(
            f"{k} conflicting edges, e.g. {sample}"
        )
