"""Construction of :class:`~repro.graph.csr.CSRGraph` from raw edge data.

The paper's datasets are preprocessed the same way (§V-A): "All datasets
have been converted to undirected graphs, and self-loops and duplicated
edges are removed."  :func:`from_edges` applies exactly that pipeline:
symmetrize, drop self-loops, deduplicate, sort rows — all vectorized.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

from ..errors import GraphError
from .csr import CSRGraph

__all__ = [
    "from_edges",
    "from_arcs",
    "from_adjacency",
    "from_scipy",
    "empty_graph",
    "complete_graph",
    "path_graph",
    "cycle_graph",
    "star_graph",
    "induced_subgraph",
]


def from_edges(
    edges: Union[np.ndarray, Sequence],
    num_vertices: Optional[int] = None,
    *,
    name: str = "",
) -> CSRGraph:
    """Build an undirected :class:`CSRGraph` from an edge list.

    ``edges`` is an ``(m, 2)`` array (or any sequence of pairs).  The
    result is symmetrized, self-loops and duplicate edges are removed,
    and rows are sorted — matching the paper's dataset preprocessing.

    ``num_vertices`` defaults to ``max vertex id + 1``; pass it explicitly
    to keep isolated trailing vertices.
    """
    e = np.asarray(edges, dtype=np.int64)
    if e.size == 0:
        e = e.reshape(0, 2)
    if e.ndim != 2 or e.shape[1] != 2:
        raise GraphError("edges must be an (m, 2) array of vertex pairs")
    if num_vertices is None:
        num_vertices = int(e.max()) + 1 if len(e) else 0
    src = np.concatenate([e[:, 0], e[:, 1]])
    dst = np.concatenate([e[:, 1], e[:, 0]])
    return from_arcs(src, dst, num_vertices, undirected=True, name=name)


def from_arcs(
    src: np.ndarray,
    dst: np.ndarray,
    num_vertices: int,
    *,
    undirected: bool,
    name: str = "",
) -> CSRGraph:
    """Build a graph from parallel source/target arrays.

    Self-loops and duplicate arcs are removed.  When ``undirected`` is
    true the caller must supply both arc directions (as
    :func:`from_edges` does); symmetry is then guaranteed by dedup.
    """
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    if src.shape != dst.shape or src.ndim != 1:
        raise GraphError("src/dst must be 1-D arrays of equal length")
    if num_vertices < 0:
        raise GraphError("num_vertices must be non-negative")
    if len(src):
        lo = min(src.min(), dst.min())
        hi = max(src.max(), dst.max())
        if lo < 0 or hi >= num_vertices:
            raise GraphError(
                f"vertex ids must lie in [0, {num_vertices}); saw [{lo}, {hi}]"
            )
    keep = src != dst  # drop self-loops
    src, dst = src[keep], dst[keep]
    # Sort the (src, dst) keys then dedup — yields sorted, unique CSR
    # rows; each unique key decodes back to its arc.
    key = np.sort(src * num_vertices + dst)
    uniq = np.ones(len(key), dtype=bool)
    uniq[1:] = key[1:] != key[:-1]
    src, dst = np.divmod(key[uniq], num_vertices)
    offsets = np.zeros(num_vertices + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=num_vertices), out=offsets[1:])
    return CSRGraph(offsets, dst, undirected=undirected, name=name, validate=False)


def from_adjacency(adj: Union[np.ndarray, Sequence], *, name: str = "") -> CSRGraph:
    """Build an undirected graph from a dense 0/1 adjacency matrix.

    The matrix is symmetrized (an entry in either triangle creates the
    edge) and the diagonal is ignored.  Intended for tests and tiny
    examples, not large graphs.
    """
    a = np.asarray(adj)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise GraphError("adjacency must be a square matrix")
    src, dst = np.nonzero(a)
    return from_edges(
        np.column_stack([src, dst]), num_vertices=a.shape[0], name=name
    )


def from_scipy(mat, *, name: str = "") -> CSRGraph:
    """Build an undirected graph from any ``scipy.sparse`` matrix.

    Nonzero pattern defines edges; values are discarded (the paper's
    algorithms only use graph structure).
    """
    coo = mat.tocoo()
    if coo.shape[0] != coo.shape[1]:
        raise GraphError("sparse adjacency must be square")
    edges = np.column_stack([coo.row.astype(np.int64), coo.col.astype(np.int64)])
    return from_edges(edges, num_vertices=coo.shape[0], name=name)


# -- tiny canonical graphs (test fixtures & examples) -------------------------


def empty_graph(n: int, *, name: str = "empty") -> CSRGraph:
    """``n`` isolated vertices, no edges."""
    return CSRGraph(
        np.zeros(n + 1, dtype=np.int64),
        np.empty(0, dtype=np.int64),
        undirected=True,
        name=name,
        validate=False,
    )


def complete_graph(n: int, *, name: str = "complete") -> CSRGraph:
    """The complete graph K_n (chromatic number exactly n)."""
    if n <= 1:
        return empty_graph(max(n, 0), name=name)
    src = np.repeat(np.arange(n, dtype=np.int64), n - 1)
    dst = np.concatenate(
        [np.delete(np.arange(n, dtype=np.int64), v) for v in range(n)]
    )
    return from_arcs(src, dst, n, undirected=True, name=name)


def path_graph(n: int, *, name: str = "path") -> CSRGraph:
    """The path P_n (chromatic number 2 for n >= 2)."""
    if n <= 1:
        return empty_graph(max(n, 0), name=name)
    i = np.arange(n - 1, dtype=np.int64)
    return from_edges(np.column_stack([i, i + 1]), num_vertices=n, name=name)


def cycle_graph(n: int, *, name: str = "cycle") -> CSRGraph:
    """The cycle C_n (chromatic number 2 if n even else 3)."""
    if n < 3:
        raise GraphError("cycle_graph requires n >= 3")
    i = np.arange(n, dtype=np.int64)
    return from_edges(np.column_stack([i, (i + 1) % n]), num_vertices=n, name=name)


def star_graph(n_leaves: int, *, name: str = "star") -> CSRGraph:
    """A star with one hub and ``n_leaves`` leaves (chromatic number 2)."""
    if n_leaves < 0:
        raise GraphError("n_leaves must be non-negative")
    if n_leaves == 0:
        return empty_graph(1, name=name)
    hub = np.zeros(n_leaves, dtype=np.int64)
    leaves = np.arange(1, n_leaves + 1, dtype=np.int64)
    return from_edges(
        np.column_stack([hub, leaves]), num_vertices=n_leaves + 1, name=name
    )


def induced_subgraph(graph: CSRGraph, vertices) -> "tuple[CSRGraph, np.ndarray]":
    """The subgraph induced on ``vertices``.

    Accepts a boolean mask or an id array; returns ``(subgraph, ids)``
    where ``ids[i]`` is the original id of subgraph vertex ``i``
    (ids are sorted ascending, so relative order is preserved).
    """
    vertices = np.asarray(vertices)
    if vertices.dtype == bool:
        if len(vertices) != graph.num_vertices:
            raise GraphError("boolean mask must cover every vertex")
        keep = vertices
    else:
        keep = np.zeros(graph.num_vertices, dtype=bool)
        ids_in = vertices.astype(np.int64)
        if len(ids_in) and (
            ids_in.min() < 0 or ids_in.max() >= graph.num_vertices
        ):
            raise GraphError("subgraph vertex id out of range")
        keep[ids_in] = True
    ids = np.flatnonzero(keep).astype(np.int64)
    remap = np.full(graph.num_vertices, -1, dtype=np.int64)
    remap[ids] = np.arange(len(ids), dtype=np.int64)
    src = np.repeat(np.arange(graph.num_vertices, dtype=np.int64), graph.degrees)
    sel = keep[src] & keep[graph.indices]
    sub = from_arcs(
        remap[src[sel]],
        remap[graph.indices[sel]],
        len(ids),
        undirected=graph.undirected,
        name=graph.name,
    )
    return sub, ids
