"""Deterministic graph partitioners for the multi-device cost model.

The distributed colorings (``repro.core.dist``) consume only two
vectors: the vertex → device owner map (:func:`partition_owner`) and
a per-vertex boundary flag (:func:`boundary_flags`).
:func:`partition_graph` materializes the full reference layout on top
of them — per device, one :class:`DevicePartition`: the vertices it
*owns*, a local CSR over a compact ``[owned | ghost]`` index space,
and the ghost maps needed to mirror boundary colors after every halo
exchange — the partitioned-CSR layout of Bogle & Slota's distributed
coloring work.

Two partitioners are provided, both pure functions of the graph and
the device count (no RNG anywhere, so a partition is byte-stable
across runs, seeds, and host machines):

``block``
    1D contiguous block partition: device ``d`` owns global vertices
    ``[d*n//k, (d+1)*n//k)``.  Matches the natural ordering of the
    generator graphs (RGG neighbors are id-close, so block cuts few
    edges there).

``edge_cut``
    Greedy linear deterministic partitioning (LDG-style): vertices are
    placed in (degree-descending, id-ascending) order onto the part
    with the most already-placed neighbors, scaled by remaining
    capacity; ties break to the lowest part id.

Invariants (locked down by ``tests/test_partition_properties.py``):
every vertex is owned by exactly one device; ghost ids are exactly the
remote endpoints of cut arcs; local-to-global maps are consistent
inverses; and :meth:`GraphPartition.reassemble` rebuilds the input CSR
byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..errors import GraphError
from .build import from_arcs
from .csr import CSRGraph

__all__ = [
    "DevicePartition",
    "GraphPartition",
    "block_partition",
    "boundary_flags",
    "edge_cut_partition",
    "partition_graph",
    "partition_owner",
    "PARTITION_METHODS",
]

#: Partitioner names accepted by :func:`partition_graph`.
PARTITION_METHODS = ("block", "edge_cut")


@dataclass(frozen=True)
class DevicePartition:
    """One device's share of a partitioned graph.

    The local index space is compact: slots ``[0, num_local)`` are the
    owned vertices (``local_ids``, ascending global ids) and slots
    ``[num_local, num_local + num_ghost)`` are the ghosts
    (``ghost_ids``, ascending).  ``local_graph`` is a CSR over that
    space whose rows are populated for owned vertices only — ghost
    rows are empty, mirroring a real partitioned CSR where remote
    adjacency is never stored.
    """

    device: int
    local_ids: np.ndarray  # int64[num_local], ascending global ids
    ghost_ids: np.ndarray  # int64[num_ghost], ascending global ids
    local_graph: CSRGraph  # rows over the [owned | ghost] space
    boundary: np.ndarray  # bool[num_local]: owns a cut arc

    @property
    def num_local(self) -> int:
        """Number of vertices this device owns."""
        return len(self.local_ids)

    @property
    def num_ghost(self) -> int:
        """Number of ghost (remote-neighbor) vertices mirrored here."""
        return len(self.ghost_ids)

    @property
    def global_ids(self) -> np.ndarray:
        """Compact-slot → global-id map (owned then ghost)."""
        return np.concatenate([self.local_ids, self.ghost_ids])

    def to_local(self, num_vertices: int) -> np.ndarray:
        """Global-id → compact-slot map (``-1`` for absent vertices)."""
        out = np.full(num_vertices, -1, dtype=np.int64)
        out[self.local_ids] = np.arange(self.num_local, dtype=np.int64)
        out[self.ghost_ids] = self.num_local + np.arange(
            self.num_ghost, dtype=np.int64
        )
        return out


@dataclass(frozen=True)
class GraphPartition:
    """A full k-way partition: per-device parts plus the owner map."""

    graph: CSRGraph
    method: str
    owner: np.ndarray  # int64[n]: owning device per global vertex
    parts: Tuple[DevicePartition, ...]

    @property
    def num_devices(self) -> int:
        """Number of parts (devices)."""
        return len(self.parts)

    @property
    def cut_arcs(self) -> int:
        """Arcs whose endpoints live on different devices (each
        direction of an undirected edge counted separately)."""
        src, dst = self.graph.arcs()
        return int(np.count_nonzero(self.owner[src] != self.owner[dst]))

    def reassemble(self) -> CSRGraph:
        """Rebuild the global CSR from the per-device local graphs.

        The property suite asserts the result equals the input graph
        byte for byte — the partition loses nothing.
        """
        srcs, dsts = [], []
        for part in self.parts:
            g = part.local_graph
            ids = part.global_ids
            loc_src = np.repeat(
                np.arange(g.num_vertices, dtype=np.int64), g.degrees
            )
            srcs.append(ids[loc_src])
            dsts.append(ids[g.indices])
        src = np.concatenate(srcs) if srcs else np.zeros(0, dtype=np.int64)
        dst = np.concatenate(dsts) if dsts else np.zeros(0, dtype=np.int64)
        return from_arcs(
            src,
            dst,
            self.graph.num_vertices,
            undirected=self.graph.undirected,
            name=self.graph.name,
        )


def block_partition(graph: CSRGraph, num_devices: int) -> np.ndarray:
    """1D contiguous block owner map: device ``d`` owns global ids
    ``[d*n//k, (d+1)*n//k)``."""
    _check_k(num_devices)
    n = graph.num_vertices
    bounds = np.array(
        [d * n // num_devices for d in range(num_devices + 1)], dtype=np.int64
    )
    owner = np.repeat(
        np.arange(num_devices, dtype=np.int64), np.diff(bounds)
    )
    return owner


def edge_cut_partition(graph: CSRGraph, num_devices: int) -> np.ndarray:
    """Greedy deterministic (LDG-style) owner map minimizing cut arcs.

    Vertices are placed in (degree-descending, id-ascending) order;
    each goes to the part with the most already-placed neighbors,
    weighted by remaining capacity ``1 - size/capacity``; ties break
    to the lowest part id.  Pure function of the graph — no RNG.
    """
    _check_k(num_devices)
    n = graph.num_vertices
    owner = np.full(n, -1, dtype=np.int64)
    sizes = np.zeros(num_devices, dtype=np.int64)
    capacity = max(1.0, np.ceil(n / num_devices))
    # Stable sort on -degree keeps the id-ascending tiebreak.
    order = np.argsort(-graph.degrees, kind="stable")
    offsets, indices = graph.offsets, graph.indices
    for v in order:
        nbrs = indices[offsets[v] : offsets[v + 1]]
        placed = owner[nbrs]
        placed = placed[placed >= 0]
        affinity = np.bincount(placed, minlength=num_devices).astype(np.float64)
        score = affinity * (1.0 - sizes / capacity)
        # Full parts are ineligible unless every part is full.
        open_parts = sizes < capacity
        if open_parts.any():
            score[~open_parts] = -np.inf
        d = int(np.argmax(score))  # argmax takes the lowest index on ties
        owner[v] = d
        sizes[d] += 1
    return owner


def partition_owner(
    graph: CSRGraph, num_devices: int, *, method: str = "block"
) -> np.ndarray:
    """Owner map ``int64[n]`` (owning device per global vertex) of the
    ``method`` partitioner — all the distributed colorings need besides
    :func:`boundary_flags`."""
    if method not in PARTITION_METHODS:
        raise GraphError(
            f"unknown partition method {method!r}; "
            f"expected one of {PARTITION_METHODS}"
        )
    if method == "block":
        return block_partition(graph, num_devices)
    return edge_cut_partition(graph, num_devices)


def boundary_flags(graph: CSRGraph, owner: np.ndarray) -> np.ndarray:
    """``bool[n]``: the vertex is the source of at least one cut arc
    (an arc to a vertex on another device)."""
    cut = np.repeat(owner, graph.degrees) != owner[graph.indices]
    # A row has a cut arc iff the running cut count grows across it.
    seen = np.concatenate([[0], np.cumsum(cut, dtype=np.int64)])
    offsets = graph.offsets
    return seen[offsets[1:]] > seen[offsets[:-1]]


def partition_graph(
    graph: CSRGraph, num_devices: int, *, method: str = "block"
) -> GraphPartition:
    """Partition ``graph`` across ``num_devices`` simulated devices.

    Returns a :class:`GraphPartition` with one :class:`DevicePartition`
    per device — the materialized partitioned-CSR layout, built on
    :func:`partition_owner` and :func:`boundary_flags`.  Deterministic:
    equal inputs yield byte-equal owner maps, local CSRs, and ghost
    tables.
    """
    owner = partition_owner(graph, num_devices, method=method)
    flags = boundary_flags(graph, owner)
    n = graph.num_vertices
    src, dst = graph.arcs()
    parts = []
    for d in range(num_devices):
        local_ids = np.flatnonzero(owner == d)
        mine = owner[src] == d
        s, t = src[mine], dst[mine]
        remote = owner[t] != d
        ghost_ids = np.unique(t[remote])
        to_local = np.full(n, -1, dtype=np.int64)
        to_local[local_ids] = np.arange(len(local_ids), dtype=np.int64)
        to_local[ghost_ids] = len(local_ids) + np.arange(
            len(ghost_ids), dtype=np.int64
        )
        local_graph = from_arcs(
            to_local[s],
            to_local[t],
            len(local_ids) + len(ghost_ids),
            undirected=False,
            name=f"{graph.name or 'graph'}@{d}/{num_devices}",
        )
        parts.append(
            DevicePartition(
                device=d,
                local_ids=local_ids,
                ghost_ids=ghost_ids,
                local_graph=local_graph,
                boundary=flags[local_ids],
            )
        )
    return GraphPartition(
        graph=graph, method=method, owner=owner, parts=tuple(parts)
    )


def _check_k(num_devices: int) -> None:
    if num_devices < 1:
        raise GraphError(f"num_devices must be >= 1, got {num_devices}")
