"""Property suite for :mod:`repro.graph.partition` (docs/distributed.md).

The partitioners feed the distributed algorithms' cost accounting and
halo exchange, so their structural invariants are load-bearing:

* **Exact cover** — every vertex is owned by exactly one device.
* **Consistent ghosts** — every ghost id on device d is a remote
  vertex that some owned vertex of d points at, and the local-id maps
  are consistent inverses of the global-id lists.
* **Lossless reassembly** — mapping every device's local CSR back to
  global ids and rebuilding reproduces the input graph byte for byte.
* **Determinism** — partitioning is a pure function of (graph, k,
  method): repeated calls produce byte-identical owner vectors and
  per-device structures.
* **Boundary correctness** — a local vertex is flagged boundary iff it
  has at least one remote neighbor.
* **Lean path agreement** — the owner map and boundary flags the
  distributed colorings consume (:func:`partition_owner`,
  :func:`boundary_flags`) equal the materialized partition's.

Each property is quantified over hypothesis-generated graphs, both
methods, and a sweep of device counts.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphError
from repro.graph.csr import CSRGraph
from repro.graph.partition import (
    PARTITION_METHODS,
    block_partition,
    boundary_flags,
    edge_cut_partition,
    partition_graph,
    partition_owner,
)

from _strategies import graphs

#: Hypothesis draw for the partition tests: a graph and a device count
#: no larger than the vertex count (partition_graph's contract).
@st.composite
def graph_and_k(draw, max_vertices: int = 24, max_edges: int = 80):
    g = draw(graphs(max_vertices=max_vertices, max_edges=max_edges))
    k = draw(st.integers(min_value=1, max_value=g.num_vertices))
    return g, k


@pytest.mark.parametrize("method", PARTITION_METHODS)
@settings(max_examples=60, deadline=None)
@given(gk=graph_and_k())
def test_every_vertex_owned_exactly_once(method, gk):
    graph, k = gk
    part = partition_graph(graph, k, method=method)
    assert part.owner.shape == (graph.num_vertices,)
    assert part.owner.min() >= 0 and part.owner.max() < k if graph.num_vertices else True
    seen = np.concatenate(
        [p.local_ids for p in part.parts]
        or [np.empty(0, dtype=np.int64)]
    )
    assert np.array_equal(np.sort(seen), np.arange(graph.num_vertices))
    for p in part.parts:
        assert np.array_equal(part.owner[p.local_ids], np.full(p.num_local, p.device))


@pytest.mark.parametrize("method", PARTITION_METHODS)
@settings(max_examples=60, deadline=None)
@given(gk=graph_and_k())
def test_ghost_maps_are_consistent_inverses(method, gk):
    graph, k = gk
    part = partition_graph(graph, k, method=method)
    for p in part.parts:
        # Ghosts are remote, sorted, and unique.
        assert np.all(part.owner[p.ghost_ids] != p.device)
        assert np.array_equal(p.ghost_ids, np.unique(p.ghost_ids))
        # to_local is the exact inverse of global_ids on its support.
        to_local = p.to_local(graph.num_vertices)
        gids = p.global_ids
        assert np.array_equal(gids[to_local[gids]], gids)
        absent = np.setdiff1d(np.arange(graph.num_vertices), gids)
        assert np.all(to_local[absent] == -1)
        # Every ghost is actually referenced by an owned vertex's arc.
        if p.num_ghost:
            starts = graph.offsets[p.local_ids]
            ends = graph.offsets[p.local_ids + 1]
            targets = np.concatenate(
                [graph.indices[s:e] for s, e in zip(starts, ends)]
            )
            referenced = np.unique(targets[part.owner[targets] != p.device])
            assert np.array_equal(p.ghost_ids, referenced)


@pytest.mark.parametrize("method", PARTITION_METHODS)
@settings(max_examples=60, deadline=None)
@given(gk=graph_and_k())
def test_reassembled_graph_is_byte_identical(method, gk):
    graph, k = gk
    part = partition_graph(graph, k, method=method)
    rebuilt = part.reassemble()
    assert rebuilt.num_vertices == graph.num_vertices
    assert rebuilt.offsets.tobytes() == graph.offsets.tobytes()
    assert rebuilt.indices.tobytes() == graph.indices.tobytes()


@pytest.mark.parametrize("method", PARTITION_METHODS)
@settings(max_examples=40, deadline=None)
@given(gk=graph_and_k())
def test_partition_is_deterministic(method, gk):
    graph, k = gk
    a = partition_graph(graph, k, method=method)
    b = partition_graph(graph, k, method=method)
    assert a.owner.tobytes() == b.owner.tobytes()
    for pa, pb in zip(a.parts, b.parts):
        assert pa.local_ids.tobytes() == pb.local_ids.tobytes()
        assert pa.ghost_ids.tobytes() == pb.ghost_ids.tobytes()
        assert pa.boundary.tobytes() == pb.boundary.tobytes()
        assert pa.local_graph.offsets.tobytes() == pb.local_graph.offsets.tobytes()
        assert pa.local_graph.indices.tobytes() == pb.local_graph.indices.tobytes()


@pytest.mark.parametrize("method", PARTITION_METHODS)
@settings(max_examples=40, deadline=None)
@given(gk=graph_and_k())
def test_boundary_flags_exactly_cut_sources(method, gk):
    graph, k = gk
    part = partition_graph(graph, k, method=method)
    cut = 0
    for p in part.parts:
        to_local = p.to_local(graph.num_vertices)
        for li, gid in enumerate(p.local_ids):
            nbrs = graph.indices[graph.offsets[gid] : graph.offsets[gid + 1]]
            remote = part.owner[nbrs] != p.device
            assert bool(p.boundary[li]) == bool(remote.any())
            cut += int(remote.sum())
    assert part.cut_arcs == cut


@settings(max_examples=80, deadline=None)
@given(
    g=graphs(max_vertices=24, max_edges=60),
    isolated=st.integers(min_value=0, max_value=4),
    data=st.data(),
)
def test_boundary_flags_match_per_arc_definition(g, isolated, data):
    """Any owner map — not only a partitioner's — on graphs with
    trailing isolated vertices, one device included."""
    n = g.num_vertices + isolated
    graph = CSRGraph(
        np.concatenate([g.offsets, np.full(isolated, g.num_arcs, dtype=np.int64)]),
        g.indices,
    )
    k = data.draw(st.integers(min_value=1, max_value=n), label="k")
    owner = np.asarray(
        data.draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n)),
        dtype=np.int64,
    )
    want = [
        any(owner[u] != owner[v] for u in graph.neighbors(v)) for v in range(n)
    ]
    flags = boundary_flags(graph, owner)
    assert flags.dtype == np.bool_
    assert flags.tolist() == want
    assert not boundary_flags(graph, np.zeros(n, dtype=np.int64)).any()


@pytest.mark.parametrize("method", PARTITION_METHODS)
@settings(max_examples=60, deadline=None)
@given(gk=graph_and_k())
def test_owner_and_boundary_flags_match_materialized_partition(method, gk):
    graph, k = gk
    part = partition_graph(graph, k, method=method)
    owner = partition_owner(graph, k, method=method)
    assert owner.dtype == np.int64
    assert owner.tobytes() == part.owner.tobytes()
    flags = boundary_flags(graph, owner)
    assert flags.shape == (graph.num_vertices,)
    expected = np.zeros(graph.num_vertices, dtype=bool)
    for p in part.parts:
        expected[p.local_ids[p.boundary]] = True
    assert np.array_equal(flags, expected)


@settings(max_examples=30, deadline=None)
@given(gk=graph_and_k())
def test_block_partition_is_contiguous(gk):
    graph, k = gk
    part = partition_graph(graph, k, method="block")
    assert np.all(np.diff(part.owner) >= 0)
    owner2 = block_partition(graph, k)
    assert owner2.tobytes() == part.owner.tobytes()


@settings(max_examples=30, deadline=None)
@given(gk=graph_and_k())
def test_edge_cut_respects_capacity(gk):
    graph, k = gk
    owner = edge_cut_partition(graph, k)
    counts = np.bincount(owner, minlength=k)
    capacity = -(-graph.num_vertices // k)  # ceil(n / k)
    assert counts.max(initial=0) <= capacity


@settings(max_examples=30, deadline=None)
@given(g=graphs())
def test_single_device_partition_is_trivial(g):
    part = partition_graph(g, 1)
    assert np.all(part.owner == 0)
    (p,) = part.parts
    assert p.num_ghost == 0
    assert not p.boundary.any()
    assert part.cut_arcs == 0
    assert p.local_graph.indices.tobytes() == g.indices.tobytes()


def test_invalid_device_counts_raise(petersen):
    for k in (0, -1):
        with pytest.raises(GraphError):
            partition_graph(petersen, k)
    with pytest.raises(GraphError):
        partition_graph(petersen, 2, method="metis")  # unknown method
    with pytest.raises(GraphError):
        partition_owner(petersen, 2, method="metis")
    with pytest.raises(GraphError):
        partition_owner(petersen, 0)
