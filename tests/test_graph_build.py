"""Tests for edge-list → CSR construction and the paper's preprocessing
pipeline (symmetrize, de-duplicate, drop self-loops)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphError
from repro.graph.build import from_adjacency, from_arcs, from_edges, from_scipy

from _strategies import edge_lists


class TestFromEdges:
    def test_basic(self):
        g = from_edges([[0, 1], [1, 2]])
        assert g.num_vertices == 3
        assert g.num_edges == 2

    def test_symmetrizes(self):
        g = from_edges([[0, 1]])
        assert g.has_arc(0, 1)
        assert g.has_arc(1, 0)

    def test_removes_self_loops(self):
        g = from_edges([[0, 0], [0, 1], [1, 1]])
        assert g.num_edges == 1

    def test_removes_duplicates(self):
        g = from_edges([[0, 1], [1, 0], [0, 1], [0, 1]])
        assert g.num_edges == 1

    def test_isolated_trailing_vertices(self):
        g = from_edges([[0, 1]], num_vertices=5)
        assert g.num_vertices == 5
        assert g.degree(4) == 0

    def test_empty_edge_list(self):
        g = from_edges([], num_vertices=3)
        assert g.num_vertices == 3
        assert g.num_edges == 0

    def test_empty_no_vertices(self):
        g = from_edges([])
        assert g.num_vertices == 0

    def test_bad_shape(self):
        with pytest.raises(GraphError, match="\\(m, 2\\)"):
            from_edges(np.array([[0, 1, 2]]))

    def test_name_propagates(self):
        g = from_edges([[0, 1]], name="mine")
        assert g.name == "mine"


class TestFromArcs:
    def test_directed(self):
        g = from_arcs(
            np.array([0, 1]), np.array([1, 2]), 3, undirected=False
        )
        assert g.has_arc(0, 1)
        assert not g.has_arc(1, 0)

    def test_negative_vertex_rejected(self):
        with pytest.raises(GraphError, match="vertex ids"):
            from_arcs(np.array([-1]), np.array([0]), 2, undirected=False)

    def test_too_large_vertex_rejected(self):
        with pytest.raises(GraphError, match="vertex ids"):
            from_arcs(np.array([0]), np.array([7]), 2, undirected=False)

    def test_negative_num_vertices(self):
        with pytest.raises(GraphError):
            from_arcs(np.array([]), np.array([]), -1, undirected=True)

    def test_mismatched_lengths(self):
        with pytest.raises(GraphError, match="equal length"):
            from_arcs(np.array([0]), np.array([1, 2]), 3, undirected=False)


def _from_arcs_stable_argsort(src, dst, n):
    """The stable-argsort canonicalization ``from_arcs`` replaced:
    (offsets, indices) of the sorted, deduplicated non-loop arcs."""
    keep = src != dst
    src, dst = src[keep], dst[keep]
    key = src * n + dst
    order = np.argsort(key, kind="stable")
    key = key[order]
    uniq = np.ones(len(key), dtype=bool)
    uniq[1:] = key[1:] != key[:-1]
    src, dst = src[order][uniq], dst[order][uniq]
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=offsets[1:])
    return offsets, dst


@given(st.data(), st.integers(1, 30), st.integers(0, 120))
@settings(max_examples=100, deadline=None)
def test_from_arcs_matches_stable_argsort(data, n, m):
    ids = st.lists(st.integers(0, n - 1), min_size=m, max_size=m)
    src = np.asarray(data.draw(ids), dtype=np.int64)
    dst = np.asarray(data.draw(ids), dtype=np.int64)
    g = from_arcs(src, dst, n, undirected=False)
    offsets, indices = _from_arcs_stable_argsort(src, dst, n)
    assert g.offsets.dtype == g.indices.dtype == np.int64
    np.testing.assert_array_equal(g.offsets, offsets)
    np.testing.assert_array_equal(g.indices, indices)


class TestFromAdjacency:
    def test_dense_symmetric(self):
        adj = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]])
        g = from_adjacency(adj)
        assert g.num_edges == 2

    def test_asymmetric_entry_creates_edge(self):
        adj = np.zeros((3, 3))
        adj[0, 2] = 1  # only upper triangle
        g = from_adjacency(adj)
        assert g.has_arc(2, 0)

    def test_diagonal_ignored(self):
        g = from_adjacency(np.eye(3))
        assert g.num_edges == 0

    def test_non_square_rejected(self):
        with pytest.raises(GraphError, match="square"):
            from_adjacency(np.zeros((2, 3)))


class TestFromScipy:
    def test_round_trip(self, petersen):
        assert from_scipy(petersen.to_scipy()) == petersen

    def test_values_discarded(self):
        from scipy import sparse

        mat = sparse.csr_matrix(np.array([[0, 5.0], [5.0, 0]]))
        g = from_scipy(mat)
        assert g.num_edges == 1

    def test_non_square_rejected(self):
        from scipy import sparse

        with pytest.raises(GraphError, match="square"):
            from_scipy(sparse.csr_matrix(np.ones((2, 3))))


@given(edge_lists())
@settings(max_examples=60, deadline=None)
def test_from_edges_matches_set_semantics(data):
    n, edges = data
    g = from_edges(edges, num_vertices=n)
    expected = set()
    for u, v in edges:
        if u != v:
            expected.add((min(u, v), max(u, v)))
    got = {tuple(e) for e in g.edge_list().tolist()}
    assert got == expected
    assert g.num_vertices == n
