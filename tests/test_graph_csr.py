"""Unit tests for the CSRGraph container and its invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._rng import ensure_rng
from repro.errors import GraphError
from repro.graph.build import (
    complete_graph,
    cycle_graph,
    empty_graph,
    from_edges,
    path_graph,
    star_graph,
)
from repro.graph.csr import CSRGraph, arc_positions

from _strategies import graphs


class TestConstruction:
    def test_valid_triangle(self):
        g = CSRGraph(
            np.array([0, 2, 4, 6]),
            np.array([1, 2, 0, 2, 0, 1]),
            undirected=True,
        )
        assert g.num_vertices == 3
        assert g.num_edges == 3
        assert g.num_arcs == 6

    def test_empty(self):
        g = empty_graph(4)
        assert g.num_vertices == 4
        assert g.num_edges == 0
        assert g.max_degree == 0
        assert g.avg_degree == 0.0

    def test_zero_vertices(self):
        g = empty_graph(0)
        assert g.num_vertices == 0
        assert len(g) == 0

    def test_bad_offsets_start(self):
        with pytest.raises(GraphError, match="offsets\\[0\\]"):
            CSRGraph(np.array([1, 2]), np.array([0, 1]))

    def test_bad_offsets_end(self):
        with pytest.raises(GraphError, match="must equal len"):
            CSRGraph(np.array([0, 1]), np.array([0, 1]))

    def test_decreasing_offsets(self):
        with pytest.raises(GraphError, match="non-decreasing"):
            CSRGraph(np.array([0, 2, 1, 2]), np.array([1, 2]))

    def test_out_of_range_index(self):
        with pytest.raises(GraphError, match="out of range"):
            CSRGraph(np.array([0, 1, 2]), np.array([0, 5]), undirected=False)

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError, match="self-loop"):
            CSRGraph(np.array([0, 1, 2]), np.array([0, 0]), undirected=False)

    def test_unsorted_row_rejected(self):
        with pytest.raises(GraphError, match="sorted"):
            CSRGraph(
                np.array([0, 2, 3, 4]),
                np.array([2, 1, 0, 0]),
                undirected=False,
            )

    def test_duplicate_in_row_rejected(self):
        with pytest.raises(GraphError, match="duplicate-free|sorted"):
            CSRGraph(
                np.array([0, 2, 2, 2]),
                np.array([1, 1]),
                undirected=False,
            )

    def test_asymmetric_rejected_when_undirected(self):
        with pytest.raises(GraphError, match="asymmetric"):
            CSRGraph(np.array([0, 1, 1]), np.array([1]), undirected=True)

    def test_directed_asymmetric_accepted(self):
        g = CSRGraph(np.array([0, 1, 1]), np.array([1]), undirected=False)
        assert g.num_edges == 1

    def test_arrays_read_only(self, triangle):
        with pytest.raises(ValueError):
            triangle.offsets[0] = 5
        with pytest.raises(ValueError):
            triangle.indices[0] = 2
        with pytest.raises(ValueError):
            triangle.degrees[0] = 9


class TestAccessors:
    def test_neighbors_sorted(self, petersen):
        for v in petersen:
            nbrs = petersen.neighbors(v)
            assert list(nbrs) == sorted(nbrs)

    def test_neighbors_out_of_range(self, triangle):
        with pytest.raises(GraphError):
            triangle.neighbors(3)
        with pytest.raises(GraphError):
            triangle.neighbors(-1)

    def test_degree(self, petersen):
        assert all(petersen.degree(v) == 3 for v in petersen)
        assert petersen.max_degree == 3
        assert petersen.avg_degree == pytest.approx(3.0)

    def test_has_arc(self, triangle):
        assert triangle.has_arc(0, 1)
        assert triangle.has_arc(1, 0)
        assert not triangle.has_arc(0, 0)

    def test_has_arc_absent(self):
        g = path_graph(4)
        assert not g.has_arc(0, 3)

    def test_arcs_roundtrip(self, petersen):
        src, dst = petersen.arcs()
        assert len(src) == petersen.num_arcs
        rebuilt = from_edges(np.column_stack([src, dst]), num_vertices=10)
        assert rebuilt == petersen

    def test_edge_list_unique(self, petersen):
        edges = petersen.edge_list()
        assert len(edges) == 15
        assert (edges[:, 0] < edges[:, 1]).all()

    def test_iter_and_len(self, triangle):
        assert list(triangle) == [0, 1, 2]
        assert len(triangle) == 3


class TestConversion:
    def test_to_scipy(self, petersen):
        mat = petersen.to_scipy()
        assert mat.shape == (10, 10)
        assert mat.nnz == 30
        assert (mat != mat.T).nnz == 0  # symmetric

    def test_reverse_undirected_is_same(self, petersen):
        assert petersen.reverse() == petersen

    def test_reverse_directed(self):
        g = CSRGraph(np.array([0, 1, 1]), np.array([1]), undirected=False)
        r = g.reverse()
        assert r.has_arc(1, 0)
        assert not r.has_arc(0, 1)


class TestEquality:
    def test_eq_and_hash(self, triangle):
        other = from_edges([[0, 1], [1, 2], [0, 2]])
        assert triangle == other
        assert hash(triangle) == hash(other)

    def test_neq(self, triangle):
        assert triangle != path_graph(3)
        assert triangle != "not a graph"

    def test_repr(self, petersen):
        text = repr(petersen)
        assert "petersen" in text
        assert "n=10" in text


class TestCanonicalGraphs:
    def test_complete(self):
        g = complete_graph(5)
        assert g.num_edges == 10
        assert g.max_degree == 4

    def test_complete_tiny(self):
        assert complete_graph(1).num_edges == 0
        assert complete_graph(0).num_vertices == 0

    def test_path(self):
        g = path_graph(5)
        assert g.num_edges == 4
        assert g.degree(0) == 1
        assert g.degree(2) == 2

    def test_cycle(self):
        g = cycle_graph(6)
        assert g.num_edges == 6
        assert all(g.degree(v) == 2 for v in g)

    def test_cycle_too_small(self):
        with pytest.raises(GraphError):
            cycle_graph(2)

    def test_star(self):
        g = star_graph(7)
        assert g.num_vertices == 8
        assert g.degree(0) == 7
        assert all(g.degree(v) == 1 for v in range(1, 8))

    def test_star_empty(self):
        assert star_graph(0).num_vertices == 1


@given(graphs())
@settings(max_examples=50, deadline=None)
def test_csr_invariants_hold_for_arbitrary_graphs(g):
    # Offsets monotone and consistent.
    assert g.offsets[0] == 0
    assert g.offsets[-1] == g.num_arcs
    assert (np.diff(g.offsets) >= 0).all()
    # Symmetry.
    src, dst = g.arcs()
    fwd = set(zip(src.tolist(), dst.tolist()))
    assert all((v, u) in fwd for u, v in fwd)
    # No self loops, rows sorted unique.
    assert not (src == dst).any()
    for v in g:
        row = g.neighbors(v)
        assert list(row) == sorted(set(row.tolist()))


class TestArcPositions:
    @given(g=graphs(), seed=st.integers(0, 2**31))
    @settings(max_examples=60, deadline=None)
    def test_matches_per_row_ranges(self, g, seed):
        # Any id sequence: unsorted, repeated, or empty.
        rng = ensure_rng(seed)
        ids = rng.integers(0, g.num_vertices, rng.integers(0, 12))
        degs = g.offsets[ids + 1] - g.offsets[ids]
        want = [np.arange(g.offsets[v], g.offsets[v + 1]) for v in ids]
        got = arc_positions(g.offsets, ids, degs)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(
            got, np.concatenate(want) if want else np.empty(0, dtype=np.int64)
        )
