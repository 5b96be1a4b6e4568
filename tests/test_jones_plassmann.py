"""Tests for the reference Jones–Plassmann coloring and its vectorized
minimum-excludant helper."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ColoringError
from repro.core.jones_plassmann import _min_available, jones_plassmann_coloring
from repro.core.validate import is_valid_coloring
from repro.graph.build import complete_graph, cycle_graph, from_edges, star_graph

from _strategies import graphs


class TestMinAvailable:
    def test_empty_winners(self, triangle):
        out = _min_available(triangle, np.zeros(3, dtype=np.int64), np.array([], dtype=np.int64))
        assert out.tolist() == []

    def test_no_colored_neighbors(self, triangle):
        colors = np.zeros(3, dtype=np.int64)
        out = _min_available(triangle, colors, np.array([0]))
        assert out.tolist() == [1]

    def test_prefix_used(self):
        g = star_graph(3)
        colors = np.array([0, 1, 2, 3])  # hub uncolored, leaves 1,2,3
        out = _min_available(g, colors, np.array([0]))
        assert out.tolist() == [4]

    def test_gap_found(self):
        g = star_graph(3)
        colors = np.array([0, 1, 3, 4])
        out = _min_available(g, colors, np.array([0]))
        assert out.tolist() == [2]

    def test_duplicates_collapse(self):
        g = star_graph(4)
        colors = np.array([0, 1, 1, 1, 2])
        out = _min_available(g, colors, np.array([0]))
        assert out.tolist() == [3]

    @given(
        st.lists(
            st.integers(min_value=0, max_value=6), min_size=1, max_size=8
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_naive_mex(self, leaf_colors):
        g = star_graph(len(leaf_colors))
        colors = np.array([0] + leaf_colors, dtype=np.int64)
        out = _min_available(g, colors, np.array([0]))
        used = {c for c in leaf_colors if c > 0}
        mex = 1
        while mex in used:
            mex += 1
        assert out.tolist() == [mex]


class TestJonesPlassmann:
    def test_cycle(self):
        g = cycle_graph(9)
        result = jones_plassmann_coloring(g, rng=0)
        assert is_valid_coloring(g, result.colors)
        assert result.num_colors <= 3

    def test_complete(self):
        result = jones_plassmann_coloring(complete_graph(5), rng=0)
        assert result.num_colors == 5

    def test_degree_priorities_largest_first(self):
        """Largest-degree-first variant (§VI future work)."""
        g = star_graph(6)
        result = jones_plassmann_coloring(g, priorities=g.degrees)
        assert is_valid_coloring(g, result.colors)
        assert result.colors[0] == 1  # hub wins round one
        assert result.num_colors == 2

    def test_bad_priorities_length(self, triangle):
        with pytest.raises(ColoringError):
            jones_plassmann_coloring(triangle, priorities=np.array([1]))

    def test_overflowing_priorities_rejected(self):
        """``2**62 * (n + 1)`` wraps int64 on a 3-vertex path: the strict
        key construction must refuse it instead of wrapping."""
        g = from_edges([(0, 1), (1, 2)], 3)
        prio = np.array([2**62, 2**62, 1], dtype=np.int64)
        with pytest.raises(ColoringError, match="overflow"):
            jones_plassmann_coloring(g, priorities=prio)
        with pytest.raises(ColoringError, match="overflow"):
            jones_plassmann_coloring(g, priorities=-prio)

    def test_largest_safe_priority_accepted(self):
        g = from_edges([(0, 1), (1, 2)], 3)
        top = (2**63 - 1 - 3) // 4  # max_weight * (n + 1) + n <= 2**63 - 1
        result = jones_plassmann_coloring(
            g, priorities=np.array([top, 0, top - 1], dtype=np.int64)
        )
        assert is_valid_coloring(g, result.colors)
        assert result.colors.tolist() == [1, 2, 1]

    def test_deterministic(self, petersen):
        a = jones_plassmann_coloring(petersen, rng=4)
        b = jones_plassmann_coloring(petersen, rng=4)
        assert a.colors.tolist() == b.colors.tolist()

    @given(graphs())
    @settings(max_examples=50, deadline=None)
    def test_valid_and_bounded_property(self, g):
        if g.num_vertices == 0:
            return
        result = jones_plassmann_coloring(g, rng=2)
        assert is_valid_coloring(g, result.colors)
        assert result.num_colors <= g.max_degree + 1

    @given(graphs(max_vertices=16))
    @settings(max_examples=30, deadline=None)
    def test_ldf_variant_valid(self, g):
        if g.num_vertices == 0:
            return
        result = jones_plassmann_coloring(g, priorities=g.degrees)
        assert is_valid_coloring(g, result.colors)
