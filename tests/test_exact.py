"""Tests for the exact (branch-and-bound) coloring solver."""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.errors import ColoringError
from repro.core.exact import chromatic_number, exact_coloring
from repro.core.greedy import greedy_coloring
from repro.core.validate import is_valid_coloring
from repro.graph.build import (
    complete_graph,
    cycle_graph,
    empty_graph,
    from_edges,
    path_graph,
    star_graph,
)
from repro.graph.generators import grid2d

from _strategies import graphs


class TestExactColoring:
    def test_finds_valid(self, petersen):
        result = exact_coloring(petersen, 3)
        assert result is not None
        assert is_valid_coloring(petersen, result.colors)
        assert result.num_colors <= 3

    def test_infeasible_returns_none(self, petersen):
        assert exact_coloring(petersen, 2) is None

    def test_complete_graph_needs_n(self):
        g = complete_graph(5)
        assert exact_coloring(g, 4) is None
        assert exact_coloring(g, 5) is not None

    def test_empty_graph(self):
        result = exact_coloring(empty_graph(0), 0)
        assert result is not None

    def test_isolated_vertices_one_color(self):
        result = exact_coloring(empty_graph(4), 1)
        assert result is not None
        assert result.num_colors == 1

    def test_zero_budget_with_vertices(self):
        assert exact_coloring(empty_graph(2), 0) is None

    def test_negative_budget(self, triangle):
        with pytest.raises(ColoringError):
            exact_coloring(triangle, -1)

    def test_precolored_respected(self):
        g = path_graph(4)
        result = exact_coloring(g, 2, precolored={0: 2})
        assert result is not None
        assert result.colors[0] == 2
        assert is_valid_coloring(g, result.colors)

    def test_precolored_conflict_rejected(self, triangle):
        with pytest.raises(ColoringError, match="conflict"):
            exact_coloring(triangle, 3, precolored={0: 1, 1: 1})

    def test_precolored_out_of_range(self, triangle):
        with pytest.raises(ColoringError):
            exact_coloring(triangle, 3, precolored={9: 1})
        with pytest.raises(ColoringError):
            exact_coloring(triangle, 3, precolored={0: 7})

    def test_precolored_can_make_infeasible(self):
        # Odd cycle is 3-colorable, but forcing adjacent-ish pattern
        # within budget 3 on K4 minus precoloring:
        g = complete_graph(3)
        # Force two distinct colors, only 2 allowed total → third vertex
        # has no color.
        assert exact_coloring(g, 2, precolored={0: 1, 1: 2}) is None

    def test_node_budget(self, petersen):
        with pytest.raises(ColoringError, match="exceeded"):
            exact_coloring(petersen, 3, max_nodes=2)

    @given(graphs(max_vertices=12, max_edges=30))
    @settings(max_examples=30, deadline=None)
    def test_never_beats_infeasibility(self, g):
        """If exact says k is enough, the coloring is valid with ≤ k
        colors; if not, greedy can't do it either."""
        if g.num_vertices == 0:
            return
        k = max(1, greedy_coloring(g, ordering="smallest_last").num_colors - 1)
        result = exact_coloring(g, k)
        if result is not None:
            assert is_valid_coloring(g, result.colors)
            assert result.num_colors <= k


class TestChromaticNumber:
    @pytest.mark.parametrize(
        "builder,expected",
        [
            (lambda: path_graph(7), 2),
            (lambda: cycle_graph(8), 2),
            (lambda: cycle_graph(9), 3),
            (lambda: complete_graph(6), 6),
            (lambda: star_graph(5), 2),
            (lambda: grid2d(4, 5), 2),
            (lambda: empty_graph(3), 1),
            (lambda: empty_graph(0), 0),
        ],
    )
    def test_known_chromatic_numbers(self, builder, expected):
        assert chromatic_number(builder()) == expected

    def test_petersen(self, petersen):
        assert chromatic_number(petersen) == 3

    def test_wheel_graphs(self):
        # Odd wheel W5 (5-cycle + hub) needs 4; even wheel W6 needs 3.
        def wheel(k):
            rim = [(i, (i + 1) % k) for i in range(k)]
            spokes = [(i, k) for i in range(k)]
            return from_edges(np.array(rim + spokes), num_vertices=k + 1)

        assert chromatic_number(wheel(5)) == 4
        assert chromatic_number(wheel(6)) == 3

    @given(graphs(max_vertices=10, max_edges=24))
    @settings(max_examples=25, deadline=None)
    def test_bounds_every_heuristic(self, g):
        """Chromatic number lower-bounds every heuristic's color count
        and is itself bounded by SL-greedy."""
        if g.num_vertices == 0:
            return
        chi = chromatic_number(g)
        sl = greedy_coloring(g, ordering="smallest_last").num_colors
        assert chi <= sl
        from repro.core.gb_coloring import graphblas_mis_coloring

        assert chi <= graphblas_mis_coloring(g, rng=1).num_colors
