"""Tests for balanced-coloring post-processing."""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.balance import rebalance_coloring
from repro.core.metrics import coloring_metrics
from repro.core.registry import run_algorithm
from repro.core.result import ColoringResult
from repro.core.validate import is_valid_coloring
from repro.errors import ColoringError
from repro.graph.build import path_graph, star_graph
from repro.graph.generators import erdos_renyi, grid2d

from _strategies import graphs


class TestRebalance:
    def test_path_skew_fixed(self):
        """A 2-coloring of a path that's artificially 1-heavy can't be
        improved (alternation is forced) — but a 3-coloring can."""
        g = path_graph(12)
        skew = ColoringResult(
            colors=np.array([1, 2, 1, 3, 1, 2, 1, 3, 1, 2, 1, 3])
        )
        balanced = rebalance_coloring(g, skew)
        assert is_valid_coloring(g, balanced.colors)
        m0 = coloring_metrics(skew)
        m1 = coloring_metrics(balanced)
        assert m1.imbalance <= m0.imbalance
        assert m1.num_colors <= m0.num_colors

    def test_star_cannot_move_hub(self):
        g = star_graph(6)
        r = run_algorithm("cpu.greedy", g, rng=1)
        balanced = rebalance_coloring(g, r)
        assert is_valid_coloring(g, balanced.colors)
        assert balanced.num_colors == 2  # chromatic; leaves stay opposite hub

    def test_never_increases_colors(self):
        g = erdos_renyi(200, m=900, rng=0)
        r = run_algorithm("naumov.cc", g, rng=1)
        balanced = rebalance_coloring(g, r)
        assert balanced.num_colors <= r.num_colors
        assert is_valid_coloring(g, balanced.colors)

    def test_improves_is_family_imbalance(self):
        """IS-family colorings have geometrically shrinking classes —
        the exact shape rebalancing targets."""
        g = grid2d(20, 20)
        r = run_algorithm("naumov.jpl", g, rng=1)
        balanced = rebalance_coloring(g, r)
        assert (
            coloring_metrics(balanced).imbalance
            <= coloring_metrics(r).imbalance
        )

    def test_single_color_noop(self):
        from repro.graph.build import empty_graph

        g = empty_graph(5)
        r = run_algorithm("cpu.greedy", g, rng=1)
        balanced = rebalance_coloring(g, r)
        assert balanced.num_colors == 1

    def test_incomplete_rejected(self, triangle):
        with pytest.raises(ColoringError):
            rebalance_coloring(triangle, ColoringResult(colors=np.array([1, 0, 2])))

    def test_invalid_input_rejected(self, triangle):
        with pytest.raises(Exception):
            rebalance_coloring(triangle, ColoringResult(colors=np.array([1, 1, 2])))

    def test_input_untouched(self):
        g = grid2d(8, 8)
        r = run_algorithm("gunrock.is", g, rng=1)
        before = r.colors.copy()
        rebalance_coloring(g, r)
        assert np.array_equal(r.colors, before)

    @given(graphs(max_vertices=20))
    @settings(max_examples=40, deadline=None)
    def test_validity_and_monotonicity_property(self, g):
        if g.num_vertices == 0:
            return
        r = run_algorithm("graphblas.mis", g, rng=5)
        balanced = rebalance_coloring(g, r)
        assert is_valid_coloring(g, balanced.colors)
        assert balanced.num_colors <= r.num_colors
        assert (
            coloring_metrics(balanced).imbalance
            <= coloring_metrics(r).imbalance + 1e-9
        )
