"""Tests for ColoringResult and the algorithm registry."""

import numpy as np
import pytest

from repro.errors import ColoringError
from repro.core.registry import (
    ALGORITHMS,
    FIGURE1_ALGORITHMS,
    algorithm_names,
    get_algorithm,
    run_algorithm,
)
from repro.core.result import ColoringResult
from repro.core.validate import is_valid_coloring
from repro.graph.generators import grid2d


class TestColoringResult:
    def test_num_colors_distinct(self):
        r = ColoringResult(colors=np.array([3, 3, 7, 1]))
        assert r.num_colors == 3
        assert r.max_color == 7

    def test_uncolored_tracking(self):
        r = ColoringResult(colors=np.array([1, 0, 2]))
        assert r.num_uncolored == 1
        assert not r.is_complete

    def test_complete(self):
        r = ColoringResult(colors=np.array([1, 1]))
        assert r.is_complete

    def test_normalized_dense(self):
        r = ColoringResult(colors=np.array([5, 9, 5, 0]))
        norm = r.normalized()
        assert norm.tolist() == [1, 2, 1, 0]

    def test_normalized_preserves_order(self):
        r = ColoringResult(colors=np.array([10, 2, 7]))
        assert r.normalized().tolist() == [3, 1, 2]

    def test_color_class_sizes(self):
        r = ColoringResult(colors=np.array([5, 9, 5, 9, 9]))
        assert r.color_class_sizes().tolist() == [2, 3]

    def test_empty(self):
        r = ColoringResult(colors=np.array([], dtype=np.int64))
        assert r.num_colors == 0
        assert r.is_complete
        assert r.color_class_sizes().tolist() == []

    def test_summary(self):
        r = ColoringResult(
            colors=np.array([1]), algorithm="x", graph_name="g", iterations=2
        )
        text = r.summary()
        assert "x" in text and "g" in text and "1 colors" in text


class TestRegistry:
    def test_figure1_set_is_registered(self):
        for name in FIGURE1_ALGORITHMS:
            assert name in ALGORITHMS

    def test_expected_ids_present(self):
        expected = {
            "gunrock.is",
            "gunrock.hash",
            "gunrock.ar",
            "gunrock.is_single",
            "gunrock.is_atomics",
            "graphblas.is",
            "graphblas.mis",
            "graphblas.jpl",
            "naumov.jpl",
            "naumov.cc",
            "cpu.greedy",
            "cpu.greedy_natural",
            "cpu.greedy_lf",
            "cpu.greedy_sl",
            "cpu.dsatur",
            "cpu.gm",
            "reference.luby",
            "reference.jp",
        }
        assert expected <= set(algorithm_names())

    def test_unknown_raises(self):
        with pytest.raises(ColoringError, match="unknown algorithm"):
            get_algorithm("not.a.thing")

    def test_run_algorithm_uniform_signature(self):
        g = grid2d(6, 6)
        for name in algorithm_names():
            result = run_algorithm(name, g, rng=1)
            assert is_valid_coloring(g, result.colors), name
            assert isinstance(result, ColoringResult)

    def test_cpu_adapters_ignore_device(self):
        from repro.gpusim.device import DeviceSpec

        g = grid2d(4, 4)
        result = run_algorithm("cpu.greedy", g, rng=0, device=DeviceSpec())
        assert result.is_complete

    def test_kwargs_forwarded(self):
        g = grid2d(6, 6)
        result = run_algorithm("gunrock.hash", g, rng=0, hash_size=8)
        assert "h=8" in result.algorithm
