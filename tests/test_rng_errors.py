"""Tests for the RNG helpers and the exception hierarchy."""

import numpy as np
import pytest

from repro import errors
from repro._rng import DEFAULT_SEED, ensure_rng, random_weights, spawn
from repro.core import keys
from repro.core.keys import MAX_RANDOM_WEIGHT, key_ids, strict_keys, tie_break


class TestEnsureRng:
    def test_none_gives_default_seed(self):
        a = ensure_rng(None)
        b = ensure_rng(None)
        assert a.integers(0, 2**31) == b.integers(0, 2**31)

    def test_int_seed(self):
        a = ensure_rng(7)
        b = ensure_rng(7)
        assert a.random() == b.random()

    def test_generator_passthrough(self):
        gen = np.random.default_rng(1)
        assert ensure_rng(gen) is gen

    def test_seed_sequence(self):
        seq = np.random.SeedSequence(5)
        gen = ensure_rng(seq)
        assert isinstance(gen, np.random.Generator)


class TestSpawn:
    def test_children_independent(self):
        kids = spawn(0, 3)
        draws = [k.integers(0, 2**31) for k in kids]
        assert len(set(draws)) == 3

    def test_deterministic(self):
        a = [k.integers(0, 100) for k in spawn(4, 4)]
        b = [k.integers(0, 100) for k in spawn(4, 4)]
        assert a == b


class TestRandomWeights:
    def test_positive(self):
        w = random_weights(1000, rng=0)
        assert (w >= 1).all()
        assert w.dtype == np.int64

    def test_mostly_distinct(self):
        w = random_weights(10_000, rng=1)
        assert len(np.unique(w)) > 9_900

    def test_custom_dtype(self):
        w = random_weights(10, rng=0, dtype=np.int32)
        assert w.dtype == np.int32


class TestStrictKeys:
    def test_same_draw_as_weights_times_n_plus_one_plus_id(self):
        n = 50
        expected = ensure_rng(3).integers(
            1, 2**31, size=n, dtype=np.int64
        ) * np.int64(n + 1) + np.arange(n, dtype=np.int64)
        assert strict_keys(n, ensure_rng(3)).tobytes() == expected.tobytes()

    def test_keys_are_distinct_and_order_by_weight(self):
        w = np.array([5, 5, 1, 9], dtype=np.int64)
        order = tie_break(w, 9)
        assert len(set(order.tolist())) == 4
        assert list(np.argsort(order)) == [2, 0, 1, 3]

    def test_random_bound_is_n_plus_one_at_most_2_pow_32(self):
        # The guard runs before the draw, so probing at the bound
        # allocates nothing.
        with pytest.raises(errors.ColoringError, match=r"n \+ 1 <= 2\*\*32"):
            strict_keys(2**32, ensure_rng(0))
        # n + 1 == 2**32 is the largest safe size: its largest possible
        # key is exactly the int64 maximum.
        n = 2**32 - 1
        assert MAX_RANDOM_WEIGHT * (n + 1) + n == 2**63 - 1
        keys._check_bound(n, MAX_RANDOM_WEIGHT)

    def test_tie_break_guards_large_weights(self):
        w = np.ones(4, dtype=np.int64)
        with pytest.raises(errors.ColoringError, match="overflow int64"):
            tie_break(w, 2**62)
        assert tie_break(w, 2**31 - 1).tolist() == [5, 6, 7, 8]

    @pytest.mark.parametrize("n", [1, 2, 57, 1000])
    def test_key_ids_inverts_random_keys(self, n):
        ids = key_ids(strict_keys(n, ensure_rng(n)), n)
        np.testing.assert_array_equal(ids, np.arange(n))

    def test_key_ids_inverts_degree_weighted_keys(self):
        # Degree weights (as the largest-degree-first variants use) tie
        # heavily; the id term still decodes every key, in any order.
        degrees = np.array([3, 0, 3, 7, 1, 3, 0], dtype=np.int64)
        n = len(degrees)
        keys_ = tie_break(degrees, int(degrees.max()))
        perm = ensure_rng(5).permutation(n)
        np.testing.assert_array_equal(key_ids(keys_[perm], n), perm)
        # The extremal key names the extremal-weight vertex, highest id
        # among ties.
        assert key_ids(keys_.max(), n) == 3
        assert key_ids(keys_[degrees == 3].max(), n) == 5


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [
            errors.GraphError,
            errors.GraphFormatError,
            errors.GeneratorError,
            errors.GraphBLASError,
            errors.DimensionMismatch,
            errors.DomainMismatch,
            errors.InvalidValue,
            errors.UninitializedObject,
            errors.GunrockError,
            errors.FrontierError,
            errors.SimulationError,
            errors.ColoringError,
            errors.ValidationError,
            errors.DatasetError,
            errors.HarnessError,
        ],
    )
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, errors.ReproError)

    def test_refinements(self):
        assert issubclass(errors.GraphFormatError, errors.GraphError)
        assert issubclass(errors.DimensionMismatch, errors.GraphBLASError)
        assert issubclass(errors.FrontierError, errors.GunrockError)
        assert issubclass(errors.ValidationError, errors.ColoringError)

    def test_catchable_at_boundary(self):
        """One except clause suffices at an API boundary."""
        from repro.graph.build import cycle_graph

        with pytest.raises(errors.ReproError):
            cycle_graph(1)
