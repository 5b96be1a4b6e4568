"""Equivalence tests for the vectorized hot kernels.

Each vectorized path must be *bit-identical* to the scalar/operation
reference it replaced — colors, iteration counts, and (where relevant)
simulated cost — on seeded graphs from every generator family.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._rng import ensure_rng
from repro.core import gb_coloring, gr_hash
from repro.core.greedy import (
    _greedy_colors_scalar,
    _greedy_colors_vectorized,
    greedy_coloring,
)
from repro.core.keys import strict_keys
from repro.core.naumov import (
    _active_extrema,
    _active_snapshot,
    _snapshot_extrema,
    naumov_cc_coloring,
)
from repro.core.orderings import ORDERINGS
from repro.core.validate import is_valid_coloring
from repro.graph.build import empty_graph, from_edges
from repro.graph.csr import CSRGraph
from repro.graph.generators import (
    banded,
    barabasi_albert,
    erdos_renyi,
    fem_mesh2d,
    grid2d,
    random_regular,
    rgg_scale,
    rmat,
    watts_strogatz,
)
from repro.gunrock import Frontier, GunrockContext, advance, neighbor_reduce

from _strategies import graphs

#: One seeded instance per generator family, all large enough to take
#: the level-synchronous (vectorized) greedy path.
FAMILY_GRAPHS = [
    pytest.param(lambda: rgg_scale(9, rng=11), id="rgg"),
    pytest.param(lambda: grid2d(20, 20), id="mesh-grid2d"),
    pytest.param(lambda: fem_mesh2d(18, 18, rng=3), id="mesh-fem"),
    pytest.param(lambda: banded(400, 5), id="mesh-banded"),
    pytest.param(lambda: erdos_renyi(400, m=2400, rng=5), id="erdos-renyi"),
    pytest.param(lambda: random_regular(360, 6, rng=7), id="random-regular"),
    pytest.param(
        lambda: watts_strogatz(400, 6, 0.2, rng=9), id="watts-strogatz"
    ),
    pytest.param(
        lambda: barabasi_albert(400, 4, rng=13), id="barabasi-albert"
    ),
    pytest.param(lambda: rmat(9, 8, rng=17), id="rmat"),
]


class TestVectorizedGreedy:
    @pytest.mark.parametrize("build", FAMILY_GRAPHS)
    @pytest.mark.parametrize("ordering", sorted(ORDERINGS))
    def test_matches_scalar_sweep(self, build, ordering):
        graph = build()
        order = ORDERINGS[ordering](graph, np.random.default_rng(23))
        expected = _greedy_colors_scalar(graph, order)
        got = _greedy_colors_vectorized(graph, order)
        np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("build", FAMILY_GRAPHS)
    def test_public_entry_point(self, build):
        graph = build()
        result = greedy_coloring(graph, ordering="random", rng=41)
        assert is_valid_coloring(graph, result.colors)
        assert result.num_colors == int(result.colors.max())

    @given(g=graphs(max_vertices=40), seed=st.integers(0, 2**31))
    @settings(max_examples=60, deadline=None)
    def test_matches_scalar_property(self, g, seed):
        order = np.random.default_rng(seed).permutation(g.num_vertices)
        expected = _greedy_colors_scalar(g, order)
        got = _greedy_colors_vectorized(g, order)
        np.testing.assert_array_equal(got, expected)


class TestNaumovSnapshotExtrema:
    @given(g=graphs(max_vertices=32), seed=st.integers(0, 2**31))
    @settings(max_examples=60, deadline=None)
    def test_matches_scatter_extrema(self, g, seed):
        rng = np.random.default_rng(seed)
        n = g.num_vertices
        keys = rng.integers(0, 1 << 40, size=n, dtype=np.int64)
        active = rng.random(n) < 0.6
        ref_max, ref_min = _active_extrema(g, keys, active)
        snap = _active_snapshot(g, active)
        got_max, got_min = _snapshot_extrema(keys, snap, n)
        np.testing.assert_array_equal(got_max, ref_max)
        np.testing.assert_array_equal(got_min, ref_min)

    @pytest.mark.parametrize("build", FAMILY_GRAPHS)
    def test_cc_still_valid(self, build):
        graph = build()
        result = naumov_cc_coloring(graph, rng=29)
        assert is_valid_coloring(graph, result.colors)


class TestJplMinColor:
    @pytest.mark.parametrize(
        "build",
        [
            pytest.param(lambda: rgg_scale(8, rng=11), id="rgg"),
            pytest.param(lambda: erdos_renyi(200, m=1200, rng=5), id="er"),
            pytest.param(lambda: grid2d(12, 12), id="grid"),
            pytest.param(
                lambda: barabasi_albert(150, 3, rng=13), id="ba"
            ),
        ],
    )
    def test_matches_ops_reference(self, build, monkeypatch):
        """The direct scan and the GraphBLAS-op chain agree on colors,
        simulated time, iterations, and every cost counter."""
        graph = build()
        fast = gb_coloring.graphblas_jpl_coloring(graph, rng=3)
        monkeypatch.setattr(
            gb_coloring, "_jpl_min_color", gb_coloring._jpl_min_color_ops
        )
        ref = gb_coloring.graphblas_jpl_coloring(graph, rng=3)
        np.testing.assert_array_equal(fast.colors, ref.colors)
        assert fast.sim_ms == ref.sim_ms
        assert fast.iterations == ref.iterations
        assert fast.counters == ref.counters


def _arcs(graph, ids):
    """(owner, neighbor) arcs of ``ids``, one neighbor list at a time."""
    rows = [graph.indices[graph.offsets[v] : graph.offsets[v + 1]] for v in ids]
    owners = np.repeat(ids, [len(r) for r in rows]).astype(np.int64)
    nbrs = np.concatenate(rows).astype(np.int64) if rows else owners.copy()
    return owners, nbrs


def _propose_lexsort(graph, ids, colors, keys):
    """The lexsort formulation ``gr_hash._propose`` replaced, kept as its
    test reference: per pass, sort the surviving arcs by (owner, ±key,
    neighbor) and take each owner's first arc."""
    owners, nbrs = _arcs(graph, ids)
    ok = colors[nbrs] == 0
    owners, nbrs = owners[ok], nbrs[ok]
    lonely = ids[~np.isin(ids, owners)]
    picks = [lonely]
    if len(owners):
        for sign in (-1, 1):  # max pass, then min pass
            order = np.lexsort((nbrs, sign * keys[nbrs], owners))
            o_sorted = owners[order]
            first = np.ones(len(order), dtype=bool)
            first[1:] = o_sorted[1:] != o_sorted[:-1]
            picks.append(nbrs[order][first])
    return np.unique(np.concatenate(picks))


def _random_partial_state(graph, seed, p_colored, p_active):
    rng = ensure_rng(seed)
    n = graph.num_vertices
    keys = strict_keys(n, rng)
    colors = np.where(rng.random(n) < p_colored, rng.integers(1, 6, n), 0)
    ids = np.flatnonzero(rng.random(n) < p_active).astype(np.int64)
    return ids, colors.astype(np.int64), keys


class TestGunrockHashPropose:
    @given(
        g=graphs(max_vertices=32),
        seed=st.integers(0, 2**31),
        p_colored=st.sampled_from([0.0, 0.3, 0.7, 1.0]),
        p_active=st.sampled_from([0.0, 0.5, 1.0]),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_lexsort_oracle(self, g, seed, p_colored, p_active):
        ids, colors, keys = _random_partial_state(g, seed, p_colored, p_active)
        np.testing.assert_array_equal(
            gr_hash._propose(g, ids, colors, keys),
            _propose_lexsort(g, ids, colors, keys),
        )

    def test_isolated_vertices_propose_themselves(self):
        g = from_edges(np.array([[0, 1]]), num_vertices=5)
        ids = np.arange(5, dtype=np.int64)
        keys = strict_keys(5, ensure_rng(1))
        got = gr_hash._propose(g, ids, np.zeros(5, dtype=np.int64), keys)
        assert got.tolist() == [0, 1, 2, 3, 4]
        got = gr_hash._propose(g, ids[2:], np.zeros(5, dtype=np.int64), keys)
        assert got.tolist() == [2, 3, 4]

    def test_fully_colored_neighborhoods_self_propose(self):
        g = from_edges(np.array([[0, 1], [0, 2], [0, 3]]), num_vertices=4)
        colors = np.array([0, 1, 2, 1], dtype=np.int64)
        keys = strict_keys(4, ensure_rng(2))
        got = gr_hash._propose(g, np.array([0]), colors, keys)
        assert got.tolist() == [0]
        # Vertex 1's one neighbor is the uncolored 0, which it nominates.
        got = gr_hash._propose(g, np.array([0, 1]), colors, keys)
        assert got.tolist() == [0]

    def test_empty_frontier(self):
        g = grid2d(3, 3)
        keys = strict_keys(9, ensure_rng(3))
        got = gr_hash._propose(
            g, np.empty(0, dtype=np.int64), np.zeros(9, dtype=np.int64), keys
        )
        assert got.dtype == np.int64 and len(got) == 0

    def test_duplicate_arcs_repeat_one_neighbor(self):
        # An unvalidated CSR with repeated neighbors: a duplicate arc only
        # repeats a key, so it cannot change which neighbor is extremal.
        g = CSRGraph(
            np.array([0, 4, 6, 7, 9]),
            np.array([1, 1, 3, 3, 0, 0, 3, 0, 2]),
            undirected=False,
            validate=False,
        )
        for seed in range(20):
            ids, colors, keys = _random_partial_state(g, seed, 0.3, 1.0)
            np.testing.assert_array_equal(
                gr_hash._propose(g, ids, colors, keys),
                _propose_lexsort(g, ids, colors, keys),
            )

    @pytest.mark.parametrize("build", FAMILY_GRAPHS)
    def test_coloring_matches_oracle_run(self, build, monkeypatch):
        """Whole runs agree on colors, simulated time, iterations and
        every cost counter."""
        graph = build()
        fast = gr_hash.gunrock_hash_coloring(graph, rng=7)
        monkeypatch.setattr(gr_hash, "_propose", _propose_lexsort)
        ref = gr_hash.gunrock_hash_coloring(graph, rng=7)
        np.testing.assert_array_equal(fast.colors, ref.colors)
        assert fast.sim_ms == ref.sim_ms
        assert fast.iterations == ref.iterations
        assert fast.counters == ref.counters


_EXTREMA = {
    "max": (np.maximum, np.iinfo(np.int64).min),
    "min": (np.minimum, np.iinfo(np.int64).max),
}


def _neighbor_reduce_scatter(ef, values, op, arg):
    """The formulation ``neighbor_reduce`` replaced for max/min: a
    ``ufunc.at`` scatter over each arc's segment id, and for ``arg`` a
    (segment, ±value, target) lexsort taking each segment's first."""
    ufunc, identity = _EXTREMA[op]
    seg = ef.segment_offsets
    nseg = len(seg) - 1
    vals = values[ef.targets]
    seg_of = np.repeat(np.arange(nseg, dtype=np.int64), np.diff(seg))
    if not arg:
        out = np.full(nseg, identity, dtype=values.dtype)
        ufunc.at(out, seg_of, vals)
        return out
    key = vals if op == "min" else -vals
    order = np.lexsort((ef.targets, key, seg_of))
    sorted_seg = seg_of[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = sorted_seg[1:] != sorted_seg[:-1]
    out = np.full(nseg, -1, dtype=np.int64)
    out[sorted_seg[first]] = ef.targets[order][first]
    return out


class TestNeighborReduceSegmented:
    @given(
        g=graphs(max_vertices=32),
        seed=st.integers(0, 2**31),
        op=st.sampled_from(["max", "min"]),
        arg=st.booleans(),
        spread=st.sampled_from([1, 3, 1000]),
        dtype=st.sampled_from([np.int64, np.float64]),
    )
    @settings(max_examples=120, deadline=None)
    def test_matches_scatter_and_lexsort(self, g, seed, op, arg, spread, dtype):
        # Small value spreads force ties; random frontiers leave empty
        # segments (isolated vertices) in place.
        rng = ensure_rng(seed)
        values = rng.integers(-spread, spread + 1, g.num_vertices).astype(dtype)
        ids = np.flatnonzero(rng.random(g.num_vertices) < 0.7)
        ef = advance(GunrockContext(g), Frontier(ids))
        got = neighbor_reduce(GunrockContext(g), ef, values, op=op, arg=arg)
        want = _neighbor_reduce_scatter(ef, values, op, arg)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)

    def test_ties_pick_the_smallest_target(self):
        g = from_edges(np.array([[0, 3], [0, 1], [0, 2], [4, 5]]), num_vertices=6)
        values = np.array([0, 5, 9, 9, 0, 5])
        ef = advance(GunrockContext(g), Frontier.all_vertices(g))
        ctx = GunrockContext(g)
        assert neighbor_reduce(ctx, ef, values, op="max", arg=True)[0] == 2
        assert neighbor_reduce(ctx, ef, values, op="min", arg=True)[0] == 1

    def test_all_segments_empty(self):
        g = empty_graph(4)
        ef = advance(GunrockContext(g), Frontier.all_vertices(g))
        ctx = GunrockContext(g)
        values = np.arange(4, dtype=np.int64)
        assert neighbor_reduce(ctx, ef, values, op="max").tolist() == [
            np.iinfo(np.int64).min
        ] * 4
        assert neighbor_reduce(ctx, ef, values, op="min", arg=True).tolist() == [
            -1
        ] * 4
