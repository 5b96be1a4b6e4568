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
from repro.backend.reference import ReferenceBackend
from repro.core import gb_coloring, gr_hash
from repro.core.greedy import (
    _greedy_colors_scalar,
    _greedy_colors_vectorized,
    greedy_coloring,
)
from repro.core.keys import strict_keys
from repro.core.naumov import (
    _active_snapshot,
    _snapshot_extrema,
    naumov_cc_coloring,
)
from repro.core.orderings import ORDERINGS
from repro.core.validate import is_valid_coloring
from repro.graph.build import empty_graph, from_edges
from repro.graph.csr import CSRGraph, arc_positions
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
from repro.graphblas import (
    BOOL,
    BOOLEAN,
    DEFAULT,
    FP64,
    INT64,
    MAX_TIMES,
    MIN_PLUS,
    PLUS_TIMES,
    Descriptor,
    Matrix,
    Vector,
    binaryop,
    vxm,
)
from repro.gpusim import CostModel
from repro.gpusim import sanitizer as S
from repro.graphblas import ops as gb_ops
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
        ref_max, ref_min = _active_extrema_scatter(
            g.offsets, g.indices, keys, active
        )
        snap = _active_snapshot(g, active)
        got_max, got_min = _snapshot_extrema(keys, snap)
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


# -- direction-optimized neighbor reductions ---------------------------------

_I64_MIN = np.iinfo(np.int64).min
_I64_MAX = np.iinfo(np.int64).max


def _write_boolean(w, mask, accum, res_values, res_present, desc):
    """The boolean-setitem merge ``ops._write`` replaced (oracle)."""
    m = gb_ops._mask_array(mask, w.size, desc)
    if desc.replace:
        w.present[:] = False
        w.values[:] = w.gtype.zero
    target = m & res_present
    if accum is not None:
        both = target & w.present
        if both.any():
            w.values[both] = accum(w.values[both], res_values[both]).astype(
                w.gtype.dtype, copy=False
            )
        fresh = target & ~w.present
        w.values[fresh] = res_values[fresh]
    else:
        w.values[target] = res_values[target]
    w.present |= target


def _vxm_push(w, mask, accum, semiring, u, A, desc):
    """The push-only vxm (scatter from u's present rows), the oracle for
    both of vxm's directions."""
    uidx = np.flatnonzero(u.present)
    degs = A.offsets[uidx + 1] - A.offsets[uidx]
    identity = semiring.add.identity(w.gtype.dtype)
    out = np.full(w.size, identity, dtype=w.gtype.dtype)
    hit = np.zeros(w.size, dtype=bool)
    if int(degs.sum()):
        pos = arc_positions(A.offsets, uidx, degs)
        dst = A.indices[pos]
        left = np.repeat(u.values[uidx], degs)
        prod = np.asarray(semiring.multiply(left, A.values[pos])).astype(
            w.gtype.dtype, copy=False
        )
        semiring.add.op.ufunc.at(out, dst, prod)
        hit[dst] = True
    _write_boolean(w, mask, accum, out, hit, desc)
    return w


def _random_vector(gtype, n, rng, density, spread):
    v = Vector.new(gtype, n)
    present = rng.random(n) < density
    if gtype is BOOL:
        vals = rng.random(n) < 0.8
    else:
        vals = rng.integers(-spread, spread + 1, n).astype(gtype.dtype)
    v.values[present] = vals[present]
    v.present[:] = present
    return v


_DESCRIPTORS = [
    DEFAULT,
    Descriptor(mask_structure=True),
    Descriptor(mask_complement=True),
    Descriptor(mask_complement=True, mask_structure=True),
    Descriptor(replace=True),
    Descriptor(mask_complement=True, mask_structure=True, replace=True),
]


def _same_vector(got, want):
    np.testing.assert_array_equal(got.present, want.present)
    np.testing.assert_array_equal(got.values, want.values)
    assert got.values.dtype == want.values.dtype


def _count_pulls(monkeypatch):
    """Count vxm's row reductions (the pull direction's only caller)."""
    calls = []
    real = gb_ops.row_reduce

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(gb_ops, "row_reduce", counting)
    return calls


class TestVxmDirection:
    @given(
        g=graphs(max_vertices=32),
        seed=st.integers(0, 2**31),
        density=st.sampled_from([0.0, 0.2, 0.5, 0.8, 1.0]),
        semiring=st.sampled_from(["max_times", "boolean", "min_plus"]),
        masked=st.sampled_from(["none", "self", "random"]),
        desc=st.sampled_from(_DESCRIPTORS),
        accum=st.sampled_from([None, binaryop.MAX, binaryop.PLUS]),
        spread=st.sampled_from([1, 5, 1000]),
    )
    @settings(max_examples=250, deadline=None)
    def test_matches_push_oracle(
        self, g, seed, density, semiring, masked, desc, accum, spread
    ):
        rng = ensure_rng(seed)
        n = g.num_vertices
        sr, gtype = {
            "max_times": (MAX_TIMES, INT64),
            "boolean": (BOOLEAN, BOOL),
            "min_plus": (MIN_PLUS, INT64),
        }[semiring]
        A = Matrix.from_graph(g, gtype)
        u = _random_vector(gtype, n, rng, density, spread)
        mask = {
            "none": None,
            "self": u,
            "random": _random_vector(INT64, n, rng, 0.6, 1),
        }[masked]
        w0 = _random_vector(gtype, n, rng, 0.5, spread)
        got, want = w0.dup(), w0.dup()
        vxm(got, mask, accum, sr, u, A, desc)
        _vxm_push(want, mask, accum, sr, u, A, desc)
        _same_vector(got, want)

    @given(g=graphs(max_vertices=32), seed=st.integers(0, 2**31))
    @settings(max_examples=60, deadline=None)
    def test_dense_frontier_pulls(self, g, seed):
        A = Matrix.from_graph(g, INT64)
        rng = ensure_rng(seed)
        u = _random_vector(INT64, g.num_vertices, rng, 1.0, 1000)
        got, want = Vector.new(INT64, g.num_vertices), Vector.new(INT64, g.num_vertices)
        with pytest.MonkeyPatch.context() as mp:
            pulls = _count_pulls(mp)
            vxm(got, u, None, MAX_TIMES, u, A, Descriptor(mask_structure=True))
        # One row reduction (the result); keys never equal the max
        # identity, so presence comes from the result, not a second pass.
        assert len(pulls) == (1 if g.num_arcs else 0)
        _vxm_push(want, u, None, MAX_TIMES, u, A, Descriptor(mask_structure=True))
        _same_vector(got, want)

    def test_identity_valued_contributions_still_hit(self, monkeypatch):
        # A present u entry whose product equals the monoid identity must
        # still mark its neighbors present (the slow hit path).
        g = from_edges(np.array([[0, 1], [1, 2], [2, 3]]), num_vertices=4)
        A = Matrix.from_graph(g, INT64)
        u = Vector.from_dense(np.array([_I64_MIN, _I64_MIN, 0, 0], dtype=np.int64))
        pulls = _count_pulls(monkeypatch)
        got = vxm(Vector.new(INT64, 4), None, None, MAX_TIMES, u, A)
        assert len(pulls) == 2
        want = _vxm_push(Vector.new(INT64, 4), None, None, MAX_TIMES, u, A, DEFAULT)
        _same_vector(got, want)
        assert got.present.all()

    def test_float_plus_keeps_push(self, monkeypatch):
        g = grid2d(4, 4)
        A = Matrix.from_graph(g, FP64)
        u = Vector.from_dense(np.linspace(0.1, 1.7, 16))
        pulls = _count_pulls(monkeypatch)
        got = vxm(Vector.new(FP64, 16), None, None, PLUS_TIMES, u, A)
        assert pulls == []
        want = _vxm_push(Vector.new(FP64, 16), None, None, PLUS_TIMES, u, A, DEFAULT)
        _same_vector(got, want)

    @given(
        seed=st.integers(0, 2**31),
        n=st.integers(1, 20),
        density=st.sampled_from([0.5, 1.0]),
    )
    @settings(max_examples=60, deadline=None)
    def test_non_iso_and_asymmetric_matrices_push(self, seed, n, density):
        rng = ensure_rng(seed)
        m = int(rng.integers(0, 3 * n + 1))
        rows = rng.integers(0, n, m)
        cols = rng.integers(0, n, m)
        vals = rng.integers(-9, 10, m)
        matrices = [Matrix.from_coo(INT64, rows, cols, vals, (n, n))]
        # An iso matrix over an asymmetric (directed) CSR.
        directed = CSRGraph(
            matrices[0].offsets, matrices[0].indices,
            undirected=False, validate=False,
        )
        matrices.append(Matrix.from_graph(directed, INT64))
        u = _random_vector(INT64, n, rng, density, 50)
        for A in matrices:
            assert not (A.iso and A.symmetric)
            with pytest.MonkeyPatch.context() as mp:
                pulls = _count_pulls(mp)
                got = vxm(Vector.new(INT64, n), None, None, MAX_TIMES, u, A)
            assert pulls == []
            want = _vxm_push(
                Vector.new(INT64, n), None, None, MAX_TIMES, u, A, DEFAULT
            )
            _same_vector(got, want)

    def test_sanitizer_records_the_direction_run(self, monkeypatch):
        """A pull is recorded as own-slot row writes (like mxv), a push as
        a declared scatter reduction."""
        monkeypatch.setenv(S.ENV_VAR, "1")
        monkeypatch.setenv(S.RACE_CERTS_ENV, "0")
        g = grid2d(4, 4)
        A = Matrix.from_graph(g, INT64)
        for present, pulled in (([0], False), (list(range(16)), True)):
            u = Vector.sparse(INT64, 16, np.array(present), 7)
            S.reset_reports()
            vxm(Vector.new(INT64, 16), None, None, MAX_TIMES, u, A,
                cost=CostModel(), name="vxm_t")
            [report] = S.take_reports()
            assert "vxm_t" in report.kernels_checked()
            assert (("out@vxm_t", "reduction") in report.declared()) != pulled

    @pytest.mark.parametrize(
        "kernel,run",
        [
            (
                "vxm_max",
                lambda g: gb_coloring.graphblas_is_coloring(g, masked=False, rng=4),
            ),
            ("vxm_nbr", lambda g: gb_coloring.graphblas_mis_coloring(g, rng=5)),
        ],
    )
    @pytest.mark.parametrize(
        "build",
        [
            pytest.param(lambda: grid2d(6, 6), id="grid"),
            pytest.param(
                lambda: from_edges(
                    np.array([[0, i] for i in range(1, 9)]), num_vertices=9
                ),
                id="star",
            ),
        ],
    )
    def test_hand_recorded_vxm_follows_the_direction(
        self, kernel, run, build, monkeypatch
    ):
        """The uncharged vxm calls gb_coloring records itself: every
        launch is recorded as the direction ``vxm_pulls`` chose."""
        monkeypatch.setenv(S.ENV_VAR, "1")
        monkeypatch.setenv(S.RACE_CERTS_ENV, "0")
        pulled = []
        real = gb_coloring.vxm_pulls

        def spy(*args):
            pulled.append(real(*args))
            return pulled[-1]

        monkeypatch.setattr(gb_coloring, "vxm_pulls", spy)
        S.reset_reports()
        run(build())
        declared = [
            bool(c.declared)
            for r in S.take_reports()
            for c in r.certificates
            if c.kernel == kernel
        ]
        assert pulled and declared == [not p for p in pulled]

    def test_from_graph_is_iso_and_shares_structure(self):
        g = grid2d(3, 3)
        A = Matrix.from_graph(g, INT64)
        assert A.iso and A.symmetric
        assert A.offsets is g.offsets and A.indices is g.indices
        assert A.values.strides == (0,) and not A.values.flags.writeable
        assert A.values.tolist() == [1] * g.num_arcs
        np.testing.assert_array_equal(A.row_degrees(), g.degrees)
        assert A.row_degrees() is A.row_degrees()


def _active_extrema_scatter(offsets, indices, keys, active):
    """The repeat/``ufunc.at`` formulation the reference backend's
    ``active_max``/``active_extrema`` replaced: mask all m arcs by their
    source's activity and scatter."""
    n = len(offsets) - 1
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(offsets))
    ok = active[src]
    nmax = np.full(n, _I64_MIN, dtype=np.int64)
    nmin = np.full(n, _I64_MAX, dtype=np.int64)
    np.maximum.at(nmax, indices[ok], keys[src[ok]])
    np.minimum.at(nmin, indices[ok], keys[src[ok]])
    return nmax, nmin


@st.composite
def arbitrary_csr(draw, max_vertices=16, max_degree=6):
    """Any CSR: asymmetric, unsorted rows, duplicate arcs, self loops."""
    n = draw(st.integers(0, max_vertices))
    degs = draw(st.lists(st.integers(0, max_degree), min_size=n, max_size=n))
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degs, out=offsets[1:])
    m = int(offsets[-1])
    indices = np.asarray(
        draw(st.lists(st.integers(0, max(n - 1, 0)), min_size=m, max_size=m)),
        dtype=np.int64,
    )
    return offsets, indices


class TestFrontierActiveExtrema:
    @given(
        csr=arbitrary_csr(),
        seed=st.integers(0, 2**31),
        p_active=st.sampled_from([0.0, 0.3, 0.7, 1.0]),
        extreme=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_repeat_scatter(self, csr, seed, p_active, extreme):
        offsets, indices = csr
        n = len(offsets) - 1
        rng = ensure_rng(seed)
        keys = rng.integers(-(1 << 40), 1 << 40, n, dtype=np.int64)
        if extreme and n:
            keys[rng.integers(0, n, 2)] = [_I64_MIN, _I64_MAX]
        active = rng.random(n) < p_active
        ref = ReferenceBackend()
        want_max, want_min = _active_extrema_scatter(offsets, indices, keys, active)
        got_max, got_min = ref.active_extrema(offsets, indices, keys, active)
        np.testing.assert_array_equal(got_max, want_max)
        np.testing.assert_array_equal(got_min, want_min)
        np.testing.assert_array_equal(
            ref.active_max(offsets, indices, keys, active), want_max
        )


def _segmented_mex_loop(colors, indices, starts, counts):
    """The mex by definition, one segment at a time: the smallest
    integer >= 1 that no positive neighbor color takes."""
    k = len(starts)
    out = np.ones(k, dtype=np.int64)
    for s in range(k):
        seg = colors[indices[starts[s] : starts[s] + counts[s]]]
        have = set(int(c) for c in seg if c > 0)
        while int(out[s]) in have:
            out[s] += 1
    return out


class TestBitsetMex:
    @given(
        data=st.data(),
        n=st.integers(1, 30),
        k=st.integers(0, 12),
        top=st.sampled_from([3, 62, 63, 64, 200]),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_definition(self, data, n, k, top):
        # Colors up to 62 take the bitset path, larger ones the unique path.
        colors = np.asarray(
            data.draw(st.lists(st.integers(-3, top), min_size=n, max_size=n)),
            dtype=np.int64,
        )
        m = data.draw(st.integers(0, 40))
        indices = np.asarray(
            data.draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m)),
            dtype=np.int64,
        )
        starts = np.zeros(k, dtype=np.int64)
        counts = np.zeros(k, dtype=np.int64)
        for s in range(k):  # arbitrary, possibly overlapping or empty
            starts[s] = data.draw(st.integers(0, m))
            counts[s] = data.draw(st.integers(0, m - starts[s]))
        got = ReferenceBackend().segmented_mex(colors, indices, starts, counts)
        want = _segmented_mex_loop(colors, indices, starts, counts)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, want)

    def test_all_bitset_colors_taken(self):
        colors = np.arange(63, dtype=np.int64)  # 0..62
        indices = np.arange(63, dtype=np.int64)
        got = ReferenceBackend().segmented_mex(
            colors, indices, np.array([0, 0, 5]), np.array([63, 0, 2])
        )
        assert got.tolist() == [63, 1, 1]

    @pytest.mark.parametrize("top", [63, 64, 65])
    def test_colors_past_the_bitset(self, top):
        # 1..top all taken: the mex is top + 1, which needs the unique path.
        colors = np.arange(top + 1, dtype=np.int64)
        indices = np.arange(top + 1, dtype=np.int64)
        got = ReferenceBackend().segmented_mex(
            colors, indices, np.array([0]), np.array([top + 1])
        )
        assert got.tolist() == [top + 1]


def _fold_tables_unique(graph, survivors, colors, table, table_used):
    """The ``np.unique`` + rank-in-group table fold ``_fold_tables``
    replaced (same return contract)."""
    owners, nbrs = _arcs(graph, survivors)
    keep = colors[nbrs] == 0
    w, c = nbrs[keep], colors[owners[keep]]
    keep = c > 0
    w, c = w[keep], c[keep]
    if len(w) == 0:
        return None
    base = np.int64(int(c.max()) + 2)
    enc = np.unique(w * base + c)
    w, c = enc // base, enc % base
    known = (table[w] == c[:, None]).any(axis=1)
    w, c = w[~known], c[~known]
    if len(w) == 0:
        return None
    first = np.ones(len(w), dtype=bool)
    first[1:] = w[1:] != w[:-1]
    group_start = np.maximum.accumulate(np.where(first, np.arange(len(w)), 0))
    slot = table_used[w] + np.arange(len(w)) - group_start
    ok = slot < table.shape[1]
    table[w[ok], slot[ok]] = c[ok]
    np.add.at(table_used, w[ok], 1)
    return w[ok], slot[ok]


class TestGunrockHashFoldTables:
    @given(
        g=graphs(max_vertices=32, max_edges=120),
        seed=st.integers(0, 2**31),
        hash_size=st.integers(1, 5),
        max_color=st.sampled_from([2, 6, 40]),
        p_survive=st.sampled_from([0.2, 0.6, 1.0]),
    )
    @settings(max_examples=150, deadline=None)
    def test_fold_tables_matches_unique(
        self, g, seed, hash_size, max_color, p_survive
    ):
        rng = ensure_rng(seed)
        n = g.num_vertices
        colors = np.where(
            rng.random(n) < 0.5, rng.integers(1, max_color + 1, n), 0
        ).astype(np.int64)
        survivors = np.flatnonzero((colors > 0) & (rng.random(n) < p_survive))
        table = np.zeros((n, hash_size), dtype=np.int64)
        used = rng.integers(0, min(hash_size, max_color) + 1, n).astype(np.int64)
        for v in range(n):  # pre-filled slots hold distinct old colors
            table[v, : used[v]] = rng.permutation(max_color)[: used[v]] + 1
        t1, u1 = table.copy(), used.copy()
        t2, u2 = table.copy(), used.copy()
        got = gr_hash._fold_tables(g, survivors, colors, t1, u1)
        want = _fold_tables_unique(g, survivors, colors, t2, u2)
        np.testing.assert_array_equal(t1, t2)
        np.testing.assert_array_equal(u1, u2)
        assert (got is None) == (want is None)
        if got is not None:
            pairs = lambda ws: sorted(zip(ws[0].tolist(), ws[1].tolist()))
            assert pairs(got) == pairs(want)

    @pytest.mark.parametrize("hash_size", [0, 1, 4])
    @pytest.mark.parametrize("build", FAMILY_GRAPHS)
    def test_coloring_matches_oracle_run(self, build, hash_size, monkeypatch):
        """Whole runs with the oracle fold patched in agree on colors,
        simulated time, iterations and every cost counter."""
        graph = build()
        fast = gr_hash.gunrock_hash_coloring(graph, hash_size=hash_size, rng=5)
        monkeypatch.setattr(gr_hash, "_fold_tables", _fold_tables_unique)
        ref = gr_hash.gunrock_hash_coloring(graph, hash_size=hash_size, rng=5)
        np.testing.assert_array_equal(fast.colors, ref.colors)
        assert fast.sim_ms == ref.sim_ms
        assert fast.iterations == ref.iterations
        assert fast.counters == ref.counters
