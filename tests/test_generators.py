"""Tests for the synthetic graph generators (Table I analogues, RGG,
random families)."""

import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._rng import ensure_rng
from repro.errors import DatasetError, GeneratorError
from repro.graph.build import from_edges
from repro.graph.generators import (
    banded,
    barabasi_albert,
    dimacs10_radius,
    erdos_renyi,
    fem_mesh2d,
    grid2d,
    grid2d_9pt,
    grid3d,
    random_regular,
    rgg,
    rgg_scale,
    rmat,
    watts_strogatz,
)
from repro.graph.generators.random_graphs import _decode_triangular
from repro.graph.generators.rgg import _radius_pairs
from repro.graph.generators.suitesparse import (
    SUITESPARSE_ANALOGUES,
    dataset_names,
    generate,
    get_spec,
)

#: The module itself (the package re-exports a function named ``rgg``).
rgg_module = importlib.import_module("repro.graph.generators.rgg")


class TestRGG:
    def test_brute_force_equivalence(self):
        """Grid-bucketed RGG must match the O(n^2) definition exactly."""
        gen = np.random.default_rng(3)
        n, r = 150, 0.13
        g = rgg(n, r, rng=3)
        # Regenerate the same points (same seed consumes identically).
        pts = np.random.default_rng(3).random((n, 2))
        d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
        expected = {
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if d2[i, j] <= r * r
        }
        got = {tuple(e) for e in g.edge_list().tolist()}
        assert got == expected

    def test_average_degree_tracks_dimacs10(self):
        g = rgg_scale(12, rng=0)
        # Expected degree = pi r^2 n ~ 0.94 ln n = 7.8 at scale 12.
        assert 6.0 < g.avg_degree < 10.0

    def test_radius_validation(self):
        with pytest.raises(GeneratorError):
            rgg(10, 1.5)
        with pytest.raises(GeneratorError):
            rgg(10, 0.0)

    def test_tiny(self):
        assert rgg(0).num_vertices == 0
        assert rgg(1).num_vertices == 1

    def test_scale_bounds(self):
        with pytest.raises(GeneratorError):
            rgg_scale(0)
        with pytest.raises(GeneratorError):
            rgg_scale(30)

    def test_radius_decreases_with_n(self):
        assert dimacs10_radius(1 << 16) < dimacs10_radius(1 << 12)

    def test_deterministic(self):
        assert rgg(100, rng=5) == rgg(100, rng=5)


def _radius_pairs_per_cell(pts, r):
    """The per-cell-pair loop the vectorized cell-list search replaced:
    one dense distance block per (occupied cell, forward neighbor)."""
    n = len(pts)
    ncell = max(1, int(1.0 / r))
    cell = np.minimum((pts * ncell).astype(np.int64), ncell - 1)
    cid = cell[:, 0] * ncell + cell[:, 1]
    order = np.argsort(cid, kind="stable")
    cid_sorted = cid[order]
    boundaries = np.flatnonzero(np.diff(cid_sorted)) + 1
    starts = np.concatenate([[0], boundaries])
    ends = np.concatenate([boundaries, [n]])
    occupied = cid_sorted[starts]
    cell_slice = {int(c): (int(s), int(e)) for c, s, e in zip(occupied, starts, ends)}
    r2 = r * r
    out_src, out_dst = [], []
    for c in cell_slice:
        cx, cy = divmod(c, ncell)
        s0, e0 = cell_slice[c]
        a = order[s0:e0]
        pa = pts[a]
        for dx, dy in ((0, 0), (0, 1), (1, -1), (1, 0), (1, 1)):
            nx, ny = cx + dx, cy + dy
            if not (0 <= nx < ncell and 0 <= ny < ncell):
                continue
            nb = nx * ncell + ny
            if nb not in cell_slice:
                continue
            s1, e1 = cell_slice[nb]
            b = order[s1:e1]
            d2 = ((pa[:, None, :] - pts[b][None, :, :]) ** 2).sum(axis=2)
            if (dx, dy) == (0, 0):
                ii, jj = np.nonzero(np.triu(d2 <= r2, k=1))
            else:
                ii, jj = np.nonzero(d2 <= r2)
            out_src.append(a[ii])
            out_dst.append(b[jj])
    if not out_src:
        e = np.empty(0, dtype=np.int64)
        return e, e.copy()
    return np.concatenate(out_src), np.concatenate(out_dst)


def _pair_keys(src, dst, n):
    """Sorted unordered-pair keys (multiplicity kept)."""
    return np.sort(np.minimum(src, dst) * n + np.maximum(src, dst))


@st.composite
def point_clouds(draw):
    """(points, r): uniform points mixed with duplicates and points
    exactly on cell boundaries, r from one cell up to a fine grid."""
    r = draw(
        st.one_of(
            st.floats(0.5, 1.0, exclude_min=True),  # a single cell
            st.sampled_from([1 / 2, 1 / 3, 1 / 4, 1 / 5, 1 / 8, 1 / 10]),
            st.floats(0.02, 1.0),
        )
    )
    ncell = max(1, int(1.0 / r))
    coord = st.one_of(
        st.floats(0.0, 1.0),
        st.integers(0, ncell).map(lambda k: k / ncell),  # on a boundary
    )
    n = draw(st.integers(2, 60))
    pts = [[draw(coord), draw(coord)] for _ in range(n)]
    for _ in range(draw(st.integers(0, 5))):  # duplicate points
        pts.append(list(pts[draw(st.integers(0, len(pts) - 1))]))
    return np.asarray(pts, dtype=np.float64), r


class TestRadiusPairsCellList:
    """The vectorized cell-list search finds exactly the pairs of the
    per-cell-pair loop it replaced."""

    @given(point_clouds())
    @settings(max_examples=200, deadline=None)
    def test_same_pairs_as_per_cell_loop(self, cloud):
        pts, r = cloud
        n = len(pts)
        src, dst = _radius_pairs(pts, r)
        assert src.dtype == dst.dtype == np.int64
        assert (src != dst).all()
        np.testing.assert_array_equal(
            _pair_keys(src, dst, n),
            _pair_keys(*_radius_pairs_per_cell(pts, r), n),
        )

    @pytest.mark.parametrize("r", [1.0, 0.7, 0.5, 0.25, 0.1, 0.05])
    def test_two_points(self, r):
        for pts in ([[0.1, 0.1], [0.1 + r, 0.1]], [[0.5, 0.5], [0.5, 0.5]],
                    [[0.0, 0.0], [0.9, 0.9]]):
            pts = np.asarray(pts)
            np.testing.assert_array_equal(
                _pair_keys(*_radius_pairs(pts, r), 2),
                _pair_keys(*_radius_pairs_per_cell(pts, r), 2),
            )

    @pytest.mark.parametrize("cap", [1, 2, 3, 7])
    def test_tiny_block_cap(self, cap, monkeypatch):
        pts = ensure_rng(5).random((400, 2))
        r = 0.09
        want = _pair_keys(*_radius_pairs(pts, r), 400)
        monkeypatch.setattr(rgg_module, "PAIR_BLOCK", cap)
        got = _pair_keys(*_radius_pairs(pts, r), 400)
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(
            got, _pair_keys(*_radius_pairs_per_cell(pts, r), 400)
        )

    def test_block_cap_bounds_candidates(self, monkeypatch):
        """No block materializes more than PAIR_BLOCK candidates unless
        one point alone has more."""
        sizes = []
        real_repeat = np.repeat

        def spy(a, repeats, *args, **kwargs):
            out = real_repeat(a, repeats, *args, **kwargs)
            sizes.append(len(out))
            return out

        monkeypatch.setattr(rgg_module, "PAIR_BLOCK", 50)
        monkeypatch.setattr(rgg_module.np, "repeat", spy)
        _radius_pairs(ensure_rng(2).random((300, 2)), 0.1)
        assert sizes and max(sizes) <= 50


class TestMeshes:
    def test_grid2d_structure(self):
        g = grid2d(3, 4)
        assert g.num_vertices == 12
        assert g.num_edges == 3 * 3 + 2 * 4  # horizontal + vertical
        assert g.max_degree == 4

    def test_grid2d_periodic(self):
        g = grid2d(4, 4, periodic=True)
        assert all(g.degree(v) == 4 for v in g)

    def test_grid2d_validation(self):
        with pytest.raises(GeneratorError):
            grid2d(0, 3)

    def test_grid2d_9pt_degree(self):
        g = grid2d_9pt(30, 30)
        assert 7.0 < g.avg_degree < 8.0  # interior degree 8

    def test_grid3d(self):
        g = grid3d(3, 3, 3)
        assert g.num_vertices == 27
        assert g.max_degree == 6
        assert g.degree(13) == 6  # center cell

    def test_fem_mesh_degree(self):
        g = fem_mesh2d(40, 40, rng=0)
        assert 5.0 < g.avg_degree < 6.2

    def test_fem_mesh_diagonal_fraction_zero_is_grid(self):
        assert fem_mesh2d(10, 10, diagonal_fraction=0.0, rng=0) == grid2d(10, 10)

    def test_fem_mesh_fraction_validation(self):
        with pytest.raises(GeneratorError):
            fem_mesh2d(4, 4, diagonal_fraction=1.5)

    def test_banded_degrees(self):
        g = banded(100, 5)
        assert g.degree(50) == 10  # interior: k on each side
        assert g.degree(0) == 5
        assert g.num_edges == 5 * 100 - 5 * 6 // 2

    def test_banded_wide_band_clipped(self):
        g = banded(4, 10)
        assert g.num_edges == 6  # complete graph

    def test_banded_validation(self):
        with pytest.raises(GeneratorError):
            banded(0, 1)
        with pytest.raises(GeneratorError):
            banded(5, 0)


class TestRandomFamilies:
    def test_gnm_edge_count(self):
        g = erdos_renyi(30, m=50, rng=0)
        assert g.num_edges == 50

    def test_gnm_full(self):
        g = erdos_renyi(6, m=15, rng=0)
        assert g.num_edges == 15
        assert g.max_degree == 5

    def test_gnp_empty_and_full(self):
        assert erdos_renyi(10, p=0.0, rng=0).num_edges == 0
        assert erdos_renyi(6, p=1.0, rng=0).num_edges == 15

    def test_er_param_validation(self):
        with pytest.raises(GeneratorError):
            erdos_renyi(5)
        with pytest.raises(GeneratorError):
            erdos_renyi(5, p=0.5, m=3)
        with pytest.raises(GeneratorError):
            erdos_renyi(5, m=100)
        with pytest.raises(GeneratorError):
            erdos_renyi(5, p=1.5)

    @given(st.integers(min_value=2, max_value=40))
    @settings(max_examples=30, deadline=None)
    def test_decode_triangular_bijection(self, n):
        max_m = n * (n - 1) // 2
        slots = np.arange(max_m, dtype=np.int64)
        u, v = _decode_triangular(slots, n)
        assert (u < v).all()
        assert (u >= 0).all() and (v < n).all()
        assert len({(a, b) for a, b in zip(u.tolist(), v.tolist())}) == max_m

    def test_random_regular(self):
        g = random_regular(40, 4, rng=1)
        assert (g.degrees == 4).mean() > 0.9  # near-regular at worst

    def test_random_regular_exact_common_case(self):
        g = random_regular(100, 3, rng=0)
        assert g.num_vertices == 100

    @pytest.mark.parametrize(
        "n, d, seed", [(40, 4, 1), (20, 15, 4), (30, 24, 5), (12, 9, 2)]
    )
    def test_random_regular_matches_unique_isin(self, n, d, seed):
        """Same shuffles, same best pairing as the ``np.unique`` /
        ``np.isin`` selection the sorted-key scan replaced."""
        gen = ensure_rng(seed)
        stubs = np.repeat(np.arange(n, dtype=np.int64), d)
        best = None
        for _ in range(200):
            gen.shuffle(stubs)
            u, v = stubs[0::2], stubs[1::2]
            ok = u != v
            key = np.minimum(u, v) * n + np.maximum(u, v)
            uniq_key, counts = np.unique(key[ok], return_counts=True)
            simple = int((counts == 1).sum())
            if simple == len(u):
                best = (simple, u.copy(), v.copy())
                break
            if best is None or simple > best[0]:
                keep = ok & np.isin(key, uniq_key[counts == 1])
                best = (simple, u[keep].copy(), v[keep].copy())
        want = from_edges(np.column_stack([best[1], best[2]]), num_vertices=n)
        got = random_regular(n, d, rng=seed)
        np.testing.assert_array_equal(got.offsets, want.offsets)
        np.testing.assert_array_equal(got.indices, want.indices)

    def test_random_regular_validation(self):
        with pytest.raises(GeneratorError):
            random_regular(5, 5)  # d >= n
        with pytest.raises(GeneratorError):
            random_regular(5, 3)  # odd n*d

    def test_watts_strogatz(self):
        g = watts_strogatz(50, 4, 0.1, rng=2)
        assert 3.0 < g.avg_degree <= 4.0
        assert g.num_vertices == 50

    def test_watts_strogatz_no_rewire_is_lattice(self):
        g = watts_strogatz(10, 2, 0.0, rng=0)
        assert all(g.degree(v) == 2 for v in g)

    def test_watts_strogatz_validation(self):
        with pytest.raises(GeneratorError):
            watts_strogatz(10, 3, 0.1)  # odd k
        with pytest.raises(GeneratorError):
            watts_strogatz(10, 4, 1.5)


class TestPowerLaw:
    def test_barabasi_albert_hubs(self):
        g = barabasi_albert(300, 2, rng=1)
        assert g.num_vertices == 300
        # Scale-free: max degree far above average.
        assert g.max_degree > 4 * g.avg_degree

    def test_barabasi_albert_edge_count(self):
        g = barabasi_albert(100, 3, rng=0)
        expected = 6 + 3 * 96  # seed clique K4 + 3 per newcomer
        assert g.num_edges <= expected
        assert g.num_edges >= expected * 0.95

    def test_ba_validation(self):
        with pytest.raises(GeneratorError):
            barabasi_albert(3, 3)
        with pytest.raises(GeneratorError):
            barabasi_albert(10, 0)

    def test_rmat_skew(self):
        g = rmat(9, edge_factor=8, rng=0)
        assert g.num_vertices == 512
        assert g.max_degree > 3 * g.avg_degree

    def test_rmat_validation(self):
        with pytest.raises(GeneratorError):
            rmat(0)
        with pytest.raises(GeneratorError):
            rmat(5, a=0.9, b=0.2, c=0.2)


class TestSuiteSparseAnalogues:
    def test_registry_complete(self):
        assert len(dataset_names()) == 12
        assert "G3_circuit" in dataset_names()
        assert "af_shell3" in dataset_names()

    def test_unknown_dataset(self):
        with pytest.raises(DatasetError):
            get_spec("nope")

    @pytest.mark.parametrize("name", dataset_names())
    def test_avg_degree_matches_paper(self, name):
        """The single statistic the paper's analysis leans on (degree)
        must track the published Table I value."""
        spec = get_spec(name)
        g = generate(name, scale_div=256, rng=0)
        assert g.num_vertices >= 64
        assert g.avg_degree == pytest.approx(spec.paper.avg_degree, rel=0.35)

    def test_scaled_size(self):
        g = generate("offshore", scale_div=64, rng=0)
        assert g.num_vertices == pytest.approx(260_000 // 64, rel=0.1)

    def test_scale_div_validation(self):
        with pytest.raises(DatasetError):
            get_spec("offshore").generate(scale_div=0)

    def test_af_shell3_is_the_high_degree_outlier(self):
        degs = {
            name: generate(name, scale_div=256, rng=0).avg_degree
            for name in dataset_names()
        }
        assert max(degs, key=degs.get) == "af_shell3"
