"""The kernel-execution backend layer (docs/backends.md).

Three layers of lockdown:

* **Primitive bit-identity** — every primitive of ``cnative`` (when a
  C compiler is present) against the reference backend on randomized
  inputs, including the float cases whose accumulation order is part
  of the contract and the dtype combinations that must *fall back*
  rather than diverge.
* **Selection semantics** — explicit arg > ``REPRO_BACKEND`` >
  reference; warn-once fallback when ``cnative`` is unavailable (the
  no-compiler path is forced by stubbing the compiler probe, so it runs
  identically on machines with and without one); scoping via
  ``use()``; journal config hashes that keep backends apart.
* **End-to-end plumbing** — ``run_algorithm`` / ``run_cell`` /
  ``run_grid`` produce bit-identical results on every available
  backend, with only the labels (trace/metrics/journal) differing.
"""

from __future__ import annotations

import hashlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import backend as backend_mod
from repro.backend import (
    DEFAULT_BACKEND,
    Backend,
    ENV_VAR,
    KNOWN_BACKENDS,
    BackendError,
    available_backends,
    current,
    cnative,
    resolve,
    use,
)
from repro.backend.reference import ReferenceBackend, resolve_op
from repro.core.registry import run_algorithm
from repro.graph.csr import arc_positions

from _strategies import random_graph, symmetric_csr

REFERENCE = ReferenceBackend()

#: Optional backends that actually load on this machine (a C compiler
#: is present).  Reference is excluded: comparing it against itself
#: proves nothing.
OPTIONAL = [n for n in available_backends() if n != "reference"]


@pytest.fixture
def clean_selection(monkeypatch):
    """Isolate backend selection state (cache, warn-once set, scopes)."""
    monkeypatch.delenv(ENV_VAR, raising=False)
    backend_mod._reset()
    yield
    backend_mod._reset()


@pytest.fixture
def no_compiler(clean_selection, monkeypatch):
    """Force the cnative-unavailable path regardless of the machine:
    the compiler probe finds nothing, so no cached library is loaded."""
    monkeypatch.setattr(cnative, "_find_compiler", lambda: None)


# ---------------------------------------------------------------------------
# Primitive inputs
# ---------------------------------------------------------------------------


def _kernel_inputs(n=48, p=0.22, seed=9):
    """Deterministic CSR + per-vertex/per-arc arrays for primitive tests."""
    g = random_graph(n, p, seed)
    gen = np.random.default_rng(seed + 1)
    offsets = g.offsets
    indices = g.indices
    m = len(indices)
    return {
        "graph": g,
        "offsets": offsets,
        "indices": indices,
        "keys": np.argsort(gen.random(n)).astype(np.int64),
        "colors": gen.integers(0, 6, size=n).astype(np.int64),
        "prio": np.argsort(gen.random(n)).astype(np.int64),
        "active": gen.random(n) < 0.7,
        "idx": gen.integers(0, n, size=m).astype(np.int64),
        "vals_i64": gen.integers(-50, 50, size=m).astype(np.int64),
        "vals_f64": gen.standard_normal(m),
    }


def _rows(offsets, ids):
    """The :meth:`segmented_mex` row form of the vertices ``ids``:
    ``(ids, starts, counts)``."""
    return ids, offsets[ids], offsets[ids + 1] - offsets[ids]


def _conflict_losers_oracle(offsets, indices, colors, prio, ids):
    """The arc-list semantics ``conflict_losers`` had before it returned
    row flags: over the rows ``ids``, the lower-priority endpoint of
    every arc whose endpoints share a positive color, once per arc."""
    counts = offsets[ids + 1] - offsets[ids]
    src = np.repeat(ids, counts)
    dst = indices[arc_positions(offsets, ids, counts)]
    clash = (colors[src] == colors[dst]) & (colors[src] > 0)
    return np.where(prio[src] < prio[dst], src, dst)[clash]


def _active_max_oracle(offsets, indices, keys, active):
    """The n-long max ``active_max`` returned before it answered per
    row: every active vertex's key scattered into its neighbors' slots
    (int64 min where no active neighbor)."""
    n = len(offsets) - 1
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(offsets))
    ok = active[src]
    nmax = np.full(n, np.iinfo(np.int64).min, dtype=np.int64)
    np.maximum.at(nmax, indices[ok], keys[src[ok]])
    return nmax


@pytest.mark.parametrize("name", OPTIONAL)
class TestPrimitiveBitIdentity:
    """Every optional backend's primitives against the reference bits."""

    def test_frontier_compact(self, name):
        be = resolve(name)
        mask = _kernel_inputs()["active"]
        assert np.array_equal(be.frontier_compact(mask), np.flatnonzero(mask))

    def test_map_elementwise(self, name):
        be = resolve(name)
        a = _kernel_inputs()["vals_f64"]
        ref = REFERENCE.map_elementwise(np.negative, a)
        assert np.array_equal(be.map_elementwise(np.negative, a), ref)

    @pytest.mark.parametrize("op", ["max", "min", "sum", "mul"])
    def test_scatter_reduce_i64(self, name, op):
        be, ki = resolve(name), _kernel_inputs()
        n = ki["graph"].num_vertices
        ref = np.zeros(n, dtype=np.int64)
        got = ref.copy()
        REFERENCE.scatter_reduce(ref, ki["idx"], ki["vals_i64"], op)
        be.scatter_reduce(got, ki["idx"], ki["vals_i64"], op)
        assert np.array_equal(ref, got)

    @pytest.mark.parametrize("op", ["max", "min", "sum", "mul"])
    def test_scatter_reduce_f64(self, name, op):
        """Float scatter applies vals in index order — bit identity
        includes accumulation order, not just the math."""
        be, ki = resolve(name), _kernel_inputs()
        n = ki["graph"].num_vertices
        ref = np.zeros(n)
        got = ref.copy()
        REFERENCE.scatter_reduce(ref, ki["idx"], ki["vals_f64"], op)
        be.scatter_reduce(got, ki["idx"], ki["vals_f64"], op)
        assert np.array_equal(ref, got)

    def test_scatter_reduce_f64_nan_propagation(self, name):
        be, ki = resolve(name), _kernel_inputs()
        n = ki["graph"].num_vertices
        vals = ki["vals_f64"].copy()
        vals[::7] = np.nan
        ref = np.zeros(n)
        got = ref.copy()
        REFERENCE.scatter_reduce(ref, ki["idx"], vals, "max")
        be.scatter_reduce(got, ki["idx"], vals, "max")
        assert np.array_equal(ref, got, equal_nan=True)

    def test_scatter_reduce_ufunc_op(self, name):
        """The GraphBLAS layer passes raw ufuncs, not kind strings."""
        be, ki = resolve(name), _kernel_inputs()
        n = ki["graph"].num_vertices
        ref = np.full(n, -(10**9), dtype=np.int64)
        got = ref.copy()
        REFERENCE.scatter_reduce(ref, ki["idx"], ki["vals_i64"], np.maximum)
        be.scatter_reduce(got, ki["idx"], ki["vals_i64"], np.maximum)
        assert np.array_equal(ref, got)

    @pytest.mark.parametrize("dtype", [np.int64, np.float64])
    def test_scatter_hit(self, name, dtype):
        be, ki = resolve(name), _kernel_inputs()
        n = ki["graph"].num_vertices
        vals = ki["vals_i64" if dtype is np.int64 else "vals_f64"]
        ref = np.zeros(n, dtype=dtype)
        ref_hit = np.zeros(n, dtype=bool)
        got, got_hit = ref.copy(), ref_hit.copy()
        REFERENCE.scatter_hit(ref, ref_hit, ki["idx"], vals, "sum")
        be.scatter_hit(got, got_hit, ki["idx"], vals, "sum")
        assert np.array_equal(ref, got)
        assert np.array_equal(ref_hit, got_hit)

    @pytest.mark.parametrize("op", ["max", "min", "sum", "mul"])
    def test_segmented_reduce_i64(self, name, op):
        be, ki = resolve(name), _kernel_inputs()
        starts = ki["offsets"][:-1].copy()
        ref = REFERENCE.segmented_reduce(ki["vals_i64"], starts, op)
        got = be.segmented_reduce(ki["vals_i64"], starts, op)
        assert ref.dtype == got.dtype
        assert np.array_equal(ref, got)

    @pytest.mark.parametrize("op", ["max", "min", "sum", "mul"])
    def test_segmented_reduce_f64(self, name, op):
        """Float add/mul must fall back to reduceat (pairwise
        summation); max/min are order-exact and may run compiled.
        Either way: identical bits."""
        be, ki = resolve(name), _kernel_inputs()
        starts = ki["offsets"][:-1].copy()
        ref = REFERENCE.segmented_reduce(ki["vals_f64"], starts, op)
        got = be.segmented_reduce(ki["vals_f64"], starts, op)
        assert np.array_equal(ref, got)

    def test_segmented_reduce_empty_segment_quirk(self, name):
        """reduceat's single-element result for empty segments
        (starts[i] == starts[i+1]) is part of the contract."""
        be = resolve(name)
        vals = np.array([3, 1, 4, 1, 5, 9, 2, 6], dtype=np.int64)
        starts = np.array([0, 3, 3, 6], dtype=np.int64)
        ref = REFERENCE.segmented_reduce(vals, starts, "sum")
        got = be.segmented_reduce(vals, starts, "sum")
        assert np.array_equal(ref, got)
        assert ref[1] == vals[3]  # the quirk itself, pinned

    def test_segmented_mex(self, name):
        be, ki = resolve(name), _kernel_inputs()
        starts = ki["offsets"][:-1].copy()
        counts = np.diff(ki["offsets"])
        ref = REFERENCE.segmented_mex(
            ki["colors"], ki["indices"], starts, counts
        )
        got = be.segmented_mex(ki["colors"], ki["indices"], starts, counts)
        assert ref.dtype == got.dtype == np.int64
        assert np.array_equal(ref, got)

    def test_segmented_mex_subsets(self, name):
        """Sub-CSR segments (counts < full degree) — the speculative
        propose kernel's calling convention."""
        be, ki = resolve(name), _kernel_inputs()
        gen = np.random.default_rng(77)
        full = np.diff(ki["offsets"])
        counts = (full * gen.random(len(full))).astype(np.int64)
        starts = ki["offsets"][:-1].copy()
        ref = REFERENCE.segmented_mex(
            ki["colors"], ki["indices"], starts, counts
        )
        got = be.segmented_mex(ki["colors"], ki["indices"], starts, counts)
        assert np.array_equal(ref, got)

    def test_active_max(self, name):
        be, ki = resolve(name), _kernel_inputs()
        args = (ki["offsets"], ki["indices"], ki["keys"], ki["active"])
        ids = np.flatnonzero(ki["active"])
        ref = REFERENCE.active_max(*args, ids)
        got = be.active_max(*args, ids)
        assert ref.dtype == got.dtype == np.bool_
        assert np.array_equal(ref, got)

    def test_active_extrema(self, name):
        be, ki = resolve(name), _kernel_inputs()
        rmax, rmin = REFERENCE.active_extrema(
            ki["offsets"], ki["indices"], ki["keys"], ki["active"]
        )
        gmax, gmin = be.active_extrema(
            ki["offsets"], ki["indices"], ki["keys"], ki["active"]
        )
        assert np.array_equal(rmax, gmax)
        assert np.array_equal(rmin, gmin)

    def test_conflict_losers(self, name):
        be, ki = resolve(name), _kernel_inputs()
        ids = np.flatnonzero(ki["active"])
        args = (ki["colors"], ki["indices"]) + _rows(ki["offsets"], ids)
        ref = REFERENCE.conflict_losers(*args, ki["prio"])
        got = be.conflict_losers(*args, ki["prio"])
        assert np.array_equal(ref, got)

    def test_unsupported_dtype_falls_back(self, name):
        """int32 inputs have no compiled kernel — delegation, not a
        crash, not different bits."""
        be = resolve(name)
        out_ref = np.zeros(5, dtype=np.int32)
        out_got = out_ref.copy()
        idx = np.array([0, 1, 1, 4], dtype=np.int64)
        vals = np.array([1, 2, 3, 4], dtype=np.int32)
        REFERENCE.scatter_reduce(out_ref, idx, vals, "sum")
        be.scatter_reduce(out_got, idx, vals, "sum")
        assert np.array_equal(out_ref, out_got)

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_property_random_mex_and_extrema(self, name, data):
        """Hypothesis sweep: random CSR-shaped inputs, same bits."""
        be = resolve(name)
        n = data.draw(st.integers(min_value=1, max_value=16), label="n")
        deg = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=6),
                min_size=n,
                max_size=n,
            ),
            label="degrees",
        )
        offsets = np.concatenate(
            [[0], np.cumsum(np.asarray(deg, dtype=np.int64))]
        )
        m = int(offsets[-1])
        idx_src = st.integers(min_value=0, max_value=n - 1)
        indices = np.asarray(
            data.draw(
                st.lists(idx_src, min_size=m, max_size=m), label="indices"
            ),
            dtype=np.int64,
        )
        colors = np.asarray(
            data.draw(
                st.lists(
                    st.integers(min_value=-1, max_value=5),
                    min_size=n,
                    max_size=n,
                ),
                label="colors",
            ),
            dtype=np.int64,
        )
        keys = np.arange(n, dtype=np.int64)
        active = np.asarray(
            data.draw(
                st.lists(st.booleans(), min_size=n, max_size=n),
                label="active",
            )
        )
        starts, counts = offsets[:-1].copy(), np.diff(offsets)
        assert np.array_equal(
            REFERENCE.segmented_mex(colors, indices, starts, counts),
            be.segmented_mex(colors, indices, starts, counts),
        )
        rmax, rmin = REFERENCE.active_extrema(offsets, indices, keys, active)
        gmax, gmin = be.active_extrema(offsets, indices, keys, active)
        assert np.array_equal(rmax, gmax)
        assert np.array_equal(rmin, gmin)


def _as_csr(offsets, indices):
    return np.asarray(offsets, dtype=np.int64), np.asarray(indices, dtype=np.int64)


#: A star: hub 0 with leaves 1, 2, 3 (row 0 lists them in that order).
STAR = ([0, 3, 4, 5, 6], [1, 2, 3, 0, 0, 0])


@pytest.mark.parametrize("name", available_backends())
class TestActiveMaxRows:
    """``active_max`` answers, per row ``ids[i]``, whether the key beats
    every active neighbor; the oracle is the old push scatter, compared
    against ``keys[ids]``, on every backend."""

    @staticmethod
    def _check(name, offsets, indices, keys, active, ids):
        offsets, indices = _as_csr(offsets, indices)
        keys = np.asarray(keys, dtype=np.int64)
        active = np.asarray(active, dtype=bool)
        ids = np.asarray(ids, dtype=np.int64)
        got = resolve(name).active_max(offsets, indices, keys, active, ids)
        want = keys[ids] > _active_max_oracle(offsets, indices, keys, active)[ids]
        assert got.dtype == np.bool_ and got.shape == ids.shape
        assert got.tolist() == want.tolist()
        return got.tolist()

    def test_empty_rows(self, name):
        ki = _kernel_inputs()
        assert self._check(
            name, ki["offsets"], ki["indices"], ki["keys"], ki["active"], []
        ) == []

    def test_isolated_row_wins(self, name):
        # Vertex 2 has no neighbors; 0-1 is an edge.
        got = self._check(name, [0, 1, 2, 2], [1, 0], [4, 7, 0], [True] * 3, [0, 1, 2])
        assert got == [False, True, True]

    def test_int64_min_key_never_wins(self, name):
        low = np.iinfo(np.int64).min
        got = self._check(name, [0, 0, 0], [], [low, 0], [True, True], [0, 1])
        assert got == [False, True]

    def test_inactive_higher_neighbor_is_ignored(self, name):
        # Leaf 1 outranks the hub but is inactive.
        got = self._check(name, *STAR, [5, 9, 1, 2], [True, False, True, True], [0, 2, 3])
        assert got == [True, False, False]

    def test_deciding_arc_first_in_row(self, name):
        got = self._check(name, *STAR, [5, 9, 1, 2], [True] * 4, [0, 1, 2, 3])
        assert got == [False, True, False, False]

    def test_deciding_arc_last_in_row(self, name):
        got = self._check(name, *STAR, [5, 1, 2, 9], [True] * 4, [0, 1, 2, 3])
        assert got == [False, False, False, True]

    def test_equal_key_neighbor_decides(self, name):
        # A tie is not a strict win, for either endpoint.
        got = self._check(name, *STAR, [5, 1, 5, 2], [True] * 4, [0, 2])
        assert got == [False, False]

    @settings(max_examples=80, deadline=None)
    @given(csr=symmetric_csr(), data=st.data())
    def test_property_symmetric_csr(self, name, csr, data):
        offsets, indices = csr
        n = len(offsets) - 1
        low, high = np.iinfo(np.int64).min, np.iinfo(np.int64).max
        keys = data.draw(
            st.lists(
                st.one_of(st.integers(-3, 3), st.sampled_from([low, high])),
                min_size=n,
                max_size=n,
            ),
            label="keys",
        )
        active = np.asarray(
            data.draw(st.lists(st.booleans(), min_size=n, max_size=n), label="active"),
            dtype=bool,
        )
        pick = data.draw(
            st.lists(st.booleans(), min_size=n, max_size=n), label="ids"
        )
        ids = np.flatnonzero(active & np.asarray(pick, dtype=bool))
        self._check(name, offsets, indices, keys, active, ids)


@pytest.mark.parametrize("name", available_backends())
class TestConflictLosersRows:
    """``conflict_losers`` flags row ``i`` exactly when ``ids[i]`` is
    among the old arc-list losers of the same rows, on every backend
    (symmetric CSR, distinct priorities: the colorings' precondition)."""

    @staticmethod
    def _check(name, offsets, indices, colors, prio, ids):
        offsets, indices = _as_csr(offsets, indices)
        colors = np.asarray(colors, dtype=np.int64)
        prio = np.asarray(prio, dtype=np.int64)
        ids = np.asarray(ids, dtype=np.int64)
        got = resolve(name).conflict_losers(
            colors, indices, *_rows(offsets, ids), prio
        )
        want = np.isin(
            ids, _conflict_losers_oracle(offsets, indices, colors, prio, ids)
        )
        assert got.dtype == np.bool_ and got.shape == ids.shape
        assert got.tolist() == want.tolist()
        return got.tolist()

    def test_empty_frontier(self, name):
        ki = _kernel_inputs()
        assert self._check(
            name, ki["offsets"], ki["indices"], ki["colors"], ki["prio"], []
        ) == []

    def test_isolated_rows_and_uncolored_sources(self, name):
        # 0-1 and 2-3 clash on color 2; 4 and 5 are isolated; 6-7 share
        # color 0, which is never a clash.
        offsets = [0, 1, 2, 3, 4, 4, 4, 5, 6]
        indices = [1, 0, 3, 2, 7, 6]
        colors = [2, 2, 2, 2, 1, 1, 0, 0]
        prio = [5, 3, 0, 9, 1, 2, 7, 6]
        got = self._check(name, offsets, indices, colors, prio, range(8))
        assert got == [False, True, True, False, False, False, False, False]

    def test_color_zero_source_never_loses(self, name):
        # Vertex 0 is uncolored beside higher-priority vertices that
        # are uncolored too (0 == 0) or colored -1.
        got = self._check(name, [0, 2, 3, 4], [1, 2, 0, 0], [0, 0, -1], [0, 1, 2], [0, 1])
        assert got == [False, False]

    def test_deciding_arc_first_in_row(self, name):
        got = self._check(name, *STAR, [1, 1, 1, 1], [2, 9, 0, 1], range(4))
        assert got == [True, False, True, True]

    def test_deciding_arc_last_in_row(self, name):
        got = self._check(name, *STAR, [1, 2, 3, 1], [2, 0, 1, 9], range(4))
        assert got == [True, False, False, False]

    def test_duplicate_clashes(self, name):
        # The hub repeats neighbor 1 (one old loser entry per copy, one
        # flag here); row 2 is not scanned, yet the hub loses to vertex
        # 2 from its own row.
        offsets = [0, 4, 5, 6, 8]
        indices = [1, 1, 2, 3, 0, 0, 0, 0]
        got = self._check(name, offsets, indices, [4, 4, 4, 4], [1, 0, 3, 2], [0, 1, 3])
        assert got == [True, True, False]

    @settings(max_examples=80, deadline=None)
    @given(csr=symmetric_csr(), data=st.data())
    def test_property_arbitrary_csr(self, name, csr, data):
        offsets, indices = csr
        n = len(offsets) - 1
        colors = data.draw(
            st.lists(st.integers(-1, 3), min_size=n, max_size=n), label="colors"
        )
        prio = data.draw(st.permutations(range(n)), label="prio")
        rows = data.draw(
            st.lists(st.booleans(), min_size=n, max_size=n), label="rows"
        )
        ids = np.flatnonzero(np.asarray(rows, dtype=bool))
        self._check(name, offsets, indices, colors, prio, ids)


# ---------------------------------------------------------------------------
# Selection semantics
# ---------------------------------------------------------------------------


class TestSelection:
    def test_default_is_reference(self, clean_selection):
        assert DEFAULT_BACKEND == "reference"
        assert resolve(None).name == "reference"
        assert current().name == "reference"

    def test_env_var_selects(self, clean_selection, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "reference")
        assert resolve(None) is resolve("reference")

    def test_explicit_name_beats_env(self, clean_selection, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "no-such-backend")
        # The env var is only consulted when no name is given.
        assert resolve("reference").name == "reference"

    def test_unknown_name_raises(self, clean_selection):
        with pytest.raises(BackendError, match="unknown backend"):
            resolve("no-such-backend")

    def test_instance_passthrough(self, clean_selection):
        be = ReferenceBackend()
        assert resolve(be) is be

    def test_resolve_caches_instances(self, clean_selection):
        assert resolve("reference") is resolve("reference")

    def test_use_scopes_current(self, clean_selection):
        be = ReferenceBackend()
        assert current() is not be
        with use(be):
            assert current() is be
            with use(resolve("reference")):
                assert current() is resolve("reference")
            assert current() is be
        assert current() is not be

    def test_known_backends_catalog(self):
        assert KNOWN_BACKENDS == ("reference", "cnative")

    def test_backend_is_the_reference_class(self, clean_selection):
        """The reference implementation is the base class, and every
        instance exposes the nine primitives by name."""
        assert Backend is ReferenceBackend
        primitives = (
            "map_elementwise", "frontier_compact", "scatter_reduce",
            "scatter_hit", "segmented_reduce", "segmented_mex",
            "active_max", "active_extrema", "conflict_losers",
        )
        for name in available_backends():
            be = resolve(name)
            assert isinstance(be, Backend)
            assert all(callable(getattr(be, p)) for p in primitives), name

    def test_numba_is_unknown(self, clean_selection):
        with pytest.raises(BackendError, match="unknown backend 'numba'"):
            resolve("numba")

    def test_cli_rejects_numba(self, capsys):
        from repro.harness.__main__ import main as harness_main

        with pytest.raises(SystemExit) as exc:
            harness_main(["bench", "--backend", "numba"])
        assert exc.value.code == 2

    def test_available_backends_includes_reference(self, clean_selection):
        avail = available_backends()
        assert "reference" in avail
        assert set(avail) <= set(KNOWN_BACKENDS)

    def test_available_backends_does_not_warn(self, clean_selection):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            available_backends()

    def test_unknown_op_raises(self):
        with pytest.raises(BackendError, match="unknown reduction op"):
            resolve_op("median")

class TestCNativeAbsentFallback:
    """REPRO_BACKEND=cnative on a machine without a C compiler must
    warn once and run the reference backend bit-identically."""

    def test_resolve_warns_once_and_falls_back(self, no_compiler):
        with pytest.warns(RuntimeWarning, match="cnative.*reference"):
            be = resolve("cnative")
        assert be.name == "reference"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # second resolve is silent
            again = resolve("cnative")
        assert again is be

    def test_env_selection_warns_once_and_falls_back(
        self, no_compiler, monkeypatch
    ):
        monkeypatch.setenv(ENV_VAR, "cnative")
        with pytest.warns(RuntimeWarning, match="cnative"):
            be = current()
        assert be.name == "reference"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert current() is be

    def test_run_is_bit_identical_to_reference(
        self, no_compiler, monkeypatch
    ):
        graph = random_graph(30, 0.2, 5)
        ref = run_algorithm("gunrock.is", graph, rng=7)
        monkeypatch.setenv(ENV_VAR, "cnative")
        with pytest.warns(RuntimeWarning, match="cnative"):
            got = run_algorithm("gunrock.is", graph, rng=7)
        assert np.array_equal(ref.colors, got.colors)
        assert ref.sim_ms == got.sim_ms
        assert ref.iterations == got.iterations

    def test_available_backends_reports_cnative_absent(self, no_compiler):
        assert "cnative" not in available_backends()


# ---------------------------------------------------------------------------
# End-to-end plumbing
# ---------------------------------------------------------------------------


def _trajectory(result):
    return (
        hashlib.sha256(result.colors.tobytes()).hexdigest(),
        result.num_colors,
        result.sim_ms,
        result.iterations,
    )


@pytest.mark.parametrize("name", OPTIONAL)
class TestEndToEndBitIdentity:
    ALGOS = ("gunrock.is", "graphblas.mis", "naumov.jpl", "gunrock.hash")

    def test_run_algorithm_matches_reference(self, name):
        graph = random_graph(36, 0.18, 11)
        for algo in self.ALGOS:
            ref = run_algorithm(algo, graph, rng=3, backend="reference")
            got = run_algorithm(algo, graph, rng=3, backend=name)
            assert _trajectory(ref) == _trajectory(got), algo

    def test_use_scope_routes_run_algorithm(self, name):
        graph = random_graph(36, 0.18, 11)
        ref = run_algorithm("gunrock.is", graph, rng=3)
        with use(resolve(name)):
            got = run_algorithm("gunrock.is", graph, rng=3)
        assert _trajectory(ref) == _trajectory(got)

    def test_trace_carries_backend_label(self, name):
        from repro.trace import activate as trace_activate

        graph = random_graph(24, 0.2, 13)
        with trace_activate():
            ref = run_algorithm(
                "gunrock.is", graph, rng=3, backend="reference"
            )
            got = run_algorithm("gunrock.is", graph, rng=3, backend=name)
        assert ref.trace.backend == "reference"
        assert got.trace.backend == name
        # The label is informational: same run, same fingerprint.
        assert ref.trace.fingerprint() == got.trace.fingerprint()

    def test_run_cell_matches_reference(self, name):
        from repro.harness.runner import run_cell

        graph = random_graph(30, 0.2, 17)
        ref = run_cell(
            graph, "gunrock.is", repetitions=2, seed=42, backend="reference"
        )
        got = run_cell(
            graph, "gunrock.is", repetitions=2, seed=42, backend=name
        )
        assert ref.sim_ms == got.sim_ms
        assert ref.colors == got.colors
        assert ref.iterations == got.iterations

    def test_run_grid_parallel_matches_reference(
        self, name, tmp_path, monkeypatch
    ):
        from repro.harness.runner import run_grid

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        kwargs = dict(
            scale_div=4096, repetitions=2, seed=7, jobs=2, timeout=120.0
        )
        ref = run_grid(["offshore"], ["gunrock.is"], **kwargs)
        got = run_grid(
            ["offshore"], ["gunrock.is"], backend=name, **kwargs
        )
        assert len(ref) == len(got) == 1
        assert ref[0].status == got[0].status == "ok"
        assert ref[0].sim_ms == got[0].sim_ms
        assert ref[0].colors == got[0].colors
        assert ref[0].valid and got[0].valid


class TestJournalBackendHash:
    CONFIG = dict(
        datasets=["offshore"],
        algorithms=["gunrock.is"],
        scale_div=512,
        seed=1,
        repetitions=3,
    )

    def test_backends_hash_apart(self):
        from repro.harness.journal import config_hash

        hashes = {
            config_hash(backend=b, **self.CONFIG)
            for b in ("reference", "cnative")
        }
        assert len(hashes) == 2

    def test_default_matches_ambient_selection(
        self, clean_selection, monkeypatch
    ):
        from repro.harness.journal import config_hash

        assert config_hash(**self.CONFIG) == config_hash(
            backend="reference", **self.CONFIG
        )

    def test_metrics_labels_carry_backend(self, clean_selection):
        from repro.core.result import ColoringResult
        from repro.metrics import result_labels

        r = ColoringResult(
            colors=np.array([1, 2], dtype=np.int64), algorithm="x"
        )
        assert result_labels(r)["backend"] == "reference"
        assert (
            result_labels(r, backend="cnative")["backend"] == "cnative"
        )


class TestBenchBackend:
    def test_environment_records_backend(self):
        from repro.harness.bench import _environment

        assert _environment("cnative")["backend"] == "cnative"
        assert _environment()["backend"] == "reference"

    def test_bench_backend_default_for_old_docs(self):
        from repro.harness.bench import bench_backend

        assert bench_backend({}) == "reference"
        assert (
            bench_backend({"environment": {"backend": "cnative"}}) == "cnative"
        )

    def test_compare_refuses_cross_backend(self):
        from repro.harness.bench import BenchBackendMismatch, compare_bench

        cur = {"environment": {"backend": "cnative"}, "cells": []}
        base = {"environment": {"backend": "reference"}, "cells": []}
        with pytest.raises(BenchBackendMismatch, match="different backends"):
            compare_bench(cur, base)
        # The override still compares the simulated quantities.
        assert compare_bench(cur, base, ignore_backend=True) == []

    def test_exit_usage_is_two(self):
        from repro.harness.__main__ import EXIT_USAGE

        assert EXIT_USAGE == 2

    def test_cli_rejects_unknown_backend(self, capsys):
        from repro.harness.__main__ import main as harness_main

        with pytest.raises(SystemExit) as exc:
            harness_main(["bench", "--backend", "no-such-backend"])
        assert exc.value.code == 2
