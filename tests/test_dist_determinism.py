"""Cross-device determinism for the distributed implementations
(docs/distributed.md).

The distributed contract under test, end to end:

* every device count produces a **proper, complete** coloring (zero
  conflicts), and the coloring is **invariant in the device count** —
  partitioning changes where cost is charged, never what is computed;
* the grid runner reproduces distributed cells **bit-identically**
  under ``jobs>1`` and under journaled ``resume=True``;
* activating metrics or tracing does not move a single bit;
* every loadable kernel-execution backend agrees with reference;
* the ``edge_cut`` partitioner computes the same colors as ``block``,
  and its halo traffic matches the materialized partition's boundary.

The golden wall (``test_golden_dist.py``) pins three fixed graphs; this
suite quantifies the same guarantees over hypothesis-generated graphs
and the harness surfaces the goldens cannot reach.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend import available_backends, resolve, use
from repro.core.dist import HALO_BYTES_PER_VERTEX
from repro.core.registry import run_algorithm
from repro.core.validate import is_valid_coloring
from repro.graph.partition import PARTITION_METHODS, partition_graph
from repro.harness import datasets as ds
from repro.harness import faults
from repro.harness.runner import run_grid
from repro.metrics import activate as metrics_activate
from repro.trace import activate as trace_activate

from _strategies import graphs

OPTIONAL_BACKENDS = [b for b in available_backends() if b != "reference"]

DIST_ALGORITHMS = ("dist.jpl", "dist.speculative")

#: Tiny all-dist grid reused by the runner-level tests.
GRID_DATASETS = ["rgg_n_2_8_s0", "rmat_n_2_6"]
GRID_ALGOS = ["dist.jpl@d1", "dist.jpl@d2", "dist.speculative@d4"]


def _fingerprint(impl, graph, *, num_devices, rng=77):
    result = run_algorithm(impl, graph, rng=rng, num_devices=num_devices)
    assert result.is_complete
    assert is_valid_coloring(graph, result.colors)
    return (
        result.colors.tobytes(),
        result.sim_ms,
        result.iterations,
        tuple(result.counters.records),
    )


class TestDeviceCountInvariance:
    @pytest.mark.parametrize("impl", DIST_ALGORITHMS)
    @settings(max_examples=25, deadline=None)
    @given(
        g=graphs(max_vertices=20, max_edges=60),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_colors_invariant_and_proper_at_every_count(self, impl, g, seed):
        counts = [k for k in (1, 2, 3, 4, 7) if k <= g.num_vertices]
        outs = []
        for k in counts:
            result = run_algorithm(impl, g, rng=seed, num_devices=k)
            assert result.is_complete, (impl, k)
            assert is_valid_coloring(g, result.colors), (impl, k)
            outs.append(result.colors.tobytes())
        assert len(set(outs)) == 1, f"{impl}: colors vary with device count"

    @pytest.mark.parametrize("partitioner", PARTITION_METHODS)
    @pytest.mark.parametrize("impl", DIST_ALGORITHMS)
    @settings(max_examples=30, deadline=None)
    @given(
        g=graphs(max_vertices=24, max_edges=80),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        data=st.data(),
    )
    def test_any_device_count_matches_one_device(
        self, impl, partitioner, g, seed, data
    ):
        # k > n leaves devices idle; they must change nothing.
        k = data.draw(st.integers(min_value=1, max_value=g.num_vertices + 4), label="k")
        one = run_algorithm(f"{impl}@d1", g, rng=seed)
        many = run_algorithm(
            impl, g, rng=seed, num_devices=k, partitioner=partitioner
        )
        assert many.colors.tobytes() == one.colors.tobytes()
        assert many.iterations == one.iterations

    @pytest.mark.parametrize("impl", DIST_ALGORITHMS)
    def test_repeat_runs_are_bit_identical(self, petersen, impl):
        a = _fingerprint(impl, petersen, num_devices=3)
        b = _fingerprint(impl, petersen, num_devices=3)
        assert a == b


class TestObservabilityNonPerturbation:
    @pytest.mark.parametrize("impl", DIST_ALGORITHMS)
    def test_metrics_activation_changes_nothing(self, petersen, impl):
        plain = _fingerprint(impl, petersen, num_devices=2)
        with metrics_activate():
            observed = _fingerprint(impl, petersen, num_devices=2)
        assert observed == plain

    @pytest.mark.parametrize("impl", DIST_ALGORITHMS)
    def test_trace_activation_changes_nothing(self, petersen, impl):
        plain = _fingerprint(impl, petersen, num_devices=2)
        with trace_activate():
            observed = _fingerprint(impl, petersen, num_devices=2)
        assert observed == plain

    @pytest.mark.parametrize("impl", DIST_ALGORITHMS)
    def test_merged_trace_spans_every_device(self, petersen, impl):
        with trace_activate():
            result = run_algorithm(impl, petersen, rng=5, num_devices=3)
        assert result.trace is not None
        assert {s.device for s in result.trace.spans} == {0, 1, 2}


@pytest.mark.parametrize("backend_name", OPTIONAL_BACKENDS)
@pytest.mark.parametrize("impl", DIST_ALGORITHMS)
def test_backends_bit_identical(petersen, impl, backend_name):
    ref = _fingerprint(impl, petersen, num_devices=4)
    with use(resolve(backend_name)):
        other = _fingerprint(impl, petersen, num_devices=4)
    assert other == ref


class TestEdgeCutPartitioner:
    @pytest.fixture(scope="class")
    def rgg(self):
        return ds.generate("rgg_n_2_8_s0", seed=3)

    @staticmethod
    def _halo_work(result):
        """Per-device ``halo_exchange`` record work, in charge order."""
        out = {}
        for r in result.counters.records:
            if r.kind == "halo" and r.name == "halo_exchange":
                out.setdefault(r.device, []).append(r.work)
        return out

    @staticmethod
    def _boundary_counts(graph, k):
        part = partition_graph(graph, k, method="edge_cut")
        return {p.device: int(p.boundary.sum()) for p in part.parts}

    @pytest.mark.parametrize("k", (2, 4))
    @pytest.mark.parametrize("impl", DIST_ALGORITHMS)
    def test_colors_match_block_and_single_device(self, rgg, impl, k):
        single = run_algorithm(f"{impl}@d1", rgg, rng=11)
        block = run_algorithm(impl, rgg, rng=11, num_devices=k)
        cut = run_algorithm(
            impl, rgg, rng=11, num_devices=k, partitioner="edge_cut"
        )
        assert cut.is_complete and is_valid_coloring(rgg, cut.colors)
        assert cut.colors.tobytes() == block.colors.tobytes()
        assert cut.colors.tobytes() == single.colors.tobytes()
        assert cut.iterations == block.iterations == single.iterations

    @pytest.mark.parametrize("k", (2, 4))
    def test_jpl_halo_work_is_boundary_bytes(self, rgg, k):
        # Every vertex wins exactly one JPL superstep, so a device's
        # halo traffic over the run is one message per boundary vertex.
        result = run_algorithm(
            "dist.jpl", rgg, rng=11, num_devices=k, partitioner="edge_cut"
        )
        halo = self._halo_work(result)
        for d, nb in self._boundary_counts(rgg, k).items():
            assert sum(halo[d]) == HALO_BYTES_PER_VERTEX * nb

    @pytest.mark.parametrize("k", (2, 4))
    def test_speculative_first_halo_is_boundary_bytes(self, rgg, k):
        # Round 1 speculates every vertex, so its halo exchange carries
        # exactly one message per boundary vertex of each device.
        result = run_algorithm(
            "dist.speculative",
            rgg,
            rng=11,
            num_devices=k,
            partitioner="edge_cut",
        )
        halo = self._halo_work(result)
        for d, nb in self._boundary_counts(rgg, k).items():
            assert halo[d][0] == HALO_BYTES_PER_VERTEX * nb


def _identity_fields(cell):
    return (
        cell.dataset,
        cell.algorithm,
        cell.colors,
        cell.sim_ms,
        cell.iterations,
        cell.valid,
        cell.status,
    )


class TestGridDeterminism:
    CFG = dict(scale_div=1, repetitions=2, seed=31)

    def test_parallel_grid_matches_sequential(self):
        seq = run_grid(
            GRID_DATASETS, GRID_ALGOS, jobs=1, journal=False, **self.CFG
        )
        par = run_grid(
            GRID_DATASETS, GRID_ALGOS, jobs=3, journal=False, **self.CFG
        )
        assert all(c.ok for c in seq)
        assert [_identity_fields(c) for c in seq] == [
            _identity_fields(c) for c in par
        ]

    def test_interrupted_then_resumed_grid_is_bit_identical(
        self, tmp_path, monkeypatch
    ):
        # Journals live under the cache dir; keep them test-private.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        ref = run_grid(
            GRID_DATASETS, GRID_ALGOS, jobs=1, journal=False, **self.CFG
        )
        fired = {"n": 0}

        def interrupt(site):
            fired["n"] += 1
            if fired["n"] == 5:
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            with faults.injected(interrupt):
                run_grid(GRID_DATASETS, GRID_ALGOS, jobs=1, **self.CFG)
        executed = []
        with faults.injected(lambda s: executed.append(s)):
            resumed = run_grid(
                GRID_DATASETS, GRID_ALGOS, jobs=1, resume=True, **self.CFG
            )
        assert executed, "resume re-ran nothing; the interrupt fired too late"
        assert [_identity_fields(c) for c in resumed] == [
            _identity_fields(c) for c in ref
        ]
