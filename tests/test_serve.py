"""The coloring service's robustness contract (the serve PR tentpole).

Every submitted request gets exactly one terminal response; non-degraded
results are bit-identical to the direct harness path; overload sheds
with a reason; deadlines, retries, the circuit breaker, and the
degradation ladder each demonstrably do their job under injected
faults.
"""

import io
import json
import time

import numpy as np
import pytest

from repro import log as runlog
from repro import metrics
from repro.core.registry import run_algorithm
from repro.harness import datasets as ds
from repro.serve import (
    TERMINAL_STATUSES,
    ColoringRequest,
    ServeClient,
    ServeConfig,
    ladder,
)
from repro.serve.breaker import CircuitBreaker
from repro.serve.request import coloring_sha256

from _strategies import random_graph

SMALL_DIV = 512


@pytest.fixture
def fault_state(tmp_path, monkeypatch):
    """Isolated cross-process tick-file directory for times= budgets."""
    monkeypatch.setenv("REPRO_FAULTS_STATE", str(tmp_path / "fault-state"))
    return tmp_path


def _client(**overrides):
    cfg = dict(workers=2, queue_limit=16, retries=2, scale_div=SMALL_DIV)
    cfg.update(overrides)
    return ServeClient(ServeConfig(**cfg))


class TestAdmission:
    def test_unknown_impl_rejected(self):
        with _client() as client:
            r = client.submit(
                ColoringRequest(impl="nope.impl", dataset="ecology2")
            )
        assert r.status == "rejected"
        assert r.reason == "unknown_impl"

    def test_parameterized_dist_id_served(self):
        """Admission resolves ids like the registry does: a ``@dN``
        device-count suffix on a distributed id is a known impl."""
        with _client() as client:
            r = client.submit(
                ColoringRequest(impl="dist.jpl@d2", dataset="ecology2", seed=7)
            )
        assert (r.status, r.impl_used) == ("ok", "dist.jpl@d2")
        direct = run_algorithm(
            "dist.jpl@d2",
            ds.load("ecology2", scale_div=SMALL_DIV, seed=7),
            rng=7,
        )
        assert (r.colors == direct.colors).all()
        assert r.sim_ms == direct.sim_ms

    def test_unknown_parameterized_dist_id_rejected(self):
        with _client() as client:
            r = client.submit(
                ColoringRequest(impl="dist.nope@d2", dataset="ecology2")
            )
        assert (r.status, r.reason) == ("rejected", "unknown_impl")

    def test_unknown_dataset_rejected(self):
        with _client() as client:
            r = client.submit(
                ColoringRequest(impl="cpu.greedy", dataset="atlantis")
            )
        assert (r.status, r.reason) == ("rejected", "unknown_dataset")

    def test_unknown_backend_rejected(self):
        with _client() as client:
            r = client.submit(
                ColoringRequest(
                    impl="cpu.greedy", dataset="ecology2", backend="tpu"
                )
            )
        assert (r.status, r.reason) == ("rejected", "unknown_backend")

    def test_dataset_and_graph_both_or_neither_rejected(self, petersen):
        with _client() as client:
            both = client.submit(
                ColoringRequest(
                    impl="cpu.greedy", dataset="ecology2", graph=petersen
                )
            )
            neither = client.submit(ColoringRequest(impl="cpu.greedy"))
        assert (both.status, both.reason) == ("rejected", "bad_request")
        assert (neither.status, neither.reason) == ("rejected", "bad_request")

    def test_queue_full_sheds_with_reason(self, fault_state, monkeypatch):
        """One worker wedged on a slow request, a bounded queue behind
        it: exactly queue_limit requests are admitted, the rest shed."""
        monkeypatch.setenv(
            "REPRO_FAULTS", "delay@ecology2:*:*:site=serve:s=0.6:times=1"
        )
        with _client(workers=1, queue_limit=2) as client:
            slow = client.submit_async(
                ColoringRequest(
                    impl="cpu.greedy", dataset="ecology2", seed=1
                )
            )
            time.sleep(0.2)  # let the worker pick it up and block
            flood = [
                client.submit_async(
                    ColoringRequest(
                        impl="cpu.greedy", dataset="offshore", seed=i
                    )
                )
                for i in range(5)
            ]
            responses = [slow.result(30)] + [f.result(30) for f in flood]
        statuses = [r.status for r in responses]
        assert statuses[0] == "ok"
        assert statuses.count("ok") == 3  # the wedged one + queue_limit
        shed = [r for r in responses if r.status == "rejected"]
        assert len(shed) == 3
        assert all(r.reason == "queue_full" for r in shed)

    def test_every_status_is_terminal(self):
        assert TERMINAL_STATUSES == {
            "ok", "degraded", "rejected", "timeout", "failed",
        }


class TestBitExactness:
    def test_served_result_matches_direct_run(self):
        req = ColoringRequest(
            impl="gunrock.hash", dataset="ecology2", seed=7
        )
        with _client() as client:
            served = client.submit(req)
        assert served.status == "ok"
        assert served.source == "computed"
        direct = run_algorithm(
            "gunrock.hash",
            ds.load("ecology2", scale_div=SMALL_DIV, seed=7),
            rng=7,
        )
        assert (served.colors == direct.colors).all()
        assert served.sim_ms == direct.sim_ms
        assert served.iterations == direct.iterations
        assert served.num_colors == direct.num_colors
        assert served.coloring_sha256 == coloring_sha256(direct.colors)

    def test_cache_hit_is_bit_identical(self):
        req = dict(impl="gunrock.hash", dataset="ecology2", seed=7)
        with _client() as client:
            first = client.submit(ColoringRequest(**req))
            second = client.submit(ColoringRequest(**req))
        assert first.source == "computed" and second.source == "cache"
        assert second.status == "ok"
        assert (second.colors == first.colors).all()
        assert second.sim_ms == first.sim_ms
        assert second.coloring_sha256 == first.coloring_sha256

    def test_cache_respects_seed(self):
        with _client() as client:
            a = client.submit(
                ColoringRequest(impl="cpu.greedy", dataset="ecology2", seed=1)
            )
            b = client.submit(
                ColoringRequest(impl="cpu.greedy", dataset="ecology2", seed=2)
            )
        assert a.source == b.source == "computed"  # different cache keys

    def test_inline_graph_served(self, petersen):
        with _client() as client:
            r = client.submit(
                ColoringRequest(impl="graphblas.mis", graph=petersen, seed=3)
            )
        direct = run_algorithm("graphblas.mis", petersen, rng=3)
        assert r.status == "ok"
        assert (r.colors == direct.colors).all()
        assert r.dataset == "petersen" if petersen.name else True


class TestDeadline:
    def test_slow_compute_times_out(self, fault_state, monkeypatch):
        monkeypatch.setenv(
            "REPRO_FAULTS", "delay@ecology2:*:*:site=serve:s=2.0"
        )
        with _client(workers=1) as client:
            r = client.submit(
                ColoringRequest(
                    impl="cpu.greedy",
                    dataset="ecology2",
                    deadline_s=0.2,
                )
            )
        assert (r.status, r.reason) == ("timeout", "deadline")
        assert not r.has_result

    def test_default_deadline_from_config(self, fault_state, monkeypatch):
        monkeypatch.setenv(
            "REPRO_FAULTS", "delay@ecology2:*:*:site=serve:s=2.0"
        )
        with _client(workers=1, default_deadline_s=0.2) as client:
            r = client.submit(
                ColoringRequest(impl="cpu.greedy", dataset="ecology2")
            )
        assert r.status == "timeout"

    def test_generous_deadline_succeeds(self):
        with _client() as client:
            r = client.submit(
                ColoringRequest(
                    impl="cpu.greedy", dataset="ecology2", deadline_s=60.0
                )
            )
        assert r.status == "ok"
        assert r.latency_s < 60.0


class TestRetry:
    def test_transient_fault_retried_to_identical_success(
        self, fault_state, monkeypatch
    ):
        monkeypatch.setenv(
            "REPRO_FAULTS",
            "raise@ecology2:gunrock.hash:*:site=serve:times=1",
        )
        with _client() as client:
            r = client.submit(
                ColoringRequest(impl="gunrock.hash", dataset="ecology2", seed=5)
            )
        assert r.status == "ok"
        assert r.attempts == 2  # one failure, one success
        direct = run_algorithm(
            "gunrock.hash",
            ds.load("ecology2", scale_div=SMALL_DIV, seed=5),
            rng=5,
        )
        assert (r.colors == direct.colors).all()  # same seed on retry

    def test_worker_kill_is_transient(self, fault_state, monkeypatch):
        monkeypatch.setenv(
            "REPRO_FAULTS", "kill@ecology2:cpu.greedy:0:site=serve:times=1"
        )
        with metrics.activate() as reg, _client() as client:
            r = client.submit(
                ColoringRequest(impl="cpu.greedy", dataset="ecology2")
            )
        assert r.status == "ok" and r.attempts == 2
        assert (
            reg.get("repro_serve_worker_kills_total", dataset="ecology2")
            == 1.0
        )


class TestDegradation:
    def test_retries_exhausted_degrades_down_ladder(
        self, fault_state, monkeypatch
    ):
        monkeypatch.setenv(
            "REPRO_FAULTS", "kill@ecology2:gunrock.hash:*:site=serve"
        )
        with _client(retries=1) as client:
            r = client.submit(
                ColoringRequest(impl="gunrock.hash", dataset="ecology2", seed=4)
            )
        assert r.status == "degraded" and r.degraded
        assert r.reason == "retries_exhausted:WorkerKillFault"
        assert r.impl_used == "cpu.greedy"  # gunrock.hash's ladder
        # The degraded coloring is still a real, reproducible result.
        direct = run_algorithm(
            "cpu.greedy",
            ds.load("ecology2", scale_div=SMALL_DIV, seed=4),
            rng=4,
        )
        assert (r.colors == direct.colors).all()

    def test_degrade_disabled_fails_instead(self, fault_state, monkeypatch):
        monkeypatch.setenv(
            "REPRO_FAULTS", "kill@ecology2:gunrock.hash:*:site=serve"
        )
        with _client(retries=0, degrade=False) as client:
            r = client.submit(
                ColoringRequest(impl="gunrock.hash", dataset="ecology2")
            )
        assert r.status == "failed"
        assert r.reason.startswith("retries_exhausted")

    def test_ladder_exhausted_sheds(self, fault_state, monkeypatch):
        # cpu.greedy is the ladder's floor: killing it leaves nothing.
        monkeypatch.setenv(
            "REPRO_FAULTS", "kill@ecology2:*:*:site=serve"
        )
        with _client(retries=0) as client:
            r = client.submit(
                ColoringRequest(impl="cpu.greedy", dataset="ecology2")
            )
        assert r.status == "rejected"
        assert r.reason.startswith("ladder_exhausted:")

    def test_every_impl_ladder_ends_at_greedy(self):
        from repro.core.registry import ALGORITHMS

        for impl in ALGORITHMS:
            chain = ladder(impl)
            assert impl not in chain
            if impl != "cpu.greedy":
                assert chain, f"{impl} has no fallback"
                assert chain[-1] == "cpu.greedy"

    def test_parameterized_dist_id_takes_base_ladder(self):
        assert ladder("dist.jpl@d8") == ladder("dist.jpl")
        assert ladder("dist.speculative@d2") == ladder("dist.speculative")


class TestBreaker:
    def test_unit_state_machine(self):
        now = [0.0]
        b = CircuitBreaker(threshold=2, cooldown_s=1.0, clock=lambda: now[0])
        assert b.allow()
        b.record_failure()
        assert b.allow()
        assert b.record_failure() == "open"
        assert not b.allow()  # open: skip primary
        now[0] += 1.1
        assert b.allow()  # half-open probe
        assert not b.allow()  # only one probe per cooldown
        assert b.record_success() == "close"
        assert b.allow()

    def test_breaker_opens_and_recovers_end_to_end(
        self, fault_state, monkeypatch
    ):
        monkeypatch.setenv(
            "REPRO_FAULTS",
            "kill@ecology2:gunrock.hash:*:site=serve:times=2",
        )
        stream = io.StringIO()
        with runlog.activate(stream), _client(
            retries=0, breaker_threshold=2, breaker_cooldown_s=0.2
        ) as client:
            # Two kills (times=2) open the breaker; both degrade.
            for _ in range(2):
                r = client.submit(
                    ColoringRequest(
                        impl="gunrock.hash", dataset="ecology2", seed=6
                    )
                )
                assert r.status == "degraded"
            # Open: primary compute skipped entirely.
            r3 = client.submit(
                ColoringRequest(
                    impl="gunrock.hash", dataset="ecology2", seed=6
                )
            )
            assert r3.status == "degraded"
            assert r3.reason == "breaker_open"
            assert r3.attempts == 0
            # Fault budget is spent; after the cooldown the half-open
            # probe runs the primary again and closes the breaker.
            time.sleep(0.25)
            r4 = client.submit(
                ColoringRequest(
                    impl="gunrock.hash", dataset="ecology2", seed=8
                )
            )
            assert r4.status == "ok"
        events = [
            json.loads(line) for line in stream.getvalue().splitlines()
        ]
        transitions = [
            e["transition"] for e in events if e["event"] == "serve_breaker"
        ]
        assert "open" in transitions
        assert transitions[-1] == "close"


class TestShutdown:
    def test_drain_false_sheds_queued_requests(
        self, fault_state, monkeypatch
    ):
        monkeypatch.setenv(
            "REPRO_FAULTS", "delay@ecology2:*:*:site=serve:s=0.6:times=1"
        )
        client = _client(workers=1, queue_limit=4)
        client.start()
        wedged = client.submit_async(
            ColoringRequest(impl="cpu.greedy", dataset="ecology2", seed=1)
        )
        time.sleep(0.2)
        queued = [
            client.submit_async(
                ColoringRequest(impl="cpu.greedy", dataset="offshore", seed=i)
            )
            for i in range(3)
        ]
        client.stop(drain=False)
        first = wedged.result(30)
        rest = [f.result(30) for f in queued]
        assert first.status == "ok"  # in-flight compute finishes
        assert all(r.status == "rejected" for r in rest)
        assert all(r.reason == "shutting_down" for r in rest)

    def test_drain_true_completes_queued_requests(self):
        client = _client(workers=1)
        client.start()
        futures = [
            client.submit_async(
                ColoringRequest(impl="cpu.greedy", dataset="ecology2", seed=i)
            )
            for i in range(3)
        ]
        client.stop()  # drain=True
        assert all(f.result(30).status == "ok" for f in futures)


class TestObservability:
    def test_request_lifecycle_metrics_and_events(self):
        stream = io.StringIO()
        with metrics.activate() as reg, runlog.activate(stream):
            with _client() as client:
                ok = client.submit(
                    ColoringRequest(
                        impl="gunrock.hash", dataset="ecology2", seed=9
                    )
                )
                shed = client.submit(
                    ColoringRequest(impl="nope", dataset="ecology2")
                )
        assert ok.status == "ok" and shed.status == "rejected"
        assert reg.get("repro_serve_requests_total", outcome="ok") == 1.0
        assert (
            reg.get("repro_serve_requests_total", outcome="rejected") == 1.0
        )
        assert reg.get("repro_serve_shed_total", reason="unknown_impl") == 1.0
        snap = reg.snapshot()
        assert "repro_serve_latency_ms" in snap
        events = [
            json.loads(line) for line in stream.getvalue().splitlines()
        ]
        names = [e["event"] for e in events]
        assert names[0] == "serve_start"
        assert names[-1] == "serve_stop"
        assert names.count("serve_request") == 2
        assert names.count("serve_done") == 2
        done = [e for e in events if e["event"] == "serve_done"]
        assert {e["status"] for e in done} == {"ok", "rejected"}

    def test_queue_depth_gauge_registered(self):
        with metrics.activate() as reg:
            with _client() as client:
                client.submit(
                    ColoringRequest(impl="cpu.greedy", dataset="ecology2")
                )
            assert reg.get("repro_serve_queue_depth") == 0.0


class TestServerValidation:
    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            ServeClient(ServeConfig(workers=0)).start()
        with pytest.raises(ValueError):
            ServeClient(ServeConfig(queue_limit=0)).start()

    def test_submit_before_start_raises(self):
        client = ServeClient()
        with pytest.raises(RuntimeError):
            client.submit(ColoringRequest(impl="cpu.greedy", dataset="x"))

    def test_random_graphs_terminal_and_correct(self):
        """A spread of inline graphs: every response terminal, every
        coloring proper."""
        with _client() as client:
            for n, p, seed in [(24, 0.1, 1), (16, 0.3, 2), (32, 0.05, 3)]:
                g = random_graph(n, p, seed)
                r = client.submit(
                    ColoringRequest(impl="graphblas.jpl", graph=g, seed=seed)
                )
                assert r.status in TERMINAL_STATUSES
                assert r.status == "ok"
                colors = np.asarray(r.colors)
                for u in range(n):
                    for v in g.neighbors(u):
                        assert colors[u] != colors[v]
