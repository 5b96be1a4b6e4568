"""Cache hits answered at admission.

A dataset request whose graph key ``(dataset, scale_div, seed)`` the
server's :class:`~repro.serve.cache.GraphIndex` already knows is probed
against the result cache inside ``ColoringServer.submit``; a hit is
answered there, with no queue slot, worker task or thread.  These tests
pin what that path must and must not do: hits beat a full queue, every
probed request counts one hit or one miss, the index stays bounded,
inline graphs and spent budgets keep the queue path, and an admission
hit is the computed response bit for bit.
"""

from __future__ import annotations

import time

import pytest

from repro import metrics
from repro.core.registry import FIGURE1_ALGORITHMS
from repro.serve import ColoringRequest, ServeClient, ServeConfig
from repro.serve import server as server_mod
from repro.serve.cache import GRAPH_INDEX_CAPACITY, GraphIndex

SMALL_DIV = 512


@pytest.fixture
def fault_state(tmp_path, monkeypatch):
    """Isolated cross-process tick-file directory for times= budgets."""
    monkeypatch.setenv("REPRO_FAULTS_STATE", str(tmp_path / "fault-state"))
    return tmp_path


@pytest.fixture
def loads(monkeypatch):
    """Request ids that took the worker's load-and-fingerprint step."""
    seen = []
    original = server_mod._load_and_fingerprint

    def counted(request, *args):
        seen.append(request.request_id)
        return original(request, *args)

    monkeypatch.setattr(server_mod, "_load_and_fingerprint", counted)
    return seen


def _client(**overrides):
    cfg = dict(workers=2, queue_limit=16, retries=2, scale_div=SMALL_DIV)
    cfg.update(overrides)
    return ServeClient(ServeConfig(**cfg))


def _req(impl="cpu.greedy", dataset="ecology2", seed=1, **kw):
    return ColoringRequest(impl=impl, dataset=dataset, seed=seed, **kw)


def _counts(reg):
    return (
        reg.get("repro_serve_cache_hits_total"),
        reg.get("repro_serve_cache_misses_total"),
    )


class TestAdmissionHit:
    def test_hit_skips_the_worker(self, loads):
        with _client() as client:
            first = client.submit(_req(request_id="a"))
            second = client.submit(_req(request_id="b"))
        assert (first.status, first.source) == ("ok", "computed")
        assert (second.status, second.source) == ("ok", "cache")
        assert loads == ["a"]

    def test_hit_answered_while_worker_wedged_and_queue_full(
        self, fault_state, monkeypatch, loads
    ):
        """The only worker is stuck in a delayed compute and the queue
        is full: a fresh key is shed ``queue_full``, a known key is
        still answered ``ok`` from the cache, without waiting."""
        monkeypatch.setenv(
            "REPRO_FAULTS", "delay@offshore:*:*:site=serve:s=1.0:times=1"
        )
        with _client(workers=1, queue_limit=1) as client:
            warm = client.submit(_req(request_id="warm"))
            wedged = client.submit_async(_req(dataset="offshore", seed=1))
            time.sleep(0.2)  # the worker picks it up and blocks
            queued = client.submit_async(_req(dataset="offshore", seed=2))
            shed = client.submit(_req(dataset="offshore", seed=3))
            t0 = time.monotonic()
            hit = client.submit(_req(request_id="hit"))
            hit_wait = time.monotonic() - t0
            assert not wedged.done()  # still wedged when the hit returned
            responses = [wedged.result(30), queued.result(30)]
        assert warm.source == "computed"
        assert (shed.status, shed.reason) == ("rejected", "queue_full")
        assert (hit.status, hit.source, hit.attempts) == ("ok", "cache", 0)
        assert hit_wait < 0.5
        assert (hit.colors == warm.colors).all()
        assert [r.status for r in responses] == ["ok", "ok"]
        assert "hit" not in loads

    def test_spent_budget_still_times_out(self):
        with _client() as client:
            client.submit(_req())
            zero = client.submit(_req(deadline_s=0.0))
            negative = client.submit(_req(deadline_s=-1.0))
        assert (zero.status, zero.reason) == ("timeout", "deadline")
        assert (negative.status, negative.reason) == ("timeout", "deadline")

    def test_inline_graph_never_uses_admission(self, petersen, loads):
        with _client() as client:
            first = client.submit(
                ColoringRequest(
                    impl="cpu.greedy", graph=petersen, seed=1, request_id="a"
                )
            )
            second = client.submit(
                ColoringRequest(
                    impl="cpu.greedy", graph=petersen, seed=1, request_id="b"
                )
            )
            assert len(client.server.graph_index) == 0
        assert (first.source, second.source) == ("computed", "cache")
        assert loads == ["a", "b"]  # the hit went through the worker


class TestCounting:
    def test_each_request_counts_one_hit_or_miss(self):
        with metrics.activate() as reg:
            with _client() as client:
                sources = [
                    client.submit(r).source
                    for r in (
                        _req(),  # cold: miss
                        _req(),  # admission hit
                        _req(impl="gunrock.hash"),  # known graph, new impl
                        _req(impl="gunrock.hash"),  # admission hit
                        _req(seed=2),  # new graph: miss
                    )
                ]
        assert sources == ["computed", "cache", "computed", "cache", "computed"]
        assert _counts(reg) == (2.0, 3.0)

    def test_timeout_after_a_miss_counts_once(self, fault_state, monkeypatch):
        """The re-probe after a deadline expiry does not count again."""
        monkeypatch.setenv(
            "REPRO_FAULTS", "delay@ecology2:*:*:site=serve:s=0.6:times=1"
        )
        with metrics.activate() as reg:
            with _client(workers=1) as client:
                late = client.submit(_req(deadline_s=0.2))
        assert late.status == "timeout"
        assert _counts(reg) == (0.0, 1.0)

    def test_known_graph_is_not_hashed_again(self, monkeypatch):
        hashed = []
        original = server_mod.graph_fingerprint

        def counted(graph):
            hashed.append(graph.name)
            return original(graph)

        monkeypatch.setattr(server_mod, "graph_fingerprint", counted)
        with _client() as client:
            for impl in ("cpu.greedy", "gunrock.hash", "graphblas.mis"):
                assert client.submit(_req(impl=impl)).status == "ok"
        assert len(hashed) == 1


class TestGraphIndexBound:
    def test_server_index_has_the_stated_bound(self):
        server = server_mod.ColoringServer(ServeConfig())
        assert server.graph_index.capacity == GRAPH_INDEX_CAPACITY == 1024

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            GraphIndex(0)

    def test_lru_never_exceeds_capacity(self):
        index = GraphIndex(3)
        for seed in range(10):
            index.put(("ecology2", 64, seed), f"fp{seed}")
            assert len(index) <= 3
        assert [index.get(("ecology2", 64, s)) for s in range(10)] == [
            None
        ] * 7 + ["fp7", "fp8", "fp9"]

    def test_get_refreshes_recency(self):
        index = GraphIndex(2)
        index.put("a", "fa")
        index.put("b", "fb")
        assert index.get("a") == "fa"
        index.put("c", "fc")  # evicts "b", the least recently used
        assert (index.get("a"), index.get("b"), index.get("c")) == (
            "fa",
            None,
            "fc",
        )

    def test_evicted_key_takes_the_queue_path(self, loads):
        with _client() as client:
            index = client.server.graph_index = GraphIndex(2)
            for seed in (1, 2, 3):
                client.submit(_req(seed=seed, request_id=f"cold{seed}"))
                assert len(index) <= 2
            # seed 1's key was evicted from the index; its result was
            # not evicted from the (larger) result cache.
            evicted = client.submit(_req(seed=1, request_id="evicted"))
            known = client.submit(_req(seed=3, request_id="known"))
            assert len(index) == 2
        assert (evicted.status, evicted.source) == ("ok", "cache")
        assert (known.status, known.source) == ("ok", "cache")
        assert "evicted" in loads and "known" not in loads


@pytest.mark.parametrize("impl", FIGURE1_ALGORITHMS)
def test_admission_hit_equals_computed(impl, loads):
    with _client() as client:
        computed = client.submit(_req(impl=impl, seed=5, request_id="c"))
        hit = client.submit(_req(impl=impl, seed=5, request_id="h"))
    assert (computed.status, computed.source) == ("ok", "computed")
    assert (hit.status, hit.source) == ("ok", "cache")
    assert loads == ["c"]
    assert hit.coloring_sha256 == computed.coloring_sha256
    assert (hit.colors == computed.colors).all()
    assert hit.sim_ms == computed.sim_ms
    assert hit.iterations == computed.iterations
    assert hit.num_colors == computed.num_colors
    assert hit.impl_used == computed.impl_used == impl
