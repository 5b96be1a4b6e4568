"""The asyncio coloring service (``repro.serve.ColoringServer``).

A long-lived service wrapping the deterministic harness: requests are
admitted into a **bounded** queue (load is shed with an explicit
reason, never silently dropped), picked up by a fixed pool of worker
tasks, and computed in a thread pool so the event loop stays
responsive while kernels run.  Every submitted request receives
exactly one terminal :class:`~repro.serve.request.ColoringResponse`.

The robustness toolkit, in the order a request meets it:

1. **Admission control** — unknown implementation / dataset / backend
   and malformed requests are rejected up front; a full queue sheds
   with ``queue_full``; a closing service sheds with ``shutting_down``.
2. **Result cache** — a hit on the
   (:func:`~repro.serve.cache.graph_fingerprint`, impl, backend, seed)
   key answers instantly and bit-identically (status ``ok``,
   ``source="cache"``).
3. **Circuit breaker** — per (dataset, backend); open means primary
   compute is skipped and the request degrades immediately.
4. **Deadline enforcement** — the per-request budget covers queue wait,
   graph load, and compute; expiry cancels cooperatively (compute
   threads check a flag before starting, the awaiting worker stops
   waiting immediately) and answers ``timeout``.
5. **Retry with backoff** — transient failures
   (:class:`~repro.errors.TransientFaultError`, including the
   serve-site :class:`~repro.errors.WorkerKillFault`) are retried with
   exponential backoff and the *same* seed, so a retried success is
   still bit-identical.
6. **Degradation ladder** — when retries are exhausted, the failure is
   deterministic, or the breaker is open: try each cheaper
   implementation from :func:`repro.serve.degrade.ladder`, flag the
   response ``degraded``; if the ladder too is exhausted, shed.

Fault injection: every compute attempt calls
:func:`repro.harness.faults.maybe_fire_serve`, so ``REPRO_FAULTS``
clauses with ``site=serve`` (kill / delay / raise) land inside the
service exactly where real failures would (docs/serving.md).
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from threading import Event
from typing import Optional, Tuple

from .. import log as runlog
from .. import metrics
from ..backend import BackendError, resolve as resolve_backend
from ..core.registry import get_algorithm, run_algorithm
from ..errors import (
    ColoringError,
    DeadlineExceeded,
    TransientFaultError,
    WorkerKillFault,
)
from ..graph.generators.suitesparse import DEFAULT_SCALE_DIV
from ..harness import datasets as ds
from ..harness import faults
from .breaker import BreakerBoard
from .cache import CachedResult, ResultCache, graph_fingerprint
from .degrade import ladder
from .request import ColoringRequest, ColoringResponse, coloring_sha256

__all__ = ["ServeConfig", "ColoringServer"]

#: Retry backoff: 20 ms doubling, capped — the service analogue of the
#: grid runner's schedule, scaled down for interactive latencies.
_RETRY_BACKOFF_S = 0.02
_RETRY_BACKOFF_CAP_S = 0.25


@dataclass
class ServeConfig:
    """Tuning knobs for one :class:`ColoringServer`."""

    workers: int = 2  # concurrent worker tasks (and compute threads)
    queue_limit: int = 16  # bounded admission queue depth
    retries: int = 2  # per-request transient-failure retry budget
    breaker_threshold: int = 3  # consecutive failures before opening
    breaker_cooldown_s: float = 0.5  # open -> half-open probe delay
    cache_capacity: int = 256  # LRU result-cache entries
    default_deadline_s: Optional[float] = None  # per-request default
    degrade: bool = True  # walk the fallback ladder before shedding
    scale_div: int = DEFAULT_SCALE_DIV  # dataset scaling default


class _Pending:
    """One admitted request: its future, clock marks, and cancel flag."""

    __slots__ = (
        "request",
        "future",
        "backend",
        "submitted_at",
        "deadline_at",
        "cancel_event",
        "attempts",
    )

    def __init__(
        self,
        request: ColoringRequest,
        future: "asyncio.Future[ColoringResponse]",
        backend: str,
        deadline_s: Optional[float],
    ):
        self.request = request
        self.future = future
        self.backend = backend
        self.submitted_at = time.monotonic()
        self.deadline_at = (
            self.submitted_at + deadline_s if deadline_s is not None else None
        )
        self.cancel_event = Event()
        self.attempts = 0

    def remaining(self) -> Optional[float]:
        """Seconds of deadline budget left (None = unbounded)."""
        if self.deadline_at is None:
            return None
        return self.deadline_at - time.monotonic()

    def expired(self) -> bool:
        remaining = self.remaining()
        return remaining is not None and remaining <= 0


class ColoringServer:
    """The asyncio service.  See the module docstring for semantics.

    Lifecycle: ``await start()``, then any number of concurrent
    ``await submit(request)`` calls, then ``await stop()``.  All
    methods must run on one event loop;
    :class:`repro.serve.client.ServeClient` packages that loop in a
    background thread for synchronous callers.
    """

    def __init__(self, config: Optional[ServeConfig] = None):
        self.config = config or ServeConfig()
        if self.config.workers < 1:
            raise ValueError("serve workers must be >= 1")
        if self.config.queue_limit < 1:
            raise ValueError("serve queue_limit must be >= 1")
        self.cache = ResultCache(self.config.cache_capacity)
        self.breakers = BreakerBoard(
            threshold=self.config.breaker_threshold,
            cooldown_s=self.config.breaker_cooldown_s,
        )
        self._queue: "Optional[asyncio.Queue[Optional[_Pending]]]" = None
        self._workers: list = []
        self._executor: Optional[ThreadPoolExecutor] = None
        self._started = False
        self._closing = False
        self._seq = 0

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        if self._started:
            return
        self._queue = asyncio.Queue(maxsize=self.config.queue_limit)
        # Compute threads get 2x headroom over worker tasks: an attempt
        # abandoned at its deadline keeps its thread busy until the
        # kernel returns, and fresh attempts must not queue behind it.
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.workers * 2,
            thread_name_prefix="repro-serve",
        )
        self._workers = [
            asyncio.create_task(self._worker(i))
            for i in range(self.config.workers)
        ]
        self._started = True
        self._closing = False
        runlog.emit(
            "serve_start",
            workers=self.config.workers,
            queue_limit=self.config.queue_limit,
            retries=self.config.retries,
        )

    async def stop(self, *, drain: bool = True) -> None:
        """Shut down, resolving every admitted request first.

        ``drain=True`` (default) lets queued requests complete;
        ``drain=False`` sheds them with ``shutting_down``.  New
        submissions are shed either way.  In-flight compute finishes.
        """
        if not self._started:
            return
        self._closing = True
        assert self._queue is not None
        if not drain:
            while True:
                try:
                    pend = self._queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if pend is not None:
                    self._shed(pend, "shutting_down")
                self._queue.task_done()
        await self._queue.join()
        for _ in self._workers:
            await self._queue.put(None)
        await asyncio.gather(*self._workers, return_exceptions=True)
        self._workers = []
        assert self._executor is not None
        self._executor.shutdown(wait=False)
        self._started = False
        runlog.emit("serve_stop")

    # -- admission -----------------------------------------------------------

    async def submit(self, request: ColoringRequest) -> ColoringResponse:
        """Admit one request and await its terminal response."""
        loop = asyncio.get_running_loop()
        future: "asyncio.Future[ColoringResponse]" = loop.create_future()
        if not request.request_id:
            request.request_id = f"req-{self._seq:06d}"
        self._seq += 1
        backend_name = ""
        reason = self._validate(request)
        if reason is None:
            try:
                backend_name = resolve_backend(request.backend).name
            except BackendError:
                reason = "unknown_backend"
        deadline_s = (
            request.deadline_s
            if request.deadline_s is not None
            else self.config.default_deadline_s
        )
        pend = _Pending(request, future, backend_name, deadline_s)
        runlog.emit(
            "serve_request",
            request_id=request.request_id,
            dataset=request.dataset_label,
            impl=request.impl,
            backend=backend_name,
            deadline_s=deadline_s,
        )
        if reason is not None:
            self._shed(pend, reason)
            return await future
        assert self._queue is not None
        try:
            self._queue.put_nowait(pend)
        except asyncio.QueueFull:
            self._shed(pend, "queue_full")
            return await future
        metrics.set_gauge(
            "repro_serve_queue_depth", float(self._queue.qsize())
        )
        return await future

    def _validate(self, request: ColoringRequest) -> Optional[str]:
        """Cheap admission checks; returns a shed reason or None."""
        if self._closing or not self._started:
            return "shutting_down"
        try:
            get_algorithm(request.impl)
        except ColoringError:
            return "unknown_impl"
        if (request.dataset is None) == (request.graph is None):
            return "bad_request"  # exactly one of dataset/graph
        if request.dataset is not None and request.dataset not in ds.dataset_names(
            include_rgg=True
        ):
            return "unknown_dataset"
        return None

    # -- workers -------------------------------------------------------------

    async def _worker(self, wid: int) -> None:
        assert self._queue is not None
        while True:
            pend = await self._queue.get()
            try:
                if pend is None:
                    return
                metrics.set_gauge(
                    "repro_serve_queue_depth", float(self._queue.qsize())
                )
                try:
                    await self._process(pend)
                except Exception as exc:
                    # A worker must never die with a request in hand:
                    # whatever escaped _process becomes the terminal
                    # answer and the worker loops on ("respawned").
                    self._finish(
                        pend,
                        "failed",
                        reason=f"internal_error:{type(exc).__name__}: {exc}",
                    )
            finally:
                self._queue.task_done()

    async def _process(self, pend: _Pending) -> None:
        request = pend.request
        try:
            graph, fingerprint = await self._acquire_graph(pend)
        except DeadlineExceeded:
            self._finish(pend, "timeout", reason="deadline")
            return
        except Exception as exc:
            self._finish(
                pend, "failed", reason=f"dataset_error:{type(exc).__name__}: {exc}"
            )
            return

        # Degradation rung 1: the result cache (also re-probed on
        # timeout below — an identical in-flight request may have
        # landed meanwhile).
        if self._try_cache(pend, fingerprint):
            return
        if pend.expired():
            self._finish(pend, "timeout", reason="deadline")
            return

        breaker = self.breakers.get(request.dataset_label, pend.backend)
        if not breaker.allow():
            await self._degrade(pend, graph, fingerprint, "breaker_open")
            return

        # Primary compute: retry-with-backoff on transient failures.
        while True:
            pend.attempts += 1
            try:
                result = await self._attempt(
                    pend, request.impl, graph, pend.attempts - 1
                )
            except DeadlineExceeded:
                if self._try_cache(pend, fingerprint):
                    return
                self._finish(pend, "timeout", reason="deadline")
                return
            except TransientFaultError as exc:
                self._record_breaker(pend, ok=False)
                if isinstance(exc, WorkerKillFault):
                    metrics.inc(
                        "repro_serve_worker_kills_total",
                        dataset=request.dataset_label,
                    )
                if pend.attempts <= self.config.retries:
                    metrics.inc(
                        "repro_serve_retries_total",
                        dataset=request.dataset_label,
                        impl=request.impl,
                    )
                    runlog.emit(
                        "serve_retry",
                        request_id=request.request_id,
                        impl=request.impl,
                        attempt=pend.attempts,
                        error=f"{type(exc).__name__}: {exc}",
                    )
                    await asyncio.sleep(self._backoff(pend))
                    continue
                await self._degrade(
                    pend,
                    graph,
                    fingerprint,
                    f"retries_exhausted:{type(exc).__name__}",
                )
                return
            except Exception as exc:
                # Deterministic failure: retrying the same seed would
                # fail the same way — degrade instead.
                self._record_breaker(pend, ok=False)
                await self._degrade(
                    pend, graph, fingerprint, f"error:{type(exc).__name__}"
                )
                return
            else:
                self._record_breaker(pend, ok=True)
                entry = CachedResult(
                    impl=request.impl,
                    backend=pend.backend,
                    colors=result.colors,
                    num_colors=result.num_colors,
                    coloring_sha256=coloring_sha256(result.colors),
                    sim_ms=result.sim_ms,
                    iterations=result.iterations,
                )
                self.cache.put(fingerprint, request.seed, entry)
                self._finish_with_result(
                    pend, entry, status="ok", source="computed"
                )
                return

    def _backoff(self, pend: _Pending) -> float:
        delay = min(
            _RETRY_BACKOFF_S * (2 ** (pend.attempts - 1)),
            _RETRY_BACKOFF_CAP_S,
        )
        remaining = pend.remaining()
        if remaining is not None:
            delay = max(0.0, min(delay, remaining))
        return delay

    async def _degrade(
        self, pend: _Pending, graph, fingerprint: str, reason: str
    ) -> None:
        """Walk the fallback ladder; shed if it runs dry."""
        request = pend.request
        if not self.config.degrade:
            self._finish(pend, "failed", reason=reason)
            return
        for fallback in ladder(request.impl):
            if pend.expired():
                self._finish(pend, "timeout", reason="deadline")
                return
            try:
                result = await self._attempt(pend, fallback, graph, 0)
            except DeadlineExceeded:
                self._finish(pend, "timeout", reason="deadline")
                return
            except Exception as exc:
                runlog.emit(
                    "serve_fallback_failed",
                    request_id=request.request_id,
                    impl=fallback,
                    error=f"{type(exc).__name__}: {exc}",
                )
                continue
            metrics.inc(
                "repro_serve_degraded_total",
                dataset=request.dataset_label,
                impl=request.impl,
            )
            runlog.emit(
                "serve_degraded",
                request_id=request.request_id,
                impl=request.impl,
                impl_used=fallback,
                reason=reason,
            )
            entry = CachedResult(
                impl=fallback,
                backend=pend.backend,
                colors=result.colors,
                num_colors=result.num_colors,
                coloring_sha256=coloring_sha256(result.colors),
                sim_ms=result.sim_ms,
                iterations=result.iterations,
            )
            self._finish_with_result(
                pend,
                entry,
                status="degraded",
                source="computed",
                reason=reason,
            )
            return
        self._shed(pend, f"ladder_exhausted:{reason}")

    # -- compute -------------------------------------------------------------

    async def _acquire_graph(self, pend: _Pending) -> Tuple[object, str]:
        """The request's graph plus its fingerprint, off-loop (dataset
        generation and MB-scale hashing don't belong on the event
        loop)."""
        request = pend.request
        scale_div = (
            request.scale_div
            if request.scale_div is not None
            else self.config.scale_div
        )
        return await self._off_loop(
            pend, _load_and_fingerprint, request, scale_div
        )

    async def _attempt(
        self, pend: _Pending, impl: str, graph, attempt: int
    ):
        """One compute attempt in the thread pool, deadline-bounded."""
        return await self._off_loop(
            pend, _blocking_attempt, pend, impl, graph, attempt
        )

    async def _off_loop(self, pend: _Pending, fn, *args):
        remaining = pend.remaining()
        if remaining is not None and remaining <= 0:
            raise DeadlineExceeded(
                f"request {pend.request.request_id} out of budget"
            )
        loop = asyncio.get_running_loop()
        assert self._executor is not None
        fut = loop.run_in_executor(self._executor, fn, *args)
        try:
            return await asyncio.wait_for(fut, timeout=remaining)
        except asyncio.TimeoutError:
            # Cooperative cancellation: a thread that has not started
            # yet sees the flag and bails; one mid-kernel finishes into
            # a discarded future (its thread frees up afterwards).
            pend.cancel_event.set()
            raise DeadlineExceeded(
                f"request {pend.request.request_id} deadline expired"
            ) from None

    # -- terminal responses --------------------------------------------------

    def _try_cache(self, pend: _Pending, fingerprint: str) -> bool:
        request = pend.request
        entry = self.cache.get(
            fingerprint, request.impl, pend.backend, request.seed
        )
        if entry is None:
            return False
        self._finish_with_result(pend, entry, status="ok", source="cache")
        return True

    def _finish_with_result(
        self,
        pend: _Pending,
        entry: CachedResult,
        *,
        status: str,
        source: str,
        reason: str = "",
    ) -> None:
        self._finish(
            pend,
            status,
            reason=reason,
            degraded=(status == "degraded"),
            impl_used=entry.impl,
            source=source,
            colors=entry.colors,
            num_colors=entry.num_colors,
            coloring_sha256=entry.coloring_sha256,
            sim_ms=entry.sim_ms,
            iterations=entry.iterations,
        )

    def _shed(self, pend: _Pending, reason: str) -> None:
        metrics.inc(
            "repro_serve_shed_total",
            reason=reason.split(":", 1)[0],
        )
        runlog.emit(
            "serve_shed",
            request_id=pend.request.request_id,
            reason=reason,
        )
        self._finish(pend, "rejected", reason=reason)

    def _record_breaker(self, pend: _Pending, *, ok: bool) -> None:
        dataset = pend.request.dataset_label
        transition = self.breakers.record(dataset, pend.backend, ok=ok)
        if transition is not None:
            runlog.emit(
                "serve_breaker",
                transition=transition,
                dataset=dataset,
                backend=pend.backend,
            )

    def _finish(self, pend: _Pending, status: str, **fields) -> None:
        """Resolve the request exactly once with a terminal response."""
        if pend.future.done():
            return
        latency_s = time.monotonic() - pend.submitted_at
        response = ColoringResponse(
            request_id=pend.request.request_id,
            status=status,
            impl=pend.request.impl,
            dataset=pend.request.dataset_label,
            backend=pend.backend,
            attempts=pend.attempts,
            latency_s=latency_s,
            **fields,
        )
        metrics.inc("repro_serve_requests_total", outcome=status)
        metrics.observe("repro_serve_latency_ms", latency_s * 1000.0)
        runlog.emit(
            "serve_done",
            request_id=response.request_id,
            status=status,
            impl_used=response.impl_used,
            source=response.source,
            attempts=response.attempts,
            latency_ms=round(latency_s * 1000.0, 3),
        )
        pend.future.set_result(response)


# -- thread-pool bodies (no event-loop state) ---------------------------------


def _load_and_fingerprint(request: ColoringRequest, scale_div: int):
    if request.graph is not None:
        graph = request.graph
    else:
        graph = ds.load(
            request.dataset, scale_div=scale_div, seed=request.seed
        )
    return graph, graph_fingerprint(graph)


def _blocking_attempt(pend: _Pending, impl: str, graph, attempt: int):
    request = pend.request
    if pend.cancel_event.is_set():
        raise DeadlineExceeded(
            f"request {request.request_id} cancelled before attempt"
        )
    faults.maybe_fire_serve(request.dataset_label, impl, attempt)
    return run_algorithm(
        impl, graph, rng=request.seed, backend=pend.backend or None
    )
