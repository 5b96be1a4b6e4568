"""The (dataset × algorithm) grid runner — sequential or process-pool,
fault-tolerant either way.

One :class:`CellResult` per (dataset, implementation) pair, averaged
over repetitions with independent seeds — the paper runs each test 10
times and averages (§V-A); we default to 3 repetitions because the
cost model is deterministic given the coloring trajectory and only the
random draws vary.

``run_grid(jobs=N)`` fans the grid's individual *(dataset, algorithm,
repetition)* executions over a ``ProcessPoolExecutor``:

* Per-repetition seeds are derived exactly as the sequential schedule
  derives them (``seed + 7919 * rep``), and every repetition is a pure
  function of (graph, algorithm, seed), so the parallel grid is
  bit-identical — same ``colors``, ``sim_ms``, ``iterations`` — to
  ``jobs=1``, regardless of worker count, completion order, or how
  many times a repetition had to be retried.
* Workers load datasets by name through the default-on disk cache
  (:mod:`repro.harness.cache`); the parent warms the cache for every
  distinct dataset *before* forking, so forked workers inherit the
  loaded graphs copy-on-write and no worker ever generates one.
* Results are collected in submission order (dataset-major, then
  algorithm, then repetition) and aggregated host-side.
* ``jobs=1`` — and any platform without the ``fork`` start method —
  executes in-process with no pool at all (with an explicit
  ``RuntimeWarning`` when parallelism was requested but unavailable).

Fault tolerance (see ``docs/robustness.md``):

* **Per-cell isolation** — a repetition that raises no longer aborts
  the grid: the failure is captured into its cell
  (``status="failed"``, ``error=...``), every other cell completes,
  and the emitters render the partial grid.
* **Timeouts** — ``timeout=SECONDS`` bounds each repetition's wall
  clock (SIGALRM inside the executing process, plus a parent-side
  backstop that reseeds the pool when a worker hangs in native code).
* **Retries** — transient failures (worker crash / ``kill``-injected
  SIGKILL → ``BrokenProcessPool``, timeouts, and
  :class:`~repro.errors.TransientFaultError`) are retried with bounded
  exponential backoff; the retried repetition reuses the original
  seed, so a retry is bit-identical to a first-try success.
  Deterministic failures (e.g. strict-mode ``ValidationError``) fail
  the repetition immediately.
* **Journaled resume** — every completed repetition is durably
  appended to a JSONL journal keyed by a config hash
  (:mod:`repro.harness.journal`); ``resume=True`` replays journaled
  repetitions and runs only the missing ones.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time
import warnings
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .. import backend as _backend
from .. import metrics
from .. import log as runlog
from .._rng import DEFAULT_SEED
from ..core.registry import run_algorithm
from ..core.validate import is_valid_coloring
from ..errors import (
    HarnessError,
    RepetitionTimeout,
    TransientFaultError,
    ValidationError,
)
from ..gpusim.device import DeviceSpec
from ..graph.csr import CSRGraph
from ..trace import Trace, activate as trace_activate
from . import datasets as ds
from . import faults
from .journal import GridJournal
from .report import geomean

__all__ = ["CellResult", "run_cell", "run_grid", "grid_to_rows"]

#: Seed stride between repetitions (kept stable: results are part of
#: the repo's recorded experiment snapshots).
_REP_SEED_STRIDE = 7919

#: Default bound on retries of *transient* failures per repetition.
DEFAULT_RETRIES = 2

#: Base of the exponential retry backoff (seconds).
_RETRY_BACKOFF_S = 0.05

#: Environment gate for the always-on completion journal.
_JOURNAL_ENV = "REPRO_JOURNAL"


@dataclass(frozen=True)
class CellResult:
    """Aggregated outcome of one (dataset, algorithm) cell.

    ``status`` is ``"ok"`` when every repetition completed, otherwise
    ``"failed"`` with ``error`` carrying the first captured failure
    (``"ExceptionType: message"``) and the numeric fields averaged over
    the surviving repetitions (NaN when none survived).

    When tracing was requested (``run_grid(trace=True)`` /
    ``REPRO_TRACE=1``), ``traces`` holds one entry per repetition in
    rep order — a :class:`~repro.trace.Trace`, or ``None`` for
    repetitions without one (failures, ``cpu.greedy``'s closed-form
    path, and journal-replayed repetitions, which store only scalars).
    """

    dataset: str
    algorithm: str
    num_vertices: int
    num_edges: int
    colors: float  # mean over successful repetitions
    sim_ms: float  # mean over successful repetitions
    iterations: float  # mean over successful repetitions
    wall_s: float  # host wall time inside the algorithm, summed over reps
    repetitions: int
    valid: bool
    validate_s: float = 0.0  # host wall time spent checking validity
    status: str = "ok"  # "ok" | "failed"
    error: Optional[str] = None
    failed_repetitions: int = 0
    traces: Optional[Tuple[Optional[Trace], ...]] = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def trace(self) -> Optional[Trace]:
        """The first repetition's trace, when one was captured."""
        if not self.traces:
            return None
        return next((t for t in self.traces if t is not None), None)


@dataclass(frozen=True)
class _RepResult:
    """Outcome of a single repetition (the parallel work unit).  The
    numeric defaults describe a repetition that produced nothing."""

    num_colors: int = 0
    sim_ms: float = float("nan")
    iterations: int = 0
    wall_s: float = 0.0
    validate_s: float = 0.0
    valid: bool = False
    status: str = "ok"  # "ok" | "failed" | "timeout"
    error: Optional[str] = None
    transient: bool = False  # True when the failure is retryable
    trace: Optional[Trace] = None  # plain data; ships back from pool workers
    num_vertices: int = 0  # the graph's size, once it has loaded
    num_edges: int = 0


def _failed_rep(failure: Union[BaseException, str]) -> _RepResult:
    """Capture a failure as a failed repetition record.

    ``failure`` is the exception the repetition raised, or — for a
    repetition lost with its worker, where no exception object exists —
    a description of the crash, which is always retryable."""
    if isinstance(failure, str):
        return _RepResult(
            status="failed", error=f"WorkerCrash: {failure}", transient=True
        )
    timed_out = isinstance(failure, RepetitionTimeout)
    return _RepResult(
        status="timeout" if timed_out else "failed",
        error=f"{type(failure).__name__}: {failure}",
        transient=timed_out or isinstance(failure, TransientFaultError),
    )


class _rep_timeout:
    """Arm a wall-clock budget for the current repetition.

    Uses ``SIGALRM``/``setitimer`` when running on the main thread of a
    Unix process (both the sequential runner and pool workers qualify);
    otherwise a no-op — the pool's parent-side deadline is the backstop.
    """

    def __init__(self, seconds: Optional[float]):
        self.seconds = seconds
        self._armed = False
        self._prev = None

    def _fire(self, signum, frame):
        raise RepetitionTimeout(
            f"repetition exceeded its {self.seconds:g}s wall-clock budget"
        )

    def __enter__(self) -> "_rep_timeout":
        if (
            self.seconds
            and self.seconds > 0
            and hasattr(signal, "setitimer")
            and threading.current_thread() is threading.main_thread()
        ):
            self._prev = signal.signal(signal.SIGALRM, self._fire)
            signal.setitimer(signal.ITIMER_REAL, self.seconds)
            self._armed = True
        return self

    def __exit__(self, *exc) -> None:
        if self._armed:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._prev)
            self._armed = False


def _run_rep(
    graph: CSRGraph,
    algorithm: str,
    rep_seed: int,
    *,
    dataset_name: str,
    device: Optional[DeviceSpec],
    strict: bool,
    rep: int = 0,
    trace: bool = False,
    **kwargs,
) -> _RepResult:
    """Run one repetition; algorithm and validation timed separately.

    ``trace=True`` opts this repetition into structured tracing (the
    explicit form of ``REPRO_TRACE=1``); the captured trace rides back
    on the repetition record.  Tracing never changes the numbers — the
    cost model emits spans strictly after recording each charge.
    """
    faults.maybe_fire(dataset_name or graph.name, algorithm, rep)
    t0 = time.perf_counter()
    if trace:
        with trace_activate():
            result = run_algorithm(
                algorithm, graph, rng=rep_seed, device=device, **kwargs
            )
    else:
        result = run_algorithm(
            algorithm, graph, rng=rep_seed, device=device, **kwargs
        )
    wall = time.perf_counter() - t0
    t0 = time.perf_counter()
    valid = is_valid_coloring(graph, result.colors)
    validate = time.perf_counter() - t0
    if strict and not valid:
        raise ValidationError(
            f"{algorithm} produced an invalid coloring on "
            f"{dataset_name or graph.name}"
        )
    return _RepResult(
        num_colors=result.num_colors,
        sim_ms=result.sim_ms,
        iterations=result.iterations,
        wall_s=wall,
        validate_s=validate,
        valid=valid,
        trace=result.trace,
        num_vertices=graph.num_vertices,
        num_edges=graph.num_edges,
    )


def _aggregate(
    reps: Sequence[_RepResult], *, dataset: str, algorithm: str
) -> CellResult:
    """One cell from its repetitions.  The graph's size comes from the
    first repetition that loaded it (0 × 0 when none could)."""
    ok = [r for r in reps if r.status == "ok"]
    failed = len(reps) - len(ok)
    traces: Optional[Tuple[Optional[Trace], ...]] = None
    if any(r.trace is not None for r in reps):
        traces = tuple(r.trace for r in reps)
    sized = next((r for r in reps if r.num_vertices), _RepResult())
    return CellResult(
        dataset=dataset,
        algorithm=algorithm,
        num_vertices=sized.num_vertices,
        num_edges=sized.num_edges,
        colors=float(np.mean([r.num_colors for r in ok])) if ok else float("nan"),
        sim_ms=float(np.mean([r.sim_ms for r in ok])) if ok else float("nan"),
        iterations=(
            float(np.mean([r.iterations for r in ok])) if ok else float("nan")
        ),
        wall_s=float(sum(r.wall_s for r in reps)),
        repetitions=len(reps),
        valid=all(r.valid for r in reps) and bool(reps),
        validate_s=float(sum(r.validate_s for r in reps)),
        status="ok" if failed == 0 else "failed",
        error=next((r.error for r in reps if r.error is not None), None),
        failed_repetitions=failed,
        traces=traces,
    )


def run_cell(
    graph: CSRGraph,
    algorithm: str,
    *,
    dataset_name: str = "",
    repetitions: int = 3,
    seed: int = DEFAULT_SEED,
    device: Optional[DeviceSpec] = None,
    strict: bool = True,
    trace: bool = False,
    backend=None,
    **kwargs,
) -> CellResult:
    """Run one implementation ``repetitions`` times and aggregate.

    ``strict=True`` validates every produced coloring and raises
    :class:`ValidationError` on any conflict — experiments never
    tolerate invalid output.  Unlike :func:`run_grid`, this direct
    entry point does **not** isolate errors: exceptions propagate to
    the caller (the behaviour strict-mode tests rely on).  ``wall_s``
    covers the algorithm executions only; validity checking is
    accounted separately in ``validate_s`` so speedup numbers measure
    the algorithm, not the checker.

    ``backend`` selects the kernel-execution backend (name, instance,
    or ``None`` for ``REPRO_BACKEND``/reference); results are
    bit-identical across backends, so the choice only affects wall
    clock.
    """
    if repetitions < 1:
        raise HarnessError("repetitions must be >= 1")
    # Resolve once so an unavailable optional backend warns (and falls
    # back) a single time here, not once per repetition.
    kwargs["backend"] = _backend.resolve(backend)
    reps = [
        _run_rep(
            graph,
            algorithm,
            seed + _REP_SEED_STRIDE * rep,
            dataset_name=dataset_name,
            device=device,
            strict=strict,
            rep=rep,
            trace=trace,
            **kwargs,
        )
        for rep in range(repetitions)
    ]
    return _aggregate(
        reps, dataset=dataset_name or graph.name, algorithm=algorithm
    )


# -- fault-tolerant grid machinery -------------------------------------------


@dataclass
class _Task:
    """One (dataset, algorithm, repetition) execution and its retry state."""

    index: int  # position in the canonical dataset-major order
    dataset: str
    algorithm: str
    rep: int
    attempts: int = 0  # transient-failure retries consumed


@dataclass(frozen=True)
class _GridSpec:
    """The inputs fixed for a whole grid — every repetition's inputs
    except its :class:`_Task`.  Plain picklable data: the pool ships it
    to a worker with every task."""

    scale_div: int
    seed: int
    device: Optional[DeviceSpec]
    timeout: Optional[float]
    trace: bool
    backend: str  # the effective backend, after any fallback


def _execute(task: _Task, spec: _GridSpec) -> _RepResult:
    """One (dataset, algorithm, repetition) execution — the sequential
    runner's step and the pool's work unit alike.

    Loads the graph by name through :func:`datasets.load` (in a pool
    worker usually a free hit on the memo inherited from the pre-warmed
    parent at fork time, otherwise one read of the warm disk cache),
    runs the repetition under its SIGALRM timeout with strict
    validation, and returns every failure — a failed load included —
    as data.  It never raises (except ``KeyboardInterrupt`` /
    ``SystemExit``, which must stay fatal), so a pool worker only dies
    when a fault kills it.  A requested trace (plain picklable data)
    rides back on the repetition record, and so does the graph's size
    whenever the graph loaded.
    """
    try:
        graph = ds.load(task.dataset, scale_div=spec.scale_div, seed=spec.seed)
    except Exception as exc:
        return _failed_rep(exc)
    try:
        with _rep_timeout(spec.timeout):
            return _run_rep(  # repro-lint: disable=RPL104 — the env lookup is the dataset cache location; graph content is seed-deterministic
                graph,
                task.algorithm,
                spec.seed + _REP_SEED_STRIDE * task.rep,
                dataset_name=task.dataset,
                device=spec.device,
                strict=True,
                rep=task.rep,
                trace=spec.trace,
                backend=spec.backend,
            )
    except Exception as exc:
        return replace(
            _failed_rep(exc),
            num_vertices=graph.num_vertices,
            num_edges=graph.num_edges,
        )


def _backoff(attempt: int) -> float:
    return min(_RETRY_BACKOFF_S * (2 ** (attempt - 1)), 1.0)


def _journal_enabled(journal: Optional[bool]) -> bool:
    if journal is not None:
        return journal
    return os.environ.get(_JOURNAL_ENV, "1").strip().lower() not in (
        "0",
        "false",
        "no",
        "off",
    )


def _rep_payload(r: _RepResult) -> Dict:
    """Journal record body for a successful repetition."""
    return {
        "num_colors": int(r.num_colors),
        "sim_ms": float(r.sim_ms),
        "iterations": int(r.iterations),
        "wall_s": float(r.wall_s),
        "validate_s": float(r.validate_s),
        "valid": bool(r.valid),
        "num_vertices": int(r.num_vertices),
        "num_edges": int(r.num_edges),
    }


def _rep_from_record(rec: Dict) -> _RepResult:
    """Rebuild a journaled repetition (floats round-trip exactly)."""
    return _RepResult(
        num_colors=int(rec["num_colors"]),
        sim_ms=float(rec["sim_ms"]),
        iterations=int(rec["iterations"]),
        wall_s=float(rec.get("wall_s", 0.0)),
        validate_s=float(rec.get("validate_s", 0.0)),
        valid=bool(rec.get("valid", True)),
        num_vertices=int(rec.get("num_vertices", 0)),
        num_edges=int(rec.get("num_edges", 0)),
    )


def _fork_context() -> Optional[multiprocessing.context.BaseContext]:
    """The ``fork`` multiprocessing context, or None when unavailable.

    Workers are forked so they inherit the parent's imports (and any
    already-memoized graphs) without pickling; on platforms without
    ``fork`` (Windows, macOS spawn-default configurations) the runner
    falls back to in-process execution — :func:`run_grid` warns when
    that downgrade discards a ``jobs > 1`` request.
    """
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return None


def run_grid(
    dataset_names: Sequence[str],
    algorithms: Sequence[str],
    *,
    scale_div: int,
    repetitions: int = 3,
    seed: int = DEFAULT_SEED,
    device: Optional[DeviceSpec] = None,
    jobs: int = 1,
    verbose: bool = False,
    timeout: Optional[float] = None,
    retries: int = DEFAULT_RETRIES,
    resume: bool = False,
    journal: Optional[bool] = None,
    trace: bool = False,
    backend=None,
) -> List[CellResult]:
    """Run every algorithm on every dataset; returns one cell per pair.

    ``jobs`` > 1 distributes individual repetitions over that many
    worker processes (see the module docstring for the determinism
    guarantees); ``jobs=1`` runs sequentially in-process.

    Failures are isolated per repetition: the grid always returns one
    cell per (dataset, algorithm) pair, with failures captured in
    ``CellResult.status`` / ``.error`` instead of raised.  ``timeout``
    bounds each repetition's wall clock; transient failures are retried
    up to ``retries`` times with the original seed.  Completed
    repetitions are journaled (disable with ``journal=False`` or
    ``REPRO_JOURNAL=0``); ``resume=True`` replays a previous
    interrupted run's journal and executes only the missing
    repetitions.

    ``trace=True`` captures a structured trace per repetition into
    ``CellResult.traces`` (see :mod:`repro.trace`).  Traces are plain
    picklable data, so parallel grids return exactly the same traces
    as sequential runs.  The journal stores scalars only: repetitions
    replayed by ``resume=True`` carry ``None`` in the trace slot.

    ``backend`` selects the kernel-execution backend for every
    repetition (name, instance, or ``None`` for
    ``REPRO_BACKEND``/reference).  The *effective* backend — after any
    fallback from an unavailable optional backend — is what reaches
    workers, the journal's config hash, and the run log, so a resumed
    grid never silently mixes backends (not that it would matter for
    the numbers: backends are bit-identical by contract).
    """
    if jobs < 1:
        raise HarnessError("jobs must be >= 1")
    if repetitions < 1:
        raise HarnessError("repetitions must be >= 1")
    if retries < 0:
        raise HarnessError("retries must be >= 0")
    backend_name = _backend.resolve(backend).name
    names = list(dataset_names)
    algos = list(algorithms)
    tasks = [
        _Task(index=i, dataset=name, algorithm=algorithm, rep=rep)
        for i, (name, algorithm, rep) in enumerate(
            (name, algorithm, rep)
            for name in names
            for algorithm in algos
            for rep in range(repetitions)
        )
    ]
    results: Dict[int, _RepResult] = {}
    jrnl: Optional[GridJournal] = None
    if _journal_enabled(journal) or resume:
        jrnl = GridJournal.for_config(
            datasets=names,
            algorithms=algos,
            scale_div=scale_div,
            seed=seed,
            repetitions=repetitions,
            device=device,
            backend=backend_name,
        )
        if resume:
            prior = jrnl.load()
            for t in tasks:
                rec = prior.get((t.dataset, t.algorithm, t.rep))
                if rec is not None:
                    results[t.index] = _rep_from_record(rec)
                    # One event per replayed cell, mirroring rep_ok's
                    # granularity, so a log consumer can tell exactly
                    # which cells were served from the journal.  Note
                    # rep_ok is deliberately NOT emitted and the rep
                    # counters NOT bumped for replays: a --resume +
                    # --metrics-out run must not double-count work the
                    # interrupted run already settled.
                    runlog.emit(
                        "journal_replay",
                        dataset=t.dataset,
                        algorithm=t.algorithm,
                        rep=t.rep,
                        status=rec.get("status", "ok"),
                    )
            if results:
                metrics.inc(
                    "repro_journal_replayed_total", float(len(results))
                )
        jrnl.open(resume=resume)
    todo = [t for t in tasks if t.index not in results]
    runlog.emit(
        "grid_start",
        datasets=names,
        algorithms=algos,
        scale_div=scale_div,
        seed=seed,
        repetitions=repetitions,
        jobs=jobs,
        backend=backend_name,
        tasks=len(todo),
        replayed=len(results),
    )
    ctx = _fork_context() if jobs > 1 else None
    if jobs > 1 and ctx is None:
        warnings.warn(
            f"jobs={jobs} requested but the 'fork' start method is "
            "unavailable on this platform; running sequentially "
            "in-process",
            RuntimeWarning,
            stacklevel=2,
        )
    spec = _GridSpec(
        scale_div=scale_div,
        seed=seed,
        device=device,
        timeout=timeout,
        trace=trace,
        backend=backend_name,
    )
    try:
        if jobs > 1 and ctx is not None and todo:
            _run_tasks_pool(
                todo, results, jrnl, spec, retries=retries, jobs=jobs, ctx=ctx
            )
        else:
            _run_tasks_sequential(todo, results, jrnl, spec, retries=retries)  # repro-lint: disable=RPL104 — the spec carries the env-resolved backend name; backends are bit-identical by contract
    finally:
        if jrnl is not None:
            jrnl.close()
    cells: List[CellResult] = []
    i = 0
    for name in names:
        for algorithm in algos:
            reps = [results[j] for j in range(i, i + repetitions)]
            i += repetitions
            cells.append(_aggregate(reps, dataset=name, algorithm=algorithm))
    runlog.emit(
        "grid_end",
        cells=len(cells),
        failed=sum(1 for c in cells if not c.ok),
    )
    if verbose:
        for cell in cells:
            print(
                f"  {cell.dataset:>18s} {cell.algorithm:14s} "
                f"{cell.colors:6.1f} colors {cell.sim_ms:10.4f} ms"
                + ("" if cell.ok else f"  [FAILED: {cell.error}]")
            )
    return cells


def _settle(
    task: _Task,
    rep: _RepResult,
    results: Dict[int, _RepResult],
    jrnl: Optional[GridJournal],
    requeue,
    retries: int,
) -> None:
    """Accept a repetition outcome: record it, or requeue a retryable
    failure (with backoff) while attempts remain.

    This is also the harness's lifecycle-telemetry choke point: every
    retry, timeout, failure, and completion is counted into the active
    metrics registry and emitted to the run log here, parent-side —
    strictly after the repetition's numbers exist, so telemetry cannot
    perturb them."""
    labels = {"dataset": task.dataset, "algorithm": task.algorithm}
    if rep.status != "ok" and rep.transient and task.attempts < retries:
        task.attempts += 1
        metrics.inc("repro_retries_total", **labels)
        runlog.emit(
            "rep_retry",
            rep=task.rep,
            attempt=task.attempts,
            error=rep.error,
            **labels,
        )
        time.sleep(_backoff(task.attempts))
        requeue(task)
        return
    results[task.index] = rep
    if rep.status == "ok":
        metrics.inc("repro_reps_completed_total", **labels)
        if runlog.active() is not None:
            runlog.emit(
                "rep_ok",
                rep=task.rep,
                colors=rep.num_colors,
                sim_ms=rep.sim_ms,
                iterations=rep.iterations,
                wall_s=rep.wall_s,
                trace_id=(
                    rep.trace.fingerprint() if rep.trace is not None else None
                ),
                **labels,
            )
    else:
        if rep.status == "timeout":
            metrics.inc("repro_timeouts_total", **labels)
        metrics.inc("repro_rep_failures_total", **labels)
        runlog.emit(
            "rep_failed",
            rep=task.rep,
            status=rep.status,
            error=rep.error,
            attempts=task.attempts,
            **labels,
        )
    if jrnl is not None and rep.status == "ok":
        jrnl.record(task.dataset, task.algorithm, task.rep, _rep_payload(rep))


def _run_tasks_sequential(
    todo: List[_Task],
    results: Dict[int, _RepResult],
    jrnl: Optional[GridJournal],
    spec: _GridSpec,
    *,
    retries: int,
) -> None:
    pending = deque(todo)
    while pending:
        task = pending.popleft()
        rep = _execute(task, spec)
        _settle(task, rep, results, jrnl, pending.appendleft, retries)  # repl: justified — journal payload carries measured wall time beside sim numbers by design


# -- process-pool plumbing ---------------------------------------------------

#: Why a repetition in flight on a broken pool was lost.
_POOL_BROKE = "repetition was in flight when the worker pool broke"


def _run_tasks_pool(
    todo: List[_Task],
    results: Dict[int, _RepResult],
    jrnl: Optional[GridJournal],
    spec: _GridSpec,
    *,
    retries: int,
    jobs: int,
    ctx,
) -> None:
    queue: deque = deque()
    sizes: Dict[str, Dict[str, int]] = {}

    def settle(task: _Task, rep: _RepResult) -> None:
        # A repetition lost with its worker carries no graph size; the
        # pre-warm below knows it.
        rep = replace(rep, **sizes.get(task.dataset, {}))
        _settle(task, rep, results, jrnl, queue.appendleft, retries)

    # Warm every distinct dataset in the parent first: this fills the
    # disk cache once per graph (no worker ever generates, and
    # concurrent workers never race to fill the same key) and — since
    # workers are forked below — every worker inherits the loaded
    # graphs copy-on-write, making its ds.load() calls free.  A
    # dataset whose generator fails settles its repetitions as failed
    # here; nothing is submitted for it.
    load_errors: Dict[str, _RepResult] = {}
    for name in dict.fromkeys(t.dataset for t in todo):
        try:
            graph = ds.load(name, scale_div=spec.scale_div, seed=spec.seed)
        except Exception as exc:
            load_errors[name] = _failed_rep(exc)
        else:
            sizes[name] = {
                "num_vertices": graph.num_vertices,
                "num_edges": graph.num_edges,
            }
    for t in todo:
        if t.dataset in load_errors:
            settle(t, load_errors[t.dataset])
        else:
            queue.append(t)
    # Parent-side deadline: generous (timeout + slack) because the
    # worker's own SIGALRM fires first in every case except a worker
    # hung inside native code or lost before it could arm the timer.
    grace = (spec.timeout * 1.5 + 5.0) if spec.timeout else None
    pool = ProcessPoolExecutor(max_workers=jobs, mp_context=ctx)
    inflight: Dict = {}  # future -> (task, submitted_at)

    def salvage(verdict) -> ProcessPoolExecutor:
        """Tear down the broken or hung pool and start a fresh one.

        Live workers are terminated and outstanding futures cancelled;
        then every in-flight task gets ``verdict(future)``: a failed
        repetition to settle (charged an attempt), or ``None`` to
        resubmit it free of charge (same task → same seed →
        bit-identical result)."""
        metrics.inc("repro_pool_reseeds_total")
        runlog.emit("pool_reseed", jobs=jobs)
        for proc in list(getattr(pool, "_processes", {}).values()):
            try:
                proc.terminate()
            except Exception:  # repro-lint: disable=RPL006 — worker already dead; nothing to report
                pass
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:  # repro-lint: disable=RPL006 — best-effort teardown of a broken pool
            pass
        for f in list(inflight):
            task, _started = inflight.pop(f)
            rep = verdict(f)
            if rep is None:
                queue.appendleft(task)
            else:
                settle(task, rep)
        return ProcessPoolExecutor(max_workers=jobs, mp_context=ctx)

    try:
        while queue or inflight:
            # Sliding window of at most `jobs` in-flight repetitions,
            # so a submitted task is (approximately) a running task
            # and the parent-side deadline is meaningful.
            while queue and len(inflight) < jobs:
                task = queue.popleft()
                try:
                    fut = pool.submit(_execute, task, spec)
                except BrokenProcessPool:
                    # A worker died while we were filling the window:
                    # the task never ran (resubmit free of charge), the
                    # in-flight ones are lost (charged an attempt).
                    queue.appendleft(task)
                    pool = salvage(lambda f: _failed_rep(_POOL_BROKE))
                    continue
                inflight[fut] = (task, time.monotonic())
            ready, _ = wait(
                list(inflight),
                timeout=0.05 if grace is not None else None,
                return_when=FIRST_COMPLETED,
            )
            if not ready:
                if grace is None:
                    continue
                now = time.monotonic()
                expired = {
                    f
                    for f, (t, started) in inflight.items()
                    if now - started > grace
                }
                if expired:
                    # A worker is hung past the backstop deadline and
                    # SIGALRM did not fire (native-code hang): the only
                    # recovery is to kill the pool.  Expired tasks are
                    # charged a timeout; innocent in-flight tasks are
                    # resubmitted free of charge.
                    pool = salvage(
                        lambda f: _failed_rep(
                            RepetitionTimeout(
                                "repetition exceeded its "
                                f"{spec.timeout:g}s budget and the worker "
                                "had to be killed"
                            )
                        )
                        if f in expired
                        else None
                    )
                continue
            broken = False
            for f in ready:
                task, _started = inflight.pop(f)
                try:
                    rep = f.result()
                except BrokenProcessPool:
                    broken = True
                    rep = _failed_rep(
                        "worker process died before returning "
                        f"{task.dataset}:{task.algorithm}:rep{task.rep}"
                    )
                except Exception as exc:
                    rep = _failed_rep(exc)
                settle(task, rep)
            if broken:
                # Every other in-flight future of a broken pool is
                # doomed too; salvage the tasks and reseed once.
                pool = salvage(lambda f: _failed_rep(_POOL_BROKE))
    finally:
        pool.shutdown(wait=False, cancel_futures=True)


def _cell_phase_ms(cell: CellResult) -> Dict[str, float]:
    """Mean simulated ms per top-level phase over the cell's traced
    repetitions (empty when the cell carries no traces)."""
    traced = [t for t in (cell.traces or ()) if t is not None]
    if not traced:
        return {}
    out: Dict[str, float] = {}
    for t in traced:
        for phase, ms in t.by_phase().items():
            out[phase] = out.get(phase, 0.0) + ms
    return {phase: ms / len(traced) for phase, ms in out.items()}


def grid_to_rows(cells: Sequence[CellResult]) -> List[Dict]:
    """Flatten cells into table rows (the full cell record).

    When any cell carries traces (``run_grid(trace=True)`` /
    ``REPRO_TRACE=1``), the rows gain one ``Sim ms [<phase>]`` column
    per top-level phase seen anywhere in the grid — the per-phase
    breakdown of ``Sim ms`` (mean over traced repetitions; empty string
    for cells without traces, e.g. ``cpu.greedy``).
    """
    per_cell = [_cell_phase_ms(c) for c in cells]
    phases = sorted({p for m in per_cell for p in m})
    rows = []
    for c, phase_ms in zip(cells, per_cell):
        row = {
            "Dataset": c.dataset,
            "Algorithm": c.algorithm,
            "Vertices": c.num_vertices,
            "Edges": c.num_edges,
            "Colors": c.colors,
            "Sim ms": c.sim_ms,
            "Iterations": c.iterations,
            "Wall s": round(c.wall_s, 6),
            "Validate s": round(c.validate_s, 6),
            "Repetitions": c.repetitions,
            "Valid": c.valid,
            "Status": c.status,
            "Error": c.error or "",
        }
        for phase in phases:
            row[f"Sim ms [{phase}]"] = (
                phase_ms[phase] if phase in phase_ms else ""
            )
        rows.append(row)
    return rows


def speedup_vs(
    cells: Sequence[CellResult], baseline_algorithm: str
) -> Dict[str, Dict[str, float]]:
    """Per-dataset speedups of every algorithm against a baseline.

    Returns ``{algorithm: {dataset: speedup}}`` — the structure of
    Fig. 1a, whose y-axis is speedup vs Naumov/JPL.  Failed cells (and
    datasets whose baseline cell failed) are omitted rather than
    poisoning the ratios with NaN.
    """
    base: Dict[str, float] = {
        c.dataset: c.sim_ms
        for c in cells
        if c.algorithm == baseline_algorithm and c.ok
    }
    if not base:
        raise HarnessError(
            f"baseline {baseline_algorithm!r} missing from the grid"
        )
    out: Dict[str, Dict[str, float]] = {}
    for c in cells:
        if c.dataset not in base or not c.ok:
            continue
        out.setdefault(c.algorithm, {})[c.dataset] = base[c.dataset] / c.sim_ms
    return out


def geomean_speedup(
    cells: Sequence[CellResult], algorithm: str, baseline_algorithm: str
) -> float:
    """Geometric-mean speedup of one algorithm over the baseline."""
    per = speedup_vs(cells, baseline_algorithm)
    if algorithm not in per:
        raise HarnessError(f"algorithm {algorithm!r} missing from the grid")
    return geomean(per[algorithm].values())
