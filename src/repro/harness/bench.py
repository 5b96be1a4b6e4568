"""The benchmark-regression observatory (``repro.harness bench``).

The repo's performance claims — Table II's optimization ladder, Fig. 1's
speedups — are only as durable as their last measurement.  This module
turns them into a **trajectory**: every ``python -m repro.harness bench``
run executes a pinned suite (the Table 2 ladder on G3_circuit plus a
Fig. 1 slice, at CI scale) and writes ``BENCH_<git-sha>.json`` capturing
per-cell ``wall_s``/``sim_ms``/``colors``/``iterations``, per-kernel
totals from the structured trace, a full metrics-registry snapshot, and
an environment fingerprint.  ``bench --compare baseline.json`` then
diffs the fresh run against a committed baseline:

* ``sim_ms``, ``colors``, ``iterations``, per-kernel totals, and
  cell status are compared **bit-exactly** — the cost model is
  deterministic, so any drift is a real behavioural change;
* ``wall_s`` gets a tolerance band (default 10× + 1 s slack: CI
  machines are noisy, and wall time only gates order-of-magnitude
  blowups);
* a regression exits with the dedicated code 5
  (:data:`repro.harness.__main__.EXIT_REGRESSION`), distinct from
  runtime failure (3) and lint (4), so CI can tell "slower/different"
  from "broken".

The suite runs **in-process and sequentially** (``jobs=1``,
``repetitions=1``, journal off): metrics registries are per-process, and
one repetition suffices because the measured quantities are
deterministic given the seed.
"""

from __future__ import annotations

import json
import platform
import subprocess
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import backend as _backend
from .. import metrics
from .. import log as runlog
from .._rng import DEFAULT_SEED, ensure_rng
from ..errors import HarnessError
from ..graph.generators.suitesparse import DEFAULT_SCALE_DIV
from . import datasets as ds
from .runner import CellResult, run_grid
from .tables import TABLE2_LADDER

__all__ = [
    "BENCH_SCHEMA",
    "BENCH_SUITE",
    "PROFILED_KERNELS",
    "BenchBackendMismatch",
    "run_bench",
    "kernel_speedups",
    "write_bench",
    "load_bench",
    "validate_bench",
    "compare_bench",
    "bench_backend",
    "git_sha",
]


class BenchBackendMismatch(HarnessError):
    """Raised by :func:`compare_bench` when the two documents were
    produced by different kernel-execution backends.  A cross-backend
    wall-clock diff is a usage error, not a regression — the CLI maps
    this to the usage exit code (2), never the regression code (5)."""

#: Version of the BENCH_*.json layout; bump on incompatible change.
BENCH_SCHEMA = 1

#: The pinned suite: (suite name, datasets, algorithms).  Table 2's
#: optimization ladder on the G3_circuit analogue, plus a Fig. 1 slice
#: spanning the framework families (CPU baseline, Gunrock, GraphBLAS,
#: Naumov comparator) on two structurally different datasets, plus a
#: multi-device slice (the parameterized ``@d<N>`` registry ids) so the
#: cluster cost model's numbers — halo charges, barrier stalls, merged
#: per-device kernel totals — are pinned bit-exactly by the baseline
#: too (docs/distributed.md).
BENCH_SUITE: List[Tuple[str, List[str], List[str]]] = [
    ("table2", ["G3_circuit"], [algo for _, algo in TABLE2_LADDER]),
    (
        "fig1",
        ["ecology2", "offshore"],
        ["cpu.greedy", "gunrock.is", "graphblas.mis", "naumov.jpl"],
    ),
    (
        "scale",
        ["rgg_n_2_10_s0"],
        ["dist.jpl@d2", "dist.speculative@d2"],
    ),
]

#: Default multiplicative tolerance on per-cell wall_s in --compare.
DEFAULT_WALL_TOL = 10.0

#: Additive slack (seconds) under the wall_s band, so microsecond-fast
#: cells cannot fail on scheduler noise alone.
WALL_SLACK_S = 1.0


def git_sha() -> str:
    """Short git SHA of the working tree, or ``"nogit"`` outside a
    repository (the bench file is still valid — just unanchored)."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "nogit"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "nogit"


def _environment(backend: str = "reference") -> Dict:
    """The environment fingerprint stamped into every bench file."""
    import dataclasses

    from .. import __version__
    from ..gpusim.device import K40C
    from .cache import GENERATOR_VERSION

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.system(),
        "machine": platform.machine(),
        "repro_version": __version__,
        "generator_version": GENERATOR_VERSION,
        "device": dataclasses.asdict(K40C),
        "backend": backend,
    }


#: Kernels the profiler ranks hottest across the suite — the ones the
#: compiled backends fuse, and the ones the speedup table tracks.
PROFILED_KERNELS: Tuple[str, ...] = (
    "active_extrema",
    "segmented_mex",
    "active_max",
    "conflict_losers",
)


def kernel_speedups(
    backend,
    *,
    dataset: str = "G3_circuit",
    scale_div: int = DEFAULT_SCALE_DIV,
    seed: int = DEFAULT_SEED,
    repeats: int = 3,
) -> Dict[str, Dict[str, float]]:
    """Wall-clock microbenchmark of the profiled hot kernels: the given
    backend vs the reference backend, on the suite's largest pinned
    dataset.

    Each kernel runs on identical deterministic inputs (full-graph
    frontier, rng-seeded keys/colors/priorities); both backends are
    warmed once (compile caches) and then timed best-of-
    ``repeats``.  Outputs are asserted equal before timing is trusted —
    a backend that drifts from reference has no business in a speedup
    table.  Returns ``{kernel: {reference_ms, backend_ms, speedup}}``.
    """
    be = _backend.resolve(backend)
    ref = _backend.resolve("reference")
    graph = ds.load(dataset, scale_div=scale_div, seed=seed)
    rng = ensure_rng(seed)
    n = graph.num_vertices
    keys = rng.integers(1, np.int64(1) << 40, size=n, dtype=np.int64)
    colors = rng.integers(0, 24, size=n, dtype=np.int64)  # repro-lint: disable=RPL104 — sized by the cached graph; values come from the seeded rng
    prio = np.argsort(rng.random(n)).astype(np.int64)
    active = np.ones(n, dtype=bool)
    degs = graph.offsets[1:] - graph.offsets[:-1]
    starts = np.ascontiguousarray(graph.offsets[:-1])
    ids = np.arange(n, dtype=np.int64)
    calls = {
        "active_extrema": lambda b: b.active_extrema(
            graph.offsets, graph.indices, keys, active
        ),
        "segmented_mex": lambda b: b.segmented_mex(
            colors, graph.indices, starts, degs
        ),
        "active_max": lambda b: b.active_max(
            graph.offsets, graph.indices, keys, active, ids
        ),
        "conflict_losers": lambda b: b.conflict_losers(
            colors, graph.indices, ids, starts, degs, prio
        ),
    }

    def _best_ms(fn) -> float:
        best = float("inf")
        for _ in range(max(repeats, 1)):
            t0 = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - t0)
        return best * 1e3

    out: Dict[str, Dict[str, float]] = {}
    for name in PROFILED_KERNELS:
        call = calls[name]
        got, want = call(be), call(ref)  # warm both; check identity
        for g, w in (
            zip(got, want) if isinstance(got, tuple) else ((got, want),)
        ):
            if not np.array_equal(g, w):
                raise HarnessError(
                    f"backend {be.name!r} disagrees with reference on "
                    f"kernel {name!r}; refusing to benchmark it"
                )
        ref_ms = _best_ms(lambda: call(ref))
        be_ms = _best_ms(lambda: call(be))
        out[name] = {
            "reference_ms": ref_ms,
            "backend_ms": be_ms,
            "speedup": ref_ms / be_ms if be_ms > 0 else float("inf"),
        }
    return out


def _cell_entry(suite: str, cell: CellResult) -> Dict:
    """One bench-file cell record (JSON-safe: no NaN in failed cells)."""
    entry: Dict = {
        "suite": suite,
        "dataset": cell.dataset,
        "algorithm": cell.algorithm,
        "status": cell.status,
        "valid": bool(cell.valid),
        "colors": float(cell.colors) if cell.ok else None,
        "sim_ms": float(cell.sim_ms) if cell.ok else None,
        "iterations": float(cell.iterations) if cell.ok else None,
        "wall_s": float(cell.wall_s),
        "error": cell.error,
    }
    trace = cell.trace
    if trace is not None:
        entry["kernels"] = {
            row["Kernel"]: {
                "kind": row["Kind"],
                "calls": row["Calls"],
                "work": row["Work"],
                "ms": row["ms"],
            }
            for row in trace.aggregate()
        }
        entry["trace_id"] = trace.fingerprint()
    else:
        entry["kernels"] = None
        entry["trace_id"] = None
    return entry


def run_bench(
    *,
    scale_div: int = DEFAULT_SCALE_DIV,
    seed: int = DEFAULT_SEED,
    repetitions: int = 1,
    suite: Optional[Sequence[Tuple[str, List[str], List[str]]]] = None,
    backend=None,
    speedups: Optional[bool] = None,
) -> Dict:
    """Execute the pinned suite and return the bench document.

    Runs with tracing on (for per-kernel totals and trace ids) and the
    metrics registry on (snapshotted into the document), journal off,
    sequential and in-process so every emission lands in this process's
    registry.  An already-active registry is joined rather than
    shadowed, so ``--metrics-out`` on the bench CLI captures the suite's
    emissions too; otherwise a fresh registry is used.

    ``backend`` selects the kernel-execution backend for the suite; the
    effective name is stamped into ``environment.backend`` so
    :func:`compare_bench` can refuse cross-backend diffs.  On a
    non-reference backend the document also carries a
    ``kernel_speedups`` table (:func:`kernel_speedups`; force on/off
    with ``speedups``) — the wall-clock evidence behind the compiled
    hot path.  The simulated quantities are backend-invariant by
    contract, so the *numbers* in the document never depend on this
    choice.
    """
    be = _backend.resolve(backend)
    grids = list(suite) if suite is not None else BENCH_SUITE
    t0 = time.perf_counter()
    cells_by_suite: List[Tuple[str, List[CellResult]]] = []
    outer = metrics.active()
    with (
        metrics.activate(outer) if outer is not None else metrics.activate()
    ) as reg:
        for suite_name, datasets, algorithms in grids:
            runlog.emit("bench_suite_start", suite=suite_name)
            cells = run_grid(
                datasets,
                algorithms,
                scale_div=scale_div,
                repetitions=repetitions,
                seed=seed,
                jobs=1,
                journal=False,
                trace=True,
                backend=be,
            )
            cells_by_suite.append((suite_name, cells))
    wall_total = time.perf_counter() - t0
    cell_entries = [
        _cell_entry(suite_name, cell)
        for suite_name, cells in cells_by_suite
        for cell in cells
    ]
    want_speedups = (
        speedups if speedups is not None else be.name != "reference"
    )
    doc = {
        "schema": BENCH_SCHEMA,
        "git_sha": git_sha(),
        "created_unix": time.time(),
        "scale_div": int(scale_div),
        "seed": int(seed),
        "repetitions": int(repetitions),
        "environment": _environment(be.name),
        "wall_s_total": wall_total,
        "cells": cell_entries,
        "kernel_speedups": (
            kernel_speedups(be, scale_div=scale_div, seed=seed)
            if want_speedups
            else None
        ),
        "metrics": reg.snapshot(),
    }
    runlog.emit(
        "bench_done",
        git_sha=doc["git_sha"],
        cells=len(cell_entries),
        failed=sum(1 for c in cell_entries if c["status"] != "ok"),
        wall_s_total=wall_total,
    )
    return doc


def write_bench(bench: Dict, out_dir) -> Path:
    """Write ``BENCH_<git-sha>.json`` under ``out_dir``; returns the path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"BENCH_{bench.get('git_sha', 'nogit')}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(bench, fh, indent=2, sort_keys=False)
        fh.write("\n")
    return path


def load_bench(path) -> Dict:
    """Load a bench document (raising on unreadable/invalid JSON)."""
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


_REQUIRED_TOP = (
    "schema",
    "git_sha",
    "scale_div",
    "seed",
    "repetitions",
    "environment",
    "wall_s_total",
    "cells",
    "metrics",
)

_REQUIRED_CELL = (
    "suite",
    "dataset",
    "algorithm",
    "status",
    "valid",
    "colors",
    "sim_ms",
    "iterations",
    "wall_s",
)


def validate_bench(obj) -> List[str]:
    """Check a parsed bench document's shape; returns problems
    (empty = schema-valid).  Pinned by the bench CLI tests so the file
    format cannot silently rot."""
    problems: List[str] = []
    if not isinstance(obj, dict):
        return ["bench document must be a JSON object"]
    for key in _REQUIRED_TOP:
        if key not in obj:
            problems.append(f"missing top-level key {key!r}")
    if obj.get("schema") != BENCH_SCHEMA:
        problems.append(
            f"schema is {obj.get('schema')!r}, expected {BENCH_SCHEMA}"
        )
    cells = obj.get("cells")
    if not isinstance(cells, list):
        problems.append("'cells' is not a list")
        return problems
    if not cells:
        problems.append("bench contains no cells")
    for i, cell in enumerate(cells):
        if not isinstance(cell, dict):
            problems.append(f"cell {i}: not an object")
            continue
        for key in _REQUIRED_CELL:
            if key not in cell:
                problems.append(f"cell {i}: missing {key!r}")
        status = cell.get("status")
        if status == "ok":
            for key in ("colors", "sim_ms", "iterations"):
                if not isinstance(cell.get(key), (int, float)):
                    problems.append(
                        f"cell {i}: {key!r} is not numeric on an ok cell"
                    )
    return problems


def _cell_key(cell: Dict) -> Tuple[str, str]:
    return (str(cell.get("dataset")), str(cell.get("algorithm")))


def bench_backend(doc: Dict) -> str:
    """The backend a bench document was produced on (documents from
    before the backend axis default to ``"reference"``)."""
    env = doc.get("environment")
    if isinstance(env, dict):
        return str(env.get("backend") or "reference")
    return "reference"


def compare_bench(
    current: Dict,
    baseline: Dict,
    *,
    wall_tol: float = DEFAULT_WALL_TOL,
    wall_slack_s: float = WALL_SLACK_S,
    ignore_backend: bool = False,
) -> List[str]:
    """Diff a fresh bench run against a baseline; returns regressions
    (empty = pass).

    The deterministic quantities — ``sim_ms``, ``colors``,
    ``iterations``, per-kernel ``ms``/``calls``/``work``, ``status``,
    ``valid`` — must match **bit-exactly**.  ``wall_s`` regresses only
    past ``baseline * wall_tol + wall_slack_s``.  Suite parameters
    (scale_div/seed/repetitions) must match or the comparison is
    meaningless and says so.  Cells present in the baseline but missing
    from the current run are regressions (a silently shrunk suite must
    not pass).

    Documents produced on different backends raise
    :class:`BenchBackendMismatch` — their wall clocks are not
    comparable, and flagging the mismatch as a "regression" would be a
    spurious exit 5.  ``ignore_backend=True`` overrides (the simulated
    quantities are still compared bit-exactly, which is precisely how
    CI proves cross-backend bit-identity; wall_s keeps its usual slack
    band).
    """
    cur_be, base_be = bench_backend(current), bench_backend(baseline)
    if cur_be != base_be and not ignore_backend:
        raise BenchBackendMismatch(
            f"bench documents were produced on different backends "
            f"(current {cur_be!r} vs baseline {base_be!r}); rerun on a "
            f"matching backend or pass --ignore-backend"
        )
    problems: List[str] = []
    for key in ("scale_div", "seed", "repetitions"):
        if current.get(key) != baseline.get(key):
            problems.append(
                f"suite parameter {key} differs: current "
                f"{current.get(key)!r} vs baseline {baseline.get(key)!r}"
            )
    if problems:
        return problems
    cur_cells = {_cell_key(c): c for c in current.get("cells", [])}
    base_cells = {_cell_key(c): c for c in baseline.get("cells", [])}
    for key, base in base_cells.items():
        label = f"{key[0]}:{key[1]}"
        cur = cur_cells.get(key)
        if cur is None:
            problems.append(f"{label}: cell missing from current run")
            continue
        for field in ("status", "valid"):
            if cur.get(field) != base.get(field):
                problems.append(
                    f"{label}: {field} changed "
                    f"{base.get(field)!r} -> {cur.get(field)!r}"
                )
        for field in ("colors", "sim_ms", "iterations"):
            if cur.get(field) != base.get(field):
                problems.append(
                    f"{label}: {field} drifted "
                    f"{base.get(field)!r} -> {cur.get(field)!r} (bit-exact "
                    "quantity; any difference is a behavioural change)"
                )
        base_wall = base.get("wall_s")
        cur_wall = cur.get("wall_s")
        if isinstance(base_wall, (int, float)) and isinstance(
            cur_wall, (int, float)
        ):
            limit = base_wall * wall_tol + wall_slack_s
            if cur_wall > limit:
                problems.append(
                    f"{label}: wall_s {cur_wall:.4f}s exceeds "
                    f"{limit:.4f}s (baseline {base_wall:.4f}s × {wall_tol:g} "
                    f"+ {wall_slack_s:g}s slack)"
                )
        base_kernels = base.get("kernels")
        cur_kernels = cur.get("kernels")
        if base_kernels is not None:
            if cur_kernels != base_kernels:
                problems.extend(
                    _kernel_diffs(label, base_kernels, cur_kernels or {})
                )
    return problems


def _kernel_diffs(label: str, base: Dict, cur: Dict) -> List[str]:
    """Per-kernel drift messages (bit-exact comparison)."""
    out: List[str] = []
    for name in base:
        if name not in cur:
            out.append(f"{label}: kernel {name!r} missing from current run")
        elif cur[name] != base[name]:
            out.append(
                f"{label}: kernel {name!r} drifted "
                f"{base[name]!r} -> {cur[name]!r}"
            )
    for name in cur:
        if name not in base:
            out.append(f"{label}: new kernel {name!r} not in baseline")
    return out
