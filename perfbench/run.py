"""The repository benchmark: Fig. 1 grid, cold-start Zipf serving and
RGG multi-device scaling, with a traced run that times each layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig1-grid --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py                      # every workload, seed 0

Every measured run happens in a fresh worker process (``worker.py``)
whose dataset cache starts empty.  With ``--trace 0`` the benchmark
prints the end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1``
it prints the per-layer metrics of a run with layer wrappers installed,
plus that run's overhead against an untraced one.  Either way it checks
every output, and the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit
code is 0 only when every check passed.

Build artefacts, per-run caches and span dumps go to
``.bench_build/perfbench`` under the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("fig1-grid", "serve-zipf", "scale-rgg")

#: Set-ups timed per run besides the measured run's own; setup_s is
#: the median of all of them.
EXTRA_SETUPS = 2
#: A worker that runs longer than this is killed and the run fails.
WORKER_TIMEOUT_S = 170.0

#: Traced-run metrics that must repeat exactly between two traced
#: processes of one seed (besides every ``*.calls`` count).
EXACT_LAYER_METRICS = (
    "runner.cells",
    "core.iterations",
    "gpusim.sim_ms",
    "gpusim.kernel_launches",
    "gpusim.halo_bytes",
    "trace.spans",
    "datasets.generated",
)


class RunFailed(Exception):
    """A worker died, timed out or wrote no result."""


def _worker_env(cache_dir: Path, workload: str) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    env["REPRO_BACKEND_CACHE"] = str(WORK / "cnative")
    if workload == "serve-zipf":
        # Deployed services run with metrics and the run log on.
        env["REPRO_METRICS"] = "1"
        env["REPRO_LOG"] = str(cache_dir.parent / "serve-log.jsonl")
    return env


def build() -> None:
    """Compile the cnative kernels once, outside every timed region."""
    env = _worker_env(WORK / "build-cache", "build")
    code = (
        "import sys\n"
        "from repro.backend import cnative\n"
        "backend, reason = cnative.load()\n"
        "sys.exit(0 if backend is not None else reason)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        print(f"warning: cnative build failed: {proc.stderr.strip()}", file=sys.stderr)


def spawn(workload: str, seed: int, seconds: float, *, trace: int = 0,
          mode: str = "run", max_passes: int = 0, spans: str = ""):
    """Run one worker in a fresh process with an empty dataset cache;
    returns (its result, seconds from process start to end of set-up)."""
    run_dir = WORK / "runs" / f"{workload}-{os.getpid()}-{time.monotonic_ns()}"
    cache_dir = run_dir / "cache"
    cache_dir.mkdir(parents=True)
    out = run_dir / "result.json"
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--mode", mode, "--max-passes", str(max_passes),
        "--out", str(out),
    ]
    if spans:
        cmd += ["--spans", spans]
    try:
        started = time.monotonic()
        proc = subprocess.Popen(
            cmd, env=_worker_env(cache_dir, workload), cwd=str(run_dir),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            _stdout, stderr = proc.communicate(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise RunFailed(f"{workload}: worker exceeded {WORKER_TIMEOUT_S:g} s")
        if proc.returncode != 0 or not out.exists():
            tail = "\n".join(stderr.strip().splitlines()[-5:])
            raise RunFailed(f"{workload}: worker exited {proc.returncode}: {tail}")
        result = json.loads(out.read_text())
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return result, result["setup_end"] - started


def measure(workload: str, seed: int, seconds: float, metric_names) -> dict:
    """The untraced run: end-to-end metrics."""
    setups = [spawn(workload, seed, seconds, mode="setup")[1] for _ in range(EXTRA_SETUPS)]
    result, setup_s = spawn(workload, seed, seconds)
    setups.append(setup_s)
    metrics = dict(result["metrics"])
    metrics["peak_rss_mb"] = result["peak_rss_mb"]
    metrics["setup_s"] = statistics.median(setups)
    for line in result.get("failures", []):
        print(f"{workload}: failed request: {line}")
    return {
        "errors": result["errors"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: metrics[k] for k in metric_names},
    }


def measure_layers(workload: str, seed: int, seconds: float, metric_names) -> dict:
    """The traced run: per-layer metrics, its overhead against an
    untraced run of the same seed, and the determinism self-test."""
    closed = workload != "serve-zipf"
    spans_dir = WORK / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    plain, _ = spawn(workload, seed, seconds, max_passes=1 if closed else 0)
    traced, _ = spawn(workload, seed, seconds, trace=1,
                      spans=str(spans_dir / f"{workload}.jsonl"))
    errors = plain["errors"] + traced["errors"]
    layers = dict(traced["layers"])
    if closed:
        again, _ = spawn(workload, seed, seconds, trace=1, max_passes=1)
        errors += again["errors"]
        if not plain["records"] == traced["records"] == again["records"]:
            errors.append(f"{workload}: colors, sim_ms or counts differ between traced and untraced runs")
        for key, value in layers.items():
            if (key.endswith(".calls") or key in EXACT_LAYER_METRICS) and again["layers"].get(key) != value:
                errors.append(
                    f"{workload}: exact count {key} differs between two traced runs "
                    f"({value} vs {again['layers'].get(key)})"
                )
        base = statistics.median(plain["pass_walls"])
        layers["trace.overhead_pct"] = 100.0 * (statistics.median(traced["pass_walls"]) / base - 1.0)
    else:
        base = plain["metrics"]["latency_p50_ms"]
        layers["trace.overhead_pct"] = 100.0 * (traced["metrics"]["latency_p50_ms"] / base - 1.0)
    return {
        "errors": errors,
        "attempted": traced["attempted"],
        "failed": traced["failed"],
        "metrics": {k: layers.get(k, 0) for k in metric_names},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: no repro source tree at {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)

    WORK.mkdir(parents=True, exist_ok=True)
    build()
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        measure_fn = measure_layers if args.trace else measure
        try:
            res = measure_fn(workload, args.seed, seconds, units)
        except RunFailed as exc:
            res = {"errors": [str(exc)], "attempted": 1, "failed": 1, "metrics": {}}
        for error in res["errors"]:
            print(f"CHECK FAILED: {error}")
        print(f"{workload}/ops attempted = {res['attempted']}, failed = {res['failed']}")
        for name, value in res["metrics"].items():
            print(f"{workload}/{name} = {value:.6g} {units[name]}")
        summary["correct"] = summary["correct"] and not res["errors"]
        summary["attempted"] += res["attempted"]
        summary["failed"] += res["failed"]
        for name, value in res["metrics"].items():
            key = name if len(workloads) == 1 else f"{workload}/{name}"
            summary["metrics"][key] = {"value": value, "unit": units[name]}
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
