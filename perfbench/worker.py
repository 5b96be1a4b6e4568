"""One benchmark process: set a workload up, time it, check its outputs.

``run.py`` starts this script once per measured run, in a fresh process
whose dataset cache directory (``REPRO_CACHE_DIR``) is empty, and reads
the JSON it writes to ``--out``.  ``--mode setup`` stops after set-up
(``run.py`` times several set-ups per run and reports their median).

Workloads (the reasons are in ``NOTES.md``):

``fig1-grid``
    Closed loop, one client, ``jobs=1``: each pass is the paper's
    Figure 1 grid — the 9 ``FIGURE1_ALGORITHMS`` on the 12 Table I
    analogues at ``scale_div=64`` — through ``run_grid`` on the
    ``reference`` backend with trace, metrics and log off.
``scale-rgg``
    Closed loop, one client, ``jobs=1``: each pass runs ``dist.jpl``
    and ``dist.speculative`` at 1, 4 and 16 devices on
    ``rgg_n_2_15_s0`` and ``rgg_n_2_16_s0`` through
    ``run_grid(trace=True)`` on the ``cnative`` backend.
``serve-zipf``
    Open loop: one generator thread sends Poisson arrivals at a fixed
    rate into an in-process ``ServeClient`` (default ``ServeConfig``)
    with metrics and the run log on.  A fixed share of requests repeats
    a key from a small hot set; every other request carries a seed not
    used before in the run.  Latencies of requests answered in the first
    ``SERVE_WARMUP_S`` seconds are left out of the quantiles.

With ``--trace 1`` the layer wrappers of :mod:`layers` are installed
after set-up, and the per-layer totals are written with the result.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import hashlib
import json
import math
import os
import resource
import sys
import threading
import time

import layers

FIG1_SCALE_DIV = 64
SCALE_DATASETS = ("rgg_n_2_15_s0", "rgg_n_2_16_s0")
SCALE_DEVICES = (1, 4, 16)

#: Mean arrival rate of serve-zipf (requests/s); a hit costs ~0.5 ms
#: and a miss 2-30 ms, so the service is busy ~8% of the time.  A slower
#: host stretches latency by about 1/(1 - busy share), not just by the
#: slowdown, so a low rate keeps p95 close to the host's own drift.
SERVE_RATE = 30.0
#: Share of requests that repeat a hot key, fixed by construction.
SERVE_REPEAT_SHARE = 0.8
#: Hot seeds per (dataset, impl): 3 datasets x 3 impls x 2 seeds = 18
#: hot keys over 6 graphs, inside the result cache (256) and the
#: dataset LRU (64).
SERVE_HOT_SEEDS = 2
#: p95 needs at least ten samples beyond it: the least number of
#: requests scheduled after the warm-up.
SERVE_MIN_REQUESTS = 200
#: Warm-up: requests scheduled in the first seconds of a run are sent,
#: checked and counted in ``attempted``/``failed`` like the rest, but
#: the latencies of those answered are left out of the quantiles (one
#: that fails still counts there as +inf).  The warm-up is where the 18
#: hot keys go from cold to cached: in that burst 12-19 requests queue
#: behind concurrent cold misses, a third of the samples beyond p95, and
#: how many do depends on the order the hot keys first arrive in.  After
#: it, p50 falls among hits and p95 among the fresh-seed misses.
SERVE_WARMUP_S = 3.0
#: How long to wait for the last responses after the last send.
SERVE_DRAIN_S = 60.0
#: Seed stride between request seeds (the loadgen's stride).
SEED_STRIDE = 7919


def _digest(colors) -> str:
    return hashlib.sha256(colors.tobytes()).hexdigest()[:16]


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


class GenerateCounter:
    """Counts dataset generations (``datasets.generate`` calls).

    Installed in every mode: timed closed-loop passes must generate
    nothing, because set-up prepared exactly the graphs they use.
    """

    def __init__(self) -> None:
        from repro.harness import datasets

        self.count = 0
        original = datasets.generate

        def counted(*args, **kwargs):
            self.count += 1
            return original(*args, **kwargs)

        layers.replace_everywhere(None, original, counted)


# -- closed-loop workloads -------------------------------------------------------


class ClosedLoop:
    """fig1-grid and scale-rgg: repeated ``run_grid`` passes."""

    def __init__(self, workload: str, seed: int) -> None:
        from repro import backend
        from repro.core.registry import FIGURE1_ALGORITHMS
        from repro.harness import datasets as ds
        from repro.harness import runner
        from repro.harness.scale import SCALE_ALGORITHMS

        self.workload = workload
        self.seed = seed
        if workload == "fig1-grid":
            self.datasets = list(ds.REAL_WORLD_DATASETS)
            self.algorithms = list(FIGURE1_ALGORITHMS)
            self.scale_div = FIG1_SCALE_DIV
            self.backend = "reference"
            self.trace = False
        else:
            self.datasets = list(SCALE_DATASETS)
            self.algorithms = [
                f"{a}@d{d}" for a in SCALE_ALGORITHMS for d in SCALE_DEVICES
            ]
            self.scale_div = 1
            self.backend = "cnative"
            self.trace = True
        resolved = backend.resolve(self.backend).name
        if resolved != self.backend:
            raise SystemExit(
                f"{workload}: backend {self.backend!r} resolved to {resolved!r}; "
                "refusing to time the fallback"
            )
        for name in self.datasets:
            ds.load(name, scale_div=self.scale_div, seed=seed)
        self.generated = GenerateCounter()
        self.records: list = []
        self._runner = runner
        self._capture()

    def _capture(self) -> None:
        """Record each coloring the runner produces (digest and exact
        counts).  Calls through ``registry.run_algorithm`` at call time,
        so the layer wrappers see it when installed."""
        from repro.core import registry

        records = self.records

        def captured(name, graph, **kwargs):
            result = registry.run_algorithm(name, graph, **kwargs)
            counters = result.counters
            records.append(
                [
                    graph.name,
                    name,
                    _digest(result.colors),
                    result.num_colors,
                    result.sim_ms,
                    result.iterations,
                    counters.num_kernels if counters is not None else 0,
                    sum(r.work for r in counters.records if r.kind == "halo")
                    if counters is not None
                    else 0,
                    len(result.trace.spans) if result.trace is not None else 0,
                ]
            )
            return result

        self._runner.run_algorithm = captured

    def run_pass(self):
        """One timed pass; returns (wall seconds, cells, op records,
        datasets generated inside the pass)."""
        self.records.clear()
        generated = self.generated.count
        t0 = time.perf_counter()
        cells = self._runner.run_grid(
            self.datasets,
            self.algorithms,
            scale_div=self.scale_div,
            repetitions=1,
            seed=self.seed,
            jobs=1,
            journal=False,
            trace=self.trace,
            backend=self.backend,
        )
        wall = time.perf_counter() - t0
        return wall, cells, list(self.records), self.generated.count - generated

    def check_pass(self, cells, records, generated, first_records) -> list:
        errors = []
        expected = len(self.datasets) * len(self.algorithms)
        if len(cells) != expected or len(records) != expected:
            errors.append(
                f"{self.workload}: pass produced {len(cells)} cells and "
                f"{len(records)} colorings, expected {expected}"
            )
        for c in cells:
            if not (c.ok and c.valid):
                errors.append(
                    f"{self.workload}: cell {c.dataset}/{c.algorithm} "
                    f"status={c.status} valid={c.valid} error={c.error}"
                )
        if generated:
            errors.append(
                f"{self.workload}: {generated} datasets generated inside a "
                "timed pass (set-up must prepare every graph)"
            )
        if first_records is not None and records != first_records:
            errors.append(f"{self.workload}: a pass differs from the first pass")
        if self.workload == "scale-rgg":
            errors += self._check_devices(records)
        return errors

    def _check_devices(self, records) -> list:
        """Each dist algorithm colors a graph identically at every
        device count."""
        errors = []
        by_key: dict = {}
        for dataset, name, sha, *_ in records:
            base, devices = name.split("@d")
            by_key.setdefault((dataset, base), {})[int(devices)] = sha
        for (dataset, base), shas in by_key.items():
            if len(set(shas.values())) != 1:
                errors.append(
                    f"scale-rgg: {base} colorings differ across device "
                    f"counts on {dataset}: {shas}"
                )
        return errors

    def check_baselines(self, records) -> list:
        """``@d1`` equals its SINGLE_DEVICE_BASELINES implementation."""
        if self.workload != "scale-rgg":
            return []
        from repro.core.registry import run_algorithm
        from repro.harness import datasets as ds
        from repro.harness.scale import SINGLE_DEVICE_BASELINES

        errors = []
        for dataset, name, sha, *_ in records:
            base, devices = name.split("@d")
            if devices != "1":
                continue
            graph = ds.load(dataset, scale_div=self.scale_div, seed=self.seed)
            single = SINGLE_DEVICE_BASELINES[base]
            result = run_algorithm(single, graph, rng=self.seed, backend=self.backend)
            if _digest(result.colors) != sha:
                errors.append(
                    f"scale-rgg: {name} on {dataset} differs from {single}"
                )
        return errors


def run_closed(args, out: dict, tracer) -> None:
    work = ClosedLoop(args.workload, args.seed)
    out["setup_end"] = time.monotonic()
    if args.mode == "setup":
        return
    if tracer is not None:
        layers.install(tracer, [work.backend])
    walls, errors, first, valid_ops = [], [], None, 0
    start = time.perf_counter()
    while True:
        wall, cells, records, generated = work.run_pass()
        walls.append(wall)
        valid_ops += sum(1 for c in cells if c.ok and c.valid)
        errors += work.check_pass(cells, records, generated, first)
        if first is None:
            first = records
        # Stop at the pass boundary nearest to --seconds.
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / len(walls) >= args.seconds or (
            args.max_passes and len(walls) >= args.max_passes
        ):
            break
    if tracer is not None:
        tracer.uninstall()
    errors += work.check_baselines(first)
    ops = len(work.datasets) * len(work.algorithms) * len(walls)
    out["attempted"] = ops
    out["failed"] = ops - valid_ops
    out["errors"] = errors
    out["pass_walls"] = walls
    out["records"] = first
    out["metrics"] = {
        "throughput_ops_s": valid_ops / sum(walls),
        "latency_p50_ms": _percentile(walls, 50) * 1e3,
        "latency_p95_ms": _percentile(walls, 95) * 1e3,
    }
    out["exact"] = {
        "runner.cells": len(first),
        "core.iterations": sum(r[5] for r in first),
        "gpusim.sim_ms": math.fsum(r[4] for r in first),
        "gpusim.kernel_launches": sum(r[6] for r in first),
        "gpusim.halo_bytes": sum(r[7] for r in first),
        "trace.spans": sum(r[8] for r in first),
    }
    if tracer is not None:
        out["layers"] = _layer_metrics(tracer, len(walls), out)


# -- serve-zipf -------------------------------------------------------------------


def _quotas(n: int, weights) -> list:
    """Split n into integer counts proportional to ``weights``
    (largest remainder), so a run's mix is exact rather than sampled."""
    import numpy as np

    share = np.asarray(weights, dtype=np.float64)
    share = n * share / share.sum()
    counts = np.floor(share).astype(int)
    for i in np.argsort(counts - share, kind="stable")[: n - counts.sum()]:
        counts[i] += 1
    return counts.tolist()


def serve_schedule(seed: int, n: int, window_s: float):
    """``[(at_s, ColoringRequest, hot)]`` for one run, from the seed only.

    Arrival times are n uniform draws over the window, sorted: a Poisson
    process conditioned on n arrivals.  The mix follows LoadSpec — Zipf
    over datasets, uniform over impls — in exact proportions (stratified,
    so seeds differ in order, arrival times and graphs, not in mix).  A
    fixed share of requests repeats one of the hot keys (dataset, impl,
    hot seed); every other request gets a seed not used before.
    """
    import numpy as np

    from repro.serve import ColoringRequest
    from repro.serve.loadgen import LoadSpec

    spec = LoadSpec()
    rng = np.random.default_rng([seed, 0x5E12E])
    at = np.sort(rng.uniform(0.0, window_s, n))
    zipf = np.arange(1, len(spec.datasets) + 1, dtype=np.float64) ** -spec.zipf_s
    mix = [(d, i) for d in range(len(spec.datasets)) for i in range(len(spec.impls))]
    weights = [zipf[d] for d, _i in mix]
    n_hot = round(SERVE_REPEAT_SHARE * n)
    hot_mix = [(d, i, k) for k in range(SERVE_HOT_SEEDS) for d, i in mix]
    hot_keys = [
        key
        for key, count in zip(hot_mix, _quotas(n_hot, weights * SERVE_HOT_SEEDS))
        for _ in range(count)
    ]
    fresh_keys = [
        key for key, count in zip(mix, _quotas(n - n_hot, weights)) for _ in range(count)
    ]
    hot_keys = [hot_keys[j] for j in rng.permutation(len(hot_keys))]
    fresh_keys = [fresh_keys[j] for j in rng.permutation(len(fresh_keys))]
    hot = np.zeros(n, dtype=bool)
    hot[rng.permutation(n)[:n_hot]] = True
    schedule, fresh = [], SERVE_HOT_SEEDS
    for i in range(n):
        if hot[i]:
            d, impl, k = hot_keys.pop()
        else:
            (d, impl), k = fresh_keys.pop(), fresh
            fresh += 1
        request = ColoringRequest(
            impl=spec.impls[impl],
            dataset=spec.datasets[d],
            seed=seed + SEED_STRIDE * k,
            scale_div=spec.scale_div,
            request_id=f"r{i:05d}",
        )
        schedule.append((float(at[i]), request, bool(hot[i])))
    return schedule


def run_serve(args, out: dict, tracer) -> None:
    from repro.serve import ServeClient, ServeConfig

    seconds = max(args.seconds, SERVE_WARMUP_S + SERVE_MIN_REQUESTS / SERVE_RATE)
    n = round(SERVE_RATE * seconds)
    schedule = serve_schedule(args.seed, n, n / SERVE_RATE)
    client = ServeClient(ServeConfig()).start()
    out["setup_end"] = time.monotonic()
    if args.mode == "setup":
        client.stop()
        return
    if tracer is not None:
        layers.install(tracer, ["reference"])
    sent = [0] * n
    done = [0] * n
    futures = [None] * n
    origin = time.perf_counter_ns() + 20_000_000

    def finished(i):
        def record(_future):
            done[i] = time.perf_counter_ns()

        return record

    def generate() -> None:
        for i, (at_s, request, _hot) in enumerate(schedule):
            delay = (origin + at_s * 1e9 - time.perf_counter_ns()) / 1e9
            if delay > 0:
                time.sleep(delay)
            sent[i] = time.perf_counter_ns()
            future = client.submit_async(request)
            futures[i] = future
            future.add_done_callback(finished(i))

    generator = threading.Thread(target=generate, name="perfbench-generator")
    generator.start()
    generator.join()
    concurrent.futures.wait(futures, timeout=SERVE_DRAIN_S)
    last = time.perf_counter_ns()
    client.stop()
    if tracer is not None:
        tracer.uninstall()

    responses = [f.result() if f.done() and f.exception() is None else None for f in futures]
    latencies, errors = [], []
    for i, response in enumerate(responses):
        answered = response is not None and response.status in ("ok", "degraded")
        if not (answered and done[i]):
            latencies.append(math.inf)
        elif schedule[i][0] >= SERVE_WARMUP_S:
            latencies.append((done[i] - (origin + schedule[i][0] * 1e9)) / 1e6)
    errors += _check_serve(schedule, responses)
    ok = [r for r in responses if r is not None and r.status in ("ok", "degraded")]
    end = max([d for d in done if d] or [last])
    p95 = _percentile(latencies, 95)
    beyond = sum(1 for x in latencies if x > p95)
    if beyond < 10:
        errors.append(f"serve-zipf: only {beyond} samples beyond p95")
    out["attempted"] = n
    out["failed"] = n - len(ok)
    out["errors"] = errors
    out["metrics"] = {
        "throughput_ops_s": len(ok) / ((end - origin) / 1e9),
        "latency_p50_ms": _percentile(latencies, 50),
        "latency_p95_ms": p95,
    }
    out["failures"] = sorted(
        f"{r.status}: {r.reason}" if r is not None else "unanswered"
        for r in responses
        if r is None or r.status not in ("ok", "degraded")
    )
    late = [(sent[i] - (origin + schedule[i][0] * 1e9)) / 1e6 for i in range(n)]
    hits = sum(1 for r in ok if r.source == "cache")
    out["serve"] = {
        "cache_hit_ratio": hits / len(ok) if ok else 0.0,
        "attempts": sum(r.attempts for r in responses if r is not None),
        "retries": sum(max(r.attempts - 1, 0) for r in responses if r is not None),
        "degraded": sum(1 for r in ok if r.status == "degraded"),
        "shed": sum(1 for r in responses if r is not None and r.status == "rejected"),
        "failed": out["failed"],
        "generator_late.ms": sum(late) / n,
    }
    if tracer is not None:
        first = layers.op_starts(tracer.spans)
        waits = [
            (first[s[1].request_id] - sent[i]) / 1e6
            for i, s in enumerate(schedule)
            if s[1].request_id in first
        ]
        out["serve"]["queue_wait.ms"] = sum(waits)
        out["layers"] = _layer_metrics(tracer, 1, out)


def _check_serve(schedule, responses) -> list:
    """Every coloring valid on its graph, every cache hit equal to the
    computation of its key, no request unanswered."""
    from repro.core.validate import is_valid_coloring
    from repro.harness import datasets as ds

    errors = []
    computed = {}
    for (_at, request, _hot), r in zip(schedule, responses):
        if r is not None and r.status == "ok" and r.source == "computed":
            computed[(request.dataset, request.impl, request.seed)] = r.coloring_sha256
    for (_at, request, _hot), r in zip(schedule, responses):
        if r is None:
            errors.append(f"serve-zipf: {request.request_id} unanswered")
            continue
        if r.colors is None:
            continue
        if hashlib.sha256(r.colors.tobytes()).hexdigest() != r.coloring_sha256:
            errors.append(f"serve-zipf: {request.request_id} sha does not match its colors")
        graph = ds.load(request.dataset, scale_div=request.scale_div, seed=request.seed)
        if not is_valid_coloring(graph, r.colors):
            errors.append(f"serve-zipf: {request.request_id} coloring is invalid")
        if r.source == "cache":
            key = (request.dataset, request.impl, request.seed)
            if computed.get(key) != r.coloring_sha256:
                errors.append(
                    f"serve-zipf: cache hit {request.request_id} differs from "
                    f"the computed result of {key}"
                )
    return errors


# -- per-layer metrics ----------------------------------------------------------


def _layer_metrics(tracer, passes: int, out: dict) -> dict:
    """Per-layer metrics of the traced run, per pass (closed loop) or
    per run (serve), plus the span-tiling self-test."""
    selfs = layers.self_times(tracer.spans)
    tiling = layers.tiling_errors(tracer.spans, selfs)
    out.setdefault("errors", []).extend(tiling[:5])
    totals = layers.layer_totals(tracer.spans, selfs)
    metrics = {k: v / passes for k, v in totals.items()}
    metrics.update(out.get("exact", {}))
    for key, value in out.get("serve", {}).items():
        metrics["serve." + key] = value
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("fig1-grid", "serve-zipf", "scale-rgg"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("setup", "run"), default="run")
    parser.add_argument("--max-passes", type=int, default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans", default="")
    args = parser.parse_args(argv)

    # One CPU for the whole process: every workload has one client and
    # is GIL-bound, and on a small VM cross-CPU thread wake-ups
    # otherwise dominate the spread of serve latencies.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    tracer = layers.Tracer() if args.trace else None
    out: dict = {"errors": []}
    if args.workload == "serve-zipf":
        run_serve(args, out, tracer)
    else:
        run_closed(args, out, tracer)
    out["peak_rss_mb"] = _peak_rss_mb()
    if tracer is not None and args.spans:
        tracer.dump(args.spans)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
