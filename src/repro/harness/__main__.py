"""Command-line entry point: regenerate the paper's tables and figures.

Examples::

    python -m repro.harness table1
    python -m repro.harness table2 --scale-div 16
    python -m repro.harness fig1 --csv out.csv
    python -m repro.harness fig1 --jobs 8 --timeout 120   # fault-tolerant
    python -m repro.harness fig1 --jobs 8 --resume        # after a SIGINT
    python -m repro.harness fig1 --trace                  # per-phase columns
    python -m repro.harness trace G3_circuit gunrock.hash --out t.json
    python -m repro.harness bench --compare benchmarks/baseline.json
    python -m repro.harness all

``python -m repro.harness lint`` runs the repro-lint static checks
(:mod:`repro.analysis`) over the installed package — the same gate CI
applies — without touching any experiment machinery.

``python -m repro.harness trace <dataset> <impl>`` runs one traced
repetition and prints the per-kernel and per-phase breakdowns recorded
by :mod:`repro.trace`; ``--out`` additionally writes the Chrome
``trace_event`` JSON that chrome://tracing and https://ui.perfetto.dev
load directly (see docs/observability.md).

``python -m repro.harness bench`` runs the pinned benchmark suite and
writes ``BENCH_<git-sha>.json`` (``--out DIR``, default
``benchmarks/out``); ``--compare BASELINE`` diffs the fresh run against
a committed baseline and exits 5 on regression (see
docs/observability.md for the workflow and ``--write-baseline``).

``python -m repro.harness scale`` runs the multi-device strong/weak
scaling study over the distributed implementations (``--devices
1,2,4,8,16``, ``--quick`` for CI-sized graphs, ``--json`` for the
artifact); the 1-device cells are cross-checked bit-identical against
the single-device implementations and a mismatch exits 3 (see
docs/distributed.md).

``python -m repro.harness serve REQUESTS.jsonl`` runs a batch of
requests (one JSON object per line: ``{"impl": ..., "dataset": ...,
"seed": ..., "deadline_s": ...}``) through an in-process
:mod:`repro.serve` service and writes one terminal response per line
(``--out``); ``python -m repro.harness loadgen`` synthesizes bursty
Zipf-over-datasets traffic instead and writes a latency/outcome
snapshot — the chaos-CI entry point (see docs/serving.md).  Both exit
3 when any request failed or went unanswered; shed/timed-out requests
are legitimate terminal outcomes and reported in the summary.

Any experiment accepts ``--metrics-out PATH`` (dump the session's
metrics registry as Prometheus text or JSON, by extension) and
``--log PATH`` (append the structured JSONL run-log there) — the CLI
faces of :mod:`repro.metrics` and :mod:`repro.log`.

Exit status: 0 when every cell of every requested experiment
completed with a valid coloring; 2 on usage errors (argparse's
convention); 3 when the run finished but one or more cells failed or
produced an invalid coloring (the partial tables are still printed —
scripts and CI use the exit code to detect degraded runs), or when
``profile``/``trace`` targets an implementation that records no
counters/trace; 4 when ``lint`` found violations; 5 when ``bench
--compare`` detected a regression against the baseline.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import ExitStack
from typing import List, Optional

from .. import metrics
from .. import log as runlog
from .._rng import DEFAULT_SEED
from ..graph.generators.suitesparse import DEFAULT_SCALE_DIV
from .figures import fig1_series, fig2_series, fig3_series
from .report import failure_summary, format_table, to_csv
from .runner import DEFAULT_RETRIES, _fork_context
from .tables import table1_rows, table2_rows

EXPERIMENTS = ("table1", "table2", "fig1", "fig2", "fig3")
PROFILE_USAGE = "profile:DATASET:ALGO[,ALGO2]"

#: Exit code for usage errors (argparse's convention; also used for
#: 'bench --compare' across mismatched backends).
EXIT_USAGE = 2

#: Exit code for a run that completed with failed/invalid cells.
EXIT_PARTIAL = 3

#: Exit code for ``lint`` when repro-lint violations were found.
EXIT_LINT = 4

#: Exit code for ``bench --compare`` when the run regressed.
EXIT_REGRESSION = 5

#: Default output directory for ``bench`` documents (gitignored; the
#: committed baseline lives at benchmarks/baseline.json).
BENCH_OUT_DIR = "benchmarks/out"


def _emit(rows, title: str, csv_path: Optional[str], json_path: Optional[str] = None, *, seed: int = 0, scale_div: Optional[int] = None) -> None:
    print(format_table(rows, title=title))
    print()
    if csv_path:
        with open(csv_path, "a") as fh:
            fh.write(f"# {title}\n")
            fh.write(to_csv(rows))
    if json_path:
        from .report import save_snapshot, snapshot

        save_snapshot(
            snapshot(rows, experiment=title, seed=seed, scale_div=scale_div),
            json_path,
        )


def _emit_phase_breakdown(cells, title: str, csv_path: Optional[str]) -> None:
    """The per-phase ``Sim ms [...]`` columns for a traced grid run."""
    from .runner import grid_to_rows

    rows = grid_to_rows(cells)
    if not rows:
        return
    keep = ["Dataset", "Algorithm"] + [
        k for k in rows[0] if k.startswith("Sim ms")
    ]
    _emit([{k: r[k] for k in keep} for r in rows], title, csv_path)


def _speedup_table(doc) -> str:
    """Render a bench document's kernel_speedups as a printable table."""
    backend = (doc.get("environment") or {}).get("backend", "?")
    rows = [
        {
            "Kernel": name,
            "reference ms": round(entry["reference_ms"], 4),
            f"{backend} ms": round(entry["backend_ms"], 4),
            "Speedup": f"{entry['speedup']:.1f}x",
        }
        for name, entry in doc["kernel_speedups"].items()
    ]
    return format_table(
        rows, title=f"Hot-kernel wall clock: {backend} vs reference"
    )


def _write_metrics(reg, path: str) -> None:
    """Dump a registry to ``path`` — Prometheus text for ``.prom`` /
    ``.txt``, JSON otherwise."""
    if path.endswith((".prom", ".txt")):
        reg.to_prometheus(path)
    else:
        reg.to_json(path)
    print(f"wrote metrics to {path}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness",
        description="Regenerate the tables and figures of "
        "'Graph Coloring on the GPU' (Osama et al., 2019).",
    )
    parser.add_argument(
        "experiment",
        help="one of %s, 'all', 'profile', 'trace', 'bench', 'scale', "
        "'serve', 'loadgen', or 'lint'" % ", ".join(EXPERIMENTS),
    )
    parser.add_argument(
        "targets",
        nargs="*",
        help="for 'trace': the <dataset> <implementation> pair to record; "
        "for 'serve': the JSONL request file to run through the service",
    )
    parser.add_argument(
        "--dataset", default="G3_circuit", help="dataset for 'profile'"
    )
    parser.add_argument(
        "--algorithms",
        default="graphblas.mis",
        help="comma-separated (1-2) implementation ids for 'profile'",
    )
    parser.add_argument(
        "--scale-div",
        type=int,
        default=DEFAULT_SCALE_DIV,
        help="dataset down-scaling divisor (1 = paper-scale vertices)",
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--repetitions",
        type=int,
        default=None,
        help="repetitions per grid cell (default: 3 for experiments, "
        "1 for 'bench' — its quantities are deterministic given the seed)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for grid experiments (1 = sequential; "
        "results are bit-identical at any worker count)",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget per repetition (default: unbounded); "
        "a timed-out repetition is retried, then marked failed",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=DEFAULT_RETRIES,
        help="retry budget per repetition for transient failures — "
        "worker crashes and timeouts (default: %(default)s)",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="resume an interrupted run from its checkpoint journal: "
        "only repetitions missing from the journal execute, and the "
        "merged results are bit-identical to an uninterrupted run",
    )
    parser.add_argument(
        "--no-journal",
        action="store_true",
        help="skip writing the checkpoint journal (journaling is "
        "default-on; see docs/robustness.md)",
    )
    parser.add_argument(
        "--csv", default=None, help="also append series to this CSV file"
    )
    parser.add_argument(
        "--json",
        default=None,
        help="write the last emitted series as a JSON snapshot "
        "(includes seed, scaling, and all cost-model constants)",
    )
    parser.add_argument(
        "--chart",
        action="store_true",
        help="render ASCII charts of the figure series",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="record structured traces during grid experiments and add "
        "per-phase 'Sim ms [...]' columns (see docs/observability.md)",
    )
    parser.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="for 'trace': write the Chrome trace_event JSON here; for "
        "'bench': the output directory for BENCH_<sha>.json (default "
        f"{BENCH_OUT_DIR})",
    )
    parser.add_argument(
        "--backend",
        default=None,
        metavar="NAME",
        help="kernel-execution backend (reference, numba, cnative; "
        "default: $REPRO_BACKEND or reference).  All simulated "
        "quantities are bit-identical across backends; only wall "
        "clock changes (see docs/backends.md)",
    )
    parser.add_argument(
        "--compare",
        default=None,
        metavar="BASELINE",
        help="for 'bench': diff the fresh run against this baseline "
        "bench JSON and exit 5 on regression",
    )
    parser.add_argument(
        "--ignore-backend",
        action="store_true",
        help="for 'bench --compare': allow diffing documents produced "
        "on different backends (sim quantities stay bit-exact; wall "
        "clock keeps its usual slack band)",
    )
    parser.add_argument(
        "--wall-tol",
        type=float,
        default=None,
        metavar="FACTOR",
        help="for 'bench --compare': multiplicative wall_s tolerance "
        "(default 10; sim_ms/colors are always bit-exact)",
    )
    parser.add_argument(
        "--devices",
        default=None,
        metavar="COUNTS",
        help="for 'scale': comma-separated device counts to sweep "
        "(default: 1,2,4,8,16)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="for 'scale': CI-sized graphs (the scale-smoke lane)",
    )
    parser.add_argument(
        "--write-baseline",
        default=None,
        metavar="PATH",
        help="for 'bench': also write the fresh run to PATH (how "
        "benchmarks/baseline.json is (re)generated)",
    )
    parser.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="collect session metrics and write them to PATH on exit "
        "(.prom/.txt = Prometheus text exposition, otherwise JSON)",
    )
    parser.add_argument(
        "--log",
        default=None,
        metavar="PATH",
        help="append the structured JSONL run-log to PATH "
        "(equivalent to REPRO_LOG=PATH; see docs/observability.md)",
    )
    serve_group = parser.add_argument_group(
        "serve/loadgen", "coloring-service options (docs/serving.md)"
    )
    serve_group.add_argument(
        "--serve-workers",
        type=int,
        default=2,
        metavar="N",
        help="service worker tasks / compute threads (default: %(default)s)",
    )
    serve_group.add_argument(
        "--queue-limit",
        type=int,
        default=16,
        metavar="N",
        help="bounded admission-queue depth; excess load is shed with "
        "reason 'queue_full' (default: %(default)s)",
    )
    serve_group.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-request deadline (default: unbounded); an expired "
        "request is answered 'timeout', never dropped",
    )
    serve_group.add_argument(
        "--requests",
        type=int,
        default=60,
        metavar="N",
        help="for 'loadgen': number of requests to synthesize "
        "(default: %(default)s)",
    )
    serve_group.add_argument(
        "--datasets",
        default="ecology2,offshore,G3_circuit",
        metavar="NAMES",
        help="for 'loadgen': comma-separated dataset popularity ranking "
        "(Zipf over this order; default: %(default)s)",
    )
    serve_group.add_argument(
        "--impls",
        default="gunrock.hash,graphblas.mis,cpu.greedy",
        metavar="IDS",
        help="for 'loadgen': comma-separated implementation ids drawn "
        "uniformly (default: %(default)s)",
    )
    serve_group.add_argument(
        "--zipf-s",
        type=float,
        default=1.2,
        metavar="S",
        help="for 'loadgen': Zipf exponent over --datasets "
        "(default: %(default)s)",
    )
    args = parser.parse_args(argv)

    if args.experiment not in ("trace", "serve") and args.targets:
        parser.error(
            f"unexpected positional arguments {args.targets!r}; only "
            "'trace' (<dataset> <implementation>) and 'serve' "
            "(<requests.jsonl>) take targets"
        )
    if args.experiment != "bench" and (
        args.compare
        or args.wall_tol is not None
        or args.write_baseline
        or args.ignore_backend
    ):
        parser.error(
            "--compare/--wall-tol/--write-baseline/--ignore-backend "
            "apply only to 'bench'"
        )
    if args.experiment != "scale" and (args.devices or args.quick):
        parser.error("--devices/--quick apply only to 'scale'")
    if args.backend is not None:
        from ..backend import BackendError, resolve

        try:
            resolve(args.backend)  # fail fast on unknown names (exit 2)
        except BackendError as exc:
            parser.error(str(exc))

    with ExitStack() as stack:
        if args.log:
            stack.enter_context(runlog.activate(args.log))
        if args.metrics_out:
            reg = stack.enter_context(metrics.activate())
            # Registered as a callback, not appended after _dispatch:
            # ExitStack unwinds LIFO, so when _dispatch raises, the
            # registry is still written *and then* deactivated — a
            # failed command must not leak an active registry into
            # subsequent in-process calls, nor swallow its metrics.
            stack.callback(_write_metrics, reg, args.metrics_out)
        rc = _dispatch(args, parser)
    return rc


def _serve_config(args):
    """Build a :class:`repro.serve.ServeConfig` from parsed CLI args."""
    from ..serve import ServeConfig

    return ServeConfig(
        workers=args.serve_workers,
        queue_limit=args.queue_limit,
        retries=args.retries,
        default_deadline_s=args.deadline,
        scale_div=args.scale_div,
    )


def _parse_request_line(obj: dict):
    """One JSONL object → a ColoringRequest.  Inline CSR graphs are
    given as ``{"graph": {"offsets": [...], "indices": [...]}}``; one
    that is not a valid undirected CSR makes the line a ``rejected``
    ColoringResponse with reason ``invalid_graph: …`` instead."""
    from ..errors import GraphError
    from ..graph.csr import CSRGraph
    from ..serve import ColoringRequest, ColoringResponse

    graph_doc = obj.pop("graph", None)
    if graph_doc is not None:
        name = graph_doc.get("name", "inline")
        try:
            obj["graph"] = CSRGraph(
                graph_doc["offsets"], graph_doc["indices"], name=name
            )
        except GraphError as exc:
            return ColoringResponse(
                request_id=str(obj.get("request_id", "")),
                status="rejected",
                impl=str(obj.get("impl", "")),
                dataset=name,
                reason=f"invalid_graph: {exc}",
            )
    return ColoringRequest(**obj)


def _cmd_serve(args, parser) -> int:
    """``serve``: run a JSONL request file through an in-process
    service and report every response (terminal, never dropped)."""
    import json

    from ..serve import ColoringResponse, ServeClient

    if len(args.targets) != 1:
        parser.error(
            "serve takes exactly one positional argument: a JSONL file "
            "with one request object per line (e.g. "
            '{"impl": "gunrock.hash", "dataset": "offshore"})'
        )
    path = args.targets[0]
    requests = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            requests.append(_parse_request_line(json.loads(line)))
        except (ValueError, TypeError, KeyError) as exc:
            print(
                f"error: {path}:{lineno}: bad request line: {exc}",
                file=sys.stderr,
            )
            return EXIT_USAGE
    if not requests:
        print(f"error: {path}: no requests", file=sys.stderr)
        return EXIT_USAGE

    responses = []
    with ServeClient(_serve_config(args)) as client:
        futures = [
            r if isinstance(r, ColoringResponse) else client.submit_async(r)
            for r in requests
        ]
        for future in futures:
            if isinstance(future, ColoringResponse):  # rejected when parsed
                responses.append(future)
                continue
            try:
                responses.append(future.result(timeout=300.0))
            except Exception:  # unanswered: the contract violation
                responses.append(None)

    outcomes: dict = {}
    unanswered = 0
    for response in responses:
        if response is None:
            unanswered += 1
            continue
        outcomes[response.status] = outcomes.get(response.status, 0) + 1
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            for response in responses:
                doc = (
                    response.to_json_dict()
                    if response is not None
                    else {"status": "unanswered"}
                )
                fh.write(json.dumps(doc, sort_keys=True) + "\n")
        print(f"wrote responses to {args.out}")
    summary = ", ".join(f"{k}={v}" for k, v in sorted(outcomes.items()))
    print(
        f"serve: {len(requests)} request(s): {summary or 'none'}"
        + (f", unanswered={unanswered}" if unanswered else "")
    )
    if unanswered or outcomes.get("failed", 0):
        return EXIT_PARTIAL
    return 0


def _cmd_loadgen(args, parser) -> int:
    """``loadgen``: synthetic bursty Zipf traffic against a fresh
    in-process service; writes the latency/outcome snapshot."""
    from ..serve import LoadSpec, run_load, write_snapshot

    datasets = tuple(d for d in args.datasets.split(",") if d)
    impls = tuple(i for i in args.impls.split(",") if i)
    if not datasets or not impls:
        parser.error("loadgen needs --datasets and --impls (comma-separated)")
    spec = LoadSpec(
        requests=args.requests,
        datasets=datasets,
        impls=impls,
        zipf_s=args.zipf_s,
        seed=args.seed,
        scale_div=args.scale_div,
        deadline_s=args.deadline,
    )
    snapshot = run_load(spec, _serve_config(args))
    outcomes = snapshot["outcomes"]
    summary = ", ".join(f"{k}={v}" for k, v in sorted(outcomes.items()))
    quantiles = snapshot["latency_ms"]
    print(
        f"loadgen: {snapshot['answered']}/{spec.requests} answered in "
        f"{snapshot['wall_s']:.2f}s: {summary or 'none'}"
        + (
            f"; p50={quantiles['p50']:.1f}ms p95={quantiles['p95']:.1f}ms "
            f"p99={quantiles['p99']:.1f}ms"
            if quantiles
            else ""
        )
    )
    if args.out:
        write_snapshot(snapshot, args.out)
        print(f"wrote load snapshot to {args.out}")
    if snapshot["unanswered"] or outcomes.get("failed", 0):
        print(
            f"error: {snapshot['unanswered']} unanswered, "
            f"{outcomes.get('failed', 0)} failed request(s)",
            file=sys.stderr,
        )
        return EXIT_PARTIAL
    return 0


def _cmd_scale(args, parser, grid_kwargs) -> int:
    """``scale``: the multi-device strong/weak scaling study
    (docs/distributed.md).  Exit 3 on failed cells or when a 1-device
    cell is not bit-identical to its single-device baseline."""
    from ..errors import HarnessError
    from .scale import DEFAULT_DEVICES, scale_rows, scale_series, write_scale

    if args.devices:
        try:
            devices = tuple(int(d) for d in args.devices.split(",") if d)
        except ValueError:
            parser.error(
                f"--devices must be comma-separated integers, got "
                f"{args.devices!r}"
            )
        if not devices or min(devices) < 1:
            parser.error("--devices counts must be >= 1")
    else:
        devices = DEFAULT_DEVICES
    cells = []
    try:
        doc = scale_series(
            devices=devices,
            seed=args.seed,
            repetitions=(
                args.repetitions if args.repetitions is not None else 1
            ),
            quick=args.quick,
            jobs=args.jobs,
            cells_out=cells,
            **grid_kwargs,
        )
    except HarnessError as exc:
        print(f"error: scale study failed: {exc}", file=sys.stderr)
        return EXIT_PARTIAL
    _emit(
        scale_rows(doc, "strong"),
        "Scaling (strong): fixed graph, 1..N simulated devices",
        args.csv,
    )
    _emit(
        scale_rows(doc, "weak"),
        "Scaling (weak): graph grows with device count",
        args.csv,
    )
    if args.trace:
        _emit_phase_breakdown(
            cells, "Scaling: per-phase sim_ms (traced)", args.csv
        )
    if args.json:
        path = write_scale(doc, args.json)
        print(f"wrote scale study to {path}")
    singledev = doc["singledev"]
    bad_cells = [c for c in cells if not c.ok or not c.valid]
    if bad_cells:
        print(failure_summary(bad_cells), file=sys.stderr)
        print(
            f"error: {len(bad_cells)} scale cell(s) failed or produced "
            "invalid colorings",
            file=sys.stderr,
        )
        return EXIT_PARTIAL
    if singledev["checked"]:
        mismatched = sorted(
            label for label, ok in singledev["matches"].items() if not ok
        )
        if mismatched:
            for label in mismatched:
                print(
                    f"error: 1-device cell {label} is not bit-identical "
                    "to its single-device baseline",
                    file=sys.stderr,
                )
            return EXIT_PARTIAL
        print(
            f"singledev anchor: {len(singledev['matches'])} 1-device "
            "cell(s) bit-identical to their single-device baselines"
        )
    return 0


def _dispatch(args, parser) -> int:
    """Execute the parsed command; returns the process exit code."""
    if args.jobs > 1 and _fork_context() is None:
        print(
            f"notice: --jobs {args.jobs} requested but the 'fork' start "
            "method is unavailable on this platform; running sequentially",
            file=sys.stderr,
        )

    repetitions = args.repetitions if args.repetitions is not None else 3
    grid_kwargs = dict(
        timeout=args.timeout,
        retries=args.retries,
        resume=args.resume,
        journal=False if args.no_journal else None,
        trace=args.trace,
        backend=args.backend,
    )

    if args.experiment == "lint":
        from pathlib import Path

        from ..analysis.engine import analyze_paths

        package_root = Path(__file__).resolve().parents[1]
        violations = analyze_paths([package_root]).violations
        for v in violations:
            print(v.render())
        if violations:
            print(
                f"error: {len(violations)} repro-lint violation(s); see "
                "docs/static-analysis.md",
                file=sys.stderr,
            )
            return EXIT_LINT
        print("repro-lint: clean")
        return 0
    if args.experiment == "bench":
        from .bench import (
            DEFAULT_WALL_TOL,
            BenchBackendMismatch,
            compare_bench,
            load_bench,
            run_bench,
            validate_bench,
            write_bench,
        )

        doc = run_bench(
            scale_div=args.scale_div,
            seed=args.seed,
            repetitions=(
                args.repetitions if args.repetitions is not None else 1
            ),
            backend=args.backend,
        )
        if doc.get("kernel_speedups"):
            print(_speedup_table(doc))
        problems = validate_bench(doc)
        if problems:  # pragma: no cover — would be a bench.py bug
            for p in problems:
                print(f"error: invalid bench document: {p}", file=sys.stderr)
            return EXIT_PARTIAL
        path = write_bench(doc, args.out or BENCH_OUT_DIR)
        print(f"wrote {path}")
        if args.write_baseline:
            import shutil

            shutil.copyfile(path, args.write_baseline)
            print(f"wrote baseline {args.write_baseline}")
        if args.compare:
            try:
                baseline = load_bench(args.compare)
            except (OSError, ValueError) as exc:
                print(
                    f"error: cannot load baseline {args.compare}: {exc}",
                    file=sys.stderr,
                )
                return EXIT_PARTIAL
            try:
                regressions = compare_bench(
                    doc,
                    baseline,
                    wall_tol=(
                        args.wall_tol
                        if args.wall_tol is not None
                        else DEFAULT_WALL_TOL
                    ),
                    ignore_backend=args.ignore_backend,
                )
            except BenchBackendMismatch as exc:
                print(f"error: {exc}", file=sys.stderr)
                return EXIT_USAGE
            if regressions:
                for r in regressions:
                    print(f"regression: {r}", file=sys.stderr)
                print(
                    f"error: {len(regressions)} benchmark regression(s) vs "
                    f"{args.compare}",
                    file=sys.stderr,
                )
                return EXIT_REGRESSION
            print(f"bench: no regressions vs {args.compare}")
        failed = [c for c in doc["cells"] if c["status"] != "ok"]
        if failed:
            for c in failed:
                print(
                    f"error: bench cell {c['dataset']}:{c['algorithm']} "
                    f"failed: {c.get('error')}",
                    file=sys.stderr,
                )
            return EXIT_PARTIAL
        return 0
    if args.experiment == "scale":
        return _cmd_scale(args, parser, grid_kwargs)
    if args.experiment == "trace":
        from ..errors import ReproError
        from .profile import run_trace, trace_phase_rows, trace_rows

        if len(args.targets) != 2:
            parser.error(
                "trace takes exactly two positional arguments: "
                "<dataset> <implementation> (e.g. 'trace offshore "
                "graphblas.mis')"
            )
        dataset, algorithm = args.targets
        try:
            result = run_trace(
                dataset,
                algorithm,
                scale_div=args.scale_div,
                seed=args.seed,
                backend=args.backend,
            )
        except ReproError as exc:
            print(f"error: trace run failed: {exc}", file=sys.stderr)
            return EXIT_PARTIAL
        trace = result.trace
        _emit(
            trace_rows(trace),
            f"Trace: {trace.algorithm} on {trace.dataset} "
            f"(total {trace.total_ms:.4f} ms, {len(trace)} spans)",
            args.csv,
        )
        _emit(
            trace_phase_rows(trace),
            f"Phases: {trace.algorithm} on {trace.dataset}",
            args.csv,
        )
        if args.out:
            trace.to_chrome_json(args.out)
            print(f"wrote Chrome trace_event JSON to {args.out}")
        return 0
    if args.experiment == "profile":
        from ..errors import ReproError
        from .profile import run_profile

        try:
            rows = run_profile(
                args.dataset,
                [a for a in args.algorithms.split(",") if a],
                scale_div=args.scale_div,
                seed=args.seed,
                backend=args.backend,
            )
        except ReproError as exc:
            print(f"error: profile failed: {exc}", file=sys.stderr)
            return EXIT_PARTIAL
        _emit(
            rows,
            f"Kernel profile: {args.algorithms} on {args.dataset}",
            args.csv,
        )
        return 0
    if args.experiment == "serve":
        return _cmd_serve(args, parser)
    if args.experiment == "loadgen":
        return _cmd_loadgen(args, parser)
    if args.experiment not in EXPERIMENTS + ("all",):
        parser.error(
            f"unknown experiment {args.experiment!r}; choose from "
            f"{', '.join(EXPERIMENTS + ('all', 'profile', 'trace', 'bench', 'scale', 'serve', 'loadgen', 'lint'))}"
        )
    todo = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    bad_cells = []  # every failed/invalid cell across all experiments
    for exp in todo:
        if exp == "table1":
            rows = table1_rows(scale_div=args.scale_div, seed=args.seed)
            _emit(rows, "Table I: Dataset Description (paper vs regenerated)", args.csv, args.json, seed=args.seed, scale_div=args.scale_div)
        elif exp == "table2":
            cells = []
            rows = table2_rows(
                scale_div=args.scale_div,
                seed=args.seed,
                repetitions=repetitions,
                jobs=args.jobs,
                cells_out=cells,
                **grid_kwargs,
            )
            bad_cells += [c for c in cells if not c.ok or not c.valid]
            _emit(rows, "Table II: Gunrock optimization impact (G3_circuit)", args.csv, args.json, seed=args.seed, scale_div=args.scale_div)
            if args.trace:
                _emit_phase_breakdown(
                    cells, "Table II: per-phase sim_ms (traced)", args.csv
                )
        elif exp == "fig1":
            series = fig1_series(
                scale_div=args.scale_div,
                seed=args.seed,
                repetitions=repetitions,
                jobs=args.jobs,
                **grid_kwargs,
            )
            bad_cells += [
                c for c in series["cells"] if not c.ok or not c.valid
            ]
            _emit(series["speedup_rows"], "Figure 1a: Speedup vs Naumov/JPL", args.csv, args.json, seed=args.seed, scale_div=args.scale_div)
            _emit(series["color_rows"], "Figure 1b: Number of Colors", args.csv, args.json, seed=args.seed, scale_div=args.scale_div)
            gm_rows = [
                {
                    "Implementation": a,
                    "Geomean speedup": round(v, 3) if v is not None else None,
                }
                for a, v in series["geomean"].items()
            ]
            _emit(gm_rows, "Figure 1a: geometric-mean speedups", args.csv, args.json, seed=args.seed, scale_div=args.scale_div)
            if args.trace:
                _emit_phase_breakdown(
                    series["cells"],
                    "Figure 1: per-phase sim_ms (traced)",
                    args.csv,
                )
            if args.chart:
                from .charts import bar_chart

                plottable = {
                    a: v for a, v in series["geomean"].items() if v is not None
                }
                print(
                    bar_chart(
                        sorted(plottable.items(), key=lambda kv: -kv[1]),
                        title="Figure 1a (geomean speedup vs naumov.jpl)",
                        reference=1.0,
                    )
                )
                print()
        elif exp == "fig2":
            series = fig2_series(
                scale_div=args.scale_div,
                seed=args.seed,
                repetitions=repetitions,
                jobs=args.jobs,
                **grid_kwargs,
            )
            bad_cells += [
                c for c in series["cells"] if not c.ok or not c.valid
            ]
            _emit(series["gunrock"], "Figure 2a: Gunrock time-quality", args.csv, args.json, seed=args.seed, scale_div=args.scale_div)
            _emit(series["graphblast"], "Figure 2b: GraphBLAST time-quality", args.csv, args.json, seed=args.seed, scale_div=args.scale_div)
            if args.trace:
                _emit_phase_breakdown(
                    series["cells"],
                    "Figure 2: per-phase sim_ms (traced)",
                    args.csv,
                )
        elif exp == "fig3":
            cells = []
            rows = fig3_series(
                seed=args.seed,
                repetitions=repetitions,
                jobs=args.jobs,
                cells_out=cells,
                **grid_kwargs,
            )
            bad_cells += [c for c in cells if not c.ok or not c.valid]
            _emit(rows, "Figure 3: RGG scaling (runtime & colors vs n, m)", args.csv, args.json, seed=args.seed, scale_div=args.scale_div)
            if args.trace:
                _emit_phase_breakdown(
                    cells, "Figure 3: per-phase sim_ms (traced)", args.csv
                )
            if args.chart:
                from .charts import scatter_plot

                series = {}
                for r in rows:
                    if r["Runtime (ms)"] == "failed":
                        continue
                    series.setdefault(r["Implementation"], []).append(
                        (r["Vertices"], r["Runtime (ms)"])
                    )
                print(
                    scatter_plot(
                        series,
                        title="Figure 3a (runtime vs vertices, log-log)",
                        logx=True,
                        logy=True,
                        xlabel="vertices",
                        ylabel="ms",
                    )
                )
                print()
    if bad_cells:
        print(failure_summary(bad_cells), file=sys.stderr)
        print(
            f"error: {len(bad_cells)} grid cell(s) failed or produced "
            "invalid colorings; results above are partial",
            file=sys.stderr,
        )
        return EXIT_PARTIAL
    return 0


if __name__ == "__main__":
    sys.exit(main())
