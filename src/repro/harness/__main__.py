"""Command-line entry point: regenerate the paper's tables and figures.

``python -m repro.harness --help`` lists the commands and
``python -m repro.harness COMMAND --help`` the flags that command takes.
Every command takes ``--metrics-out PATH`` and ``--log PATH``; any
other flag belongs only to the commands that read it.

Exit status: 0 when every cell of every requested experiment
completed with a valid coloring; 2 on usage errors (argparse's
convention: an unknown command, a flag the command does not take, or
an out-of-range value); 3 when the run finished but one or more cells
failed or produced an invalid coloring (the partial tables are still
printed — scripts and CI use the exit code to detect degraded runs),
when ``profile``/``trace`` targets an implementation that records no
counters/trace, or when ``serve``/``loadgen`` left a request failed or
unanswered; 4 when ``lint`` found violations; 5 when ``bench
--compare`` detected a regression against the baseline.
"""

from __future__ import annotations

import argparse
import functools
import sys
from contextlib import ExitStack
from typing import Callable, List, NamedTuple, Optional, Tuple

from .. import metrics
from .. import log as runlog
from .._rng import DEFAULT_SEED
from ..backend import KNOWN_BACKENDS
from ..graph.generators.suitesparse import DEFAULT_SCALE_DIV
from .bench import DEFAULT_WALL_TOL
from .figures import fig1_series, fig2_series, fig3_series
from .report import failure_summary, format_table, to_csv
from .runner import DEFAULT_RETRIES, _fork_context
from .scale import DEFAULT_DEVICES
from .tables import table1_rows, table2_rows

EXPERIMENTS = ("table1", "table2", "fig1", "fig2", "fig3")

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


def _emitter(args, scale_div: int) -> Callable:
    """:func:`_emit` bound to this run's ``--csv``/``--json`` paths and
    the seed and scale its snapshots record."""
    return functools.partial(
        _emit,
        csv_path=args.csv,
        json_path=args.json,
        seed=args.seed,
        scale_div=scale_div,
    )


def _grid_kwargs(args) -> dict:
    """The grid-runner keywords the grid flags set."""
    return dict(
        seed=args.seed,
        repetitions=args.repetitions,
        jobs=args.jobs,
        timeout=args.timeout,
        retries=args.retries,
        resume=args.resume,
        journal=False if args.no_journal else None,
        trace=args.trace,
        backend=args.backend,
    )


def _grid_outcome(args, cells, label: str) -> list:
    """Print a traced run's per-phase ``Sim ms [...]`` columns; return
    the failed or invalid cells."""
    from .runner import grid_to_rows

    rows = grid_to_rows(cells) if args.trace else []
    if rows:
        keep = ["Dataset", "Algorithm"] + [
            k for k in rows[0] if k.startswith("Sim ms")
        ]
        _emit(
            [{k: r[k] for k in keep} for r in rows],
            f"{label}: per-phase sim_ms (traced)",
            args.csv,
        )
    return [c for c in cells if not c.ok or not c.valid]


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


# -- experiments --------------------------------------------------------------
# One function per table/figure: print its series and return the
# failed/invalid grid cells.  ``all`` runs them in EXPERIMENTS order.


def _table1(args) -> list:
    rows = table1_rows(scale_div=args.scale_div, seed=args.seed)
    _emitter(args, args.scale_div)(
        rows, "Table I: Dataset Description (paper vs regenerated)"
    )
    return []


def _table2(args) -> list:
    cells: list = []
    rows = table2_rows(
        scale_div=args.scale_div, cells_out=cells, **_grid_kwargs(args)
    )
    _emitter(args, args.scale_div)(
        rows, "Table II: Gunrock optimization impact (G3_circuit)"
    )
    return _grid_outcome(args, cells, "Table II")


def _fig1(args) -> list:
    series = fig1_series(scale_div=args.scale_div, **_grid_kwargs(args))
    emit = _emitter(args, args.scale_div)
    emit(series["speedup_rows"], "Figure 1a: Speedup vs Naumov/JPL")
    emit(series["color_rows"], "Figure 1b: Number of Colors")
    gm_rows = [
        {
            "Implementation": a,
            "Geomean speedup": round(v, 3) if v is not None else None,
        }
        for a, v in series["geomean"].items()
    ]
    emit(gm_rows, "Figure 1a: geometric-mean speedups")
    bad_cells = _grid_outcome(args, series["cells"], "Figure 1")
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
    return bad_cells


def _fig2(args) -> list:
    series = fig2_series(scale_div=args.scale_div, **_grid_kwargs(args))
    emit = _emitter(args, args.scale_div)
    emit(series["gunrock"], "Figure 2a: Gunrock time-quality")
    emit(series["graphblast"], "Figure 2b: GraphBLAST time-quality")
    return _grid_outcome(args, series["cells"], "Figure 2")


def _fig3(args) -> list:
    cells: list = []
    rows = fig3_series(cells_out=cells, **_grid_kwargs(args))
    # The RGG sweep always runs its graphs at full scale.
    _emitter(args, 1)(rows, "Figure 3: RGG scaling (runtime & colors vs n, m)")
    bad_cells = _grid_outcome(args, cells, "Figure 3")
    if args.chart:
        from .charts import scatter_plot

        series: dict = {}
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
    return bad_cells


_EXPERIMENTS = dict(zip(EXPERIMENTS, (_table1, _table2, _fig1, _fig2, _fig3)))


# -- commands -----------------------------------------------------------------
# Each takes the parsed args and the parser; returns the exit code.


def _cmd_experiments(args, parser) -> int:
    """``table1`` … ``fig3`` and ``all``."""
    names = EXPERIMENTS if args.command == "all" else (args.command,)
    bad_cells = []  # every failed/invalid cell across all experiments
    for name in names:
        bad_cells += _EXPERIMENTS[name](args)
    if bad_cells:
        print(failure_summary(bad_cells), file=sys.stderr)
        print(
            f"error: {len(bad_cells)} grid cell(s) failed or produced "
            "invalid colorings; results above are partial",
            file=sys.stderr,
        )
        return EXIT_PARTIAL
    return 0


def _cmd_lint(args, parser) -> int:
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


def _cmd_bench(args, parser) -> int:
    from .bench import (
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
        repetitions=args.repetitions,
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
                wall_tol=args.wall_tol,
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


def _cmd_scale(args, parser) -> int:
    from ..errors import HarnessError
    from .scale import scale_rows, scale_series, write_scale

    cells: list = []
    try:
        doc = scale_series(
            devices=args.devices,
            quick=args.quick,
            cells_out=cells,
            **_grid_kwargs(args),
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
    bad_cells = _grid_outcome(args, cells, "Scaling")
    if args.json:
        path = write_scale(doc, args.json)
        print(f"wrote scale study to {path}")
    singledev = doc["singledev"]
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


def _cmd_trace(args, parser) -> int:
    from ..errors import ReproError
    from .profile import run_trace, trace_phase_rows, trace_rows

    try:
        result = run_trace(
            args.dataset,
            args.impl,
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


def _cmd_profile(args, parser) -> int:
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


#: JSONL request fields besides ``graph`` and the JSON types each takes
#: (``bool`` is excluded from the numbers, although Python counts it).
_REQUEST_FIELDS = {
    "impl": (str,),
    "dataset": (str, type(None)),
    "seed": (int,),
    "backend": (str, type(None)),
    "deadline_s": (int, float, type(None)),
    "scale_div": (int, type(None)),
    "request_id": (str,),
}


def _request_line_error(obj) -> Optional[str]:
    """Why a parsed JSONL value is not a well-formed request object
    (unknown key, missing ``impl``, wrong-typed field), or None."""
    if not isinstance(obj, dict):
        return f"expected a JSON object, got {type(obj).__name__}"
    for key, value in obj.items():
        if key == "graph":
            if not isinstance(value, dict):
                return f"field 'graph' must be an object, got {type(value).__name__}"
            continue
        types = _REQUEST_FIELDS.get(key)
        if types is None:
            return f"unknown field {key!r}"
        if isinstance(value, bool) or not isinstance(value, types):
            return f"field {key!r} has type {type(value).__name__}"
    if "impl" not in obj:
        return "missing field 'impl'"
    return None


def _parse_request_line(obj):
    """One parsed JSONL value → a ColoringRequest.  Inline CSR graphs
    are given as ``{"graph": {"offsets": [...], "indices": [...]}}``.
    A line that is not a well-formed request object becomes a
    ``rejected`` ColoringResponse with reason ``bad_request: …``, and
    one whose graph is not a valid undirected CSR one with reason
    ``invalid_graph: …``."""
    from ..errors import GraphError
    from ..graph.csr import CSRGraph
    from ..serve import ColoringRequest, ColoringResponse

    def rejected(reason: str, dataset: str = ""):
        fields = obj if isinstance(obj, dict) else {}
        return ColoringResponse(
            request_id=str(fields.get("request_id", "")),
            status="rejected",
            impl=str(fields.get("impl", "")),
            dataset=dataset or str(fields.get("dataset") or ""),
            reason=reason,
        )

    error = _request_line_error(obj)
    if error is not None:
        return rejected(f"bad_request: {error}")
    graph_doc = obj.pop("graph", None)
    if graph_doc is not None:
        name = str(graph_doc.get("name", "inline"))
        try:
            obj["graph"] = CSRGraph(
                graph_doc["offsets"], graph_doc["indices"], name=name
            )
        except KeyError as exc:
            return rejected(f"invalid_graph: missing {exc}", name)
        except (GraphError, ValueError, TypeError) as exc:
            return rejected(f"invalid_graph: {exc}", name)
    return ColoringRequest(**obj)


def _cmd_serve(args, parser) -> int:
    import json

    from ..serve import ColoringResponse, ServeClient

    path = args.requests_file
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
            obj = json.loads(line)
        except ValueError as exc:  # not JSON at all: the file is wrong
            print(
                f"error: {path}:{lineno}: bad request line: {exc}",
                file=sys.stderr,
            )
            return EXIT_USAGE
        requests.append(_parse_request_line(obj))
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
    from ..serve import LoadSpec, run_load, write_snapshot

    spec = LoadSpec(
        requests=args.requests,
        datasets=args.datasets,
        impls=args.impls,
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


# -- the declared command line ------------------------------------------------


def _int_at_least(minimum: int) -> Callable[[str], int]:
    """An argparse ``type``: an integer ``>= minimum``, else exit 2."""

    def parse(text: str) -> int:
        try:
            if int(text) >= minimum:
                return int(text)
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(
            f"expected an integer >= {minimum}, got {text!r}"
        )

    return parse


def _names(text: str) -> Tuple[str, ...]:
    """An argparse ``type``: a non-empty comma-separated list."""
    names = tuple(n for n in text.split(",") if n)
    if not names:
        raise argparse.ArgumentTypeError("expected comma-separated names")
    return names


_POSITIVE = _int_at_least(1)


def _device_counts(text: str) -> Tuple[int, ...]:
    """An argparse ``type``: comma-separated device counts >= 1."""
    return tuple(_POSITIVE(d) for d in _names(text))


_DEFAULT = " (default: %(default)s)"

#: Every flag (and positional) a command can declare, by name: the
#: keyword arguments of its ``add_argument`` call.
_FLAGS = {
    "--metrics-out": dict(
        metavar="PATH",
        help="write the session's metrics to PATH on exit "
        "(.prom/.txt = Prometheus text, otherwise JSON)",
    ),
    "--log": dict(
        metavar="PATH", help="append the structured JSONL run-log to PATH"
    ),
    "--scale-div": dict(
        type=int, default=DEFAULT_SCALE_DIV,
        help="dataset down-scaling divisor (1 = paper scale)" + _DEFAULT,
    ),
    "--seed": dict(
        type=int, default=DEFAULT_SEED, help="master seed" + _DEFAULT
    ),
    "--repetitions": dict(
        type=_POSITIVE, default=3, help="repetitions per cell" + _DEFAULT
    ),
    "--jobs": dict(
        type=_POSITIVE, default=1,
        help="worker processes; results are bit-identical at any count",
    ),
    "--timeout": dict(
        type=float, metavar="SECONDS",
        help="wall-clock budget per repetition; a timed-out repetition "
        "is retried, then marked failed (default: unbounded)",
    ),
    "--retries": dict(
        type=_int_at_least(0), default=DEFAULT_RETRIES,
        help="retry budget for transient failures" + _DEFAULT,
    ),
    "--resume": dict(
        action="store_true",
        help="run only the repetitions missing from the checkpoint "
        "journal; results are bit-identical to an uninterrupted run",
    ),
    "--no-journal": dict(
        action="store_true", help="skip writing the checkpoint journal"
    ),
    "--trace": dict(
        action="store_true",
        help="record traces and add per-phase 'Sim ms [...]' columns",
    ),
    "--backend": dict(
        choices=KNOWN_BACKENDS,
        help="kernel-execution backend; simulated quantities are "
        "bit-identical across backends (default: $REPRO_BACKEND or "
        "reference)",
    ),
    "--csv": dict(metavar="PATH", help="also append the series to PATH"),
    "--json": dict(
        metavar="PATH",
        help="write the last series as a JSON snapshot (with its seed, "
        "scaling and cost-model constants)",
    ),
    "--chart": dict(action="store_true", help="render ASCII charts"),
    "--out": dict(metavar="PATH", help="where to write the command's output"),
    "dataset": dict(metavar="DATASET"),
    "impl": dict(metavar="IMPL"),
    "--dataset": dict(default="G3_circuit", help="dataset" + _DEFAULT),
    "--algorithms": dict(
        default="graphblas.mis",
        help="comma-separated (1-2) implementation ids" + _DEFAULT,
    ),
    "--compare": dict(
        metavar="BASELINE",
        help="diff against this baseline bench JSON; exit 5 on regression",
    ),
    "--wall-tol": dict(
        type=float, default=DEFAULT_WALL_TOL, metavar="FACTOR",
        help="--compare's multiplicative wall_s tolerance" + _DEFAULT,
    ),
    "--write-baseline": dict(
        metavar="PATH", help="also copy the fresh run to PATH"
    ),
    "--ignore-backend": dict(
        action="store_true",
        help="let --compare diff documents from different backends",
    ),
    "--devices": dict(
        type=_device_counts, default=",".join(map(str, DEFAULT_DEVICES)),
        metavar="COUNTS", help="device counts to sweep" + _DEFAULT,
    ),
    "--quick": dict(action="store_true", help="CI-sized graphs"),
    "requests_file": dict(
        metavar="REQUESTS", help="JSONL file, one request object per line"
    ),
    "--serve-workers": dict(
        type=_POSITIVE, default=2, metavar="N",
        help="service worker tasks" + _DEFAULT,
    ),
    "--queue-limit": dict(
        type=_POSITIVE, default=16, metavar="N",
        help="admission-queue depth; excess load is shed" + _DEFAULT,
    ),
    "--deadline": dict(
        type=float, metavar="SECONDS",
        help="per-request deadline (default: unbounded)",
    ),
    "--requests": dict(
        type=_POSITIVE, default=60, metavar="N",
        help="requests to synthesize" + _DEFAULT,
    ),
    "--datasets": dict(
        type=_names, default="ecology2,offshore,G3_circuit", metavar="NAMES",
        help="datasets, most popular first" + _DEFAULT,
    ),
    "--impls": dict(
        type=_names, default="gunrock.hash,graphblas.mis,cpu.greedy",
        metavar="IDS", help="implementation ids, drawn uniformly" + _DEFAULT,
    ),
    "--zipf-s": dict(
        type=float, default=1.2, metavar="S",
        help="Zipf exponent over --datasets" + _DEFAULT,
    ),
}

# The flag sets commands share.  COMMON is declared on every command.
COMMON = ("--metrics-out", "--log")
DATASET = ("--scale-div", "--seed")
GRID = (
    "--repetitions", "--jobs", "--timeout", "--retries", "--resume",
    "--no-journal", "--trace", "--backend",
)
OUTPUT = ("--csv", "--json")
SERVE = ("--serve-workers", "--queue-limit", "--deadline", "--retries")


class _Command(NamedTuple):
    run: Callable[..., int]  # (args, parser) -> exit code
    help: str
    flags: Tuple[str, ...]  # besides COMMON, in --help order
    description: str = ""
    repetitions: int = 3  # the --repetitions default, where declared


_EXPERIMENT = DATASET + GRID + OUTPUT

#: Each command: its handler, its help, and the flags it reads.
COMMANDS = {
    "table1": _Command(
        _cmd_experiments, "Table I: dataset description", DATASET + OUTPUT
    ),
    "table2": _Command(
        _cmd_experiments, "Table II: Gunrock optimization ladder", _EXPERIMENT
    ),
    "fig1": _Command(
        _cmd_experiments, "Figure 1: speedups and color counts",
        _EXPERIMENT + ("--chart",),
    ),
    "fig2": _Command(
        _cmd_experiments, "Figure 2: time-quality trade-off", _EXPERIMENT
    ),
    "fig3": _Command(
        _cmd_experiments, "Figure 3: RGG scaling sweep",
        ("--seed",) + GRID + OUTPUT + ("--chart",),
        "Figure 3: RGG scaling sweep.  Its graphs are always paper-scale.",
    ),
    "all": _Command(
        _cmd_experiments, "every table and figure", _EXPERIMENT + ("--chart",),
        "Runs " + ", ".join(EXPERIMENTS) + " in order; --json keeps the "
        "last series.",
    ),
    "profile": _Command(
        _cmd_profile, "per-kernel share table of one or two implementations",
        ("--dataset", "--algorithms") + DATASET + ("--backend", "--csv"),
        "Prints the per-kernel share table; exits 3 when an "
        "implementation records no kernel counters.",
    ),
    "trace": _Command(
        _cmd_trace, "record one traced repetition",
        ("dataset", "impl") + DATASET + ("--backend", "--csv", "--out"),
        "Runs one traced repetition of IMPL on DATASET and prints its "
        "per-kernel and per-phase breakdowns; --out writes the Chrome "
        "trace_event JSON that chrome://tracing and ui.perfetto.dev load "
        "(docs/observability.md).  Exits 3 when IMPL records no trace.",
    ),
    "bench": _Command(
        _cmd_bench, "run the pinned benchmark suite",
        DATASET + ("--repetitions", "--backend", "--out", "--compare",
                   "--wall-tol", "--write-baseline", "--ignore-backend"),
        f"Writes BENCH_<git-sha>.json into --out (default {BENCH_OUT_DIR}); "
        "--compare diffs it against a baseline and exits 5 on regression "
        "(docs/observability.md).  Its quantities are deterministic given "
        "the seed, so one repetition is the default.",
        repetitions=1,
    ),
    "scale": _Command(
        _cmd_scale, "multi-device strong/weak scaling study",
        ("--devices", "--quick", "--seed") + GRID + OUTPUT,
        "Sweeps the distributed implementations over device counts; a "
        "1-device cell that is not bit-identical to its single-device "
        "implementation exits 3 (docs/distributed.md).",
        repetitions=1,
    ),
    "serve": _Command(
        _cmd_serve, "answer a JSONL request file through the service",
        ("requests_file",) + SERVE + ("--scale-div", "--out"),
        "Runs each request line (impl, dataset or inline graph, seed, "
        "backend, deadline_s) through an in-process service; --out writes "
        "one terminal response per line.  Exits 3 when a request failed "
        "or went unanswered (docs/serving.md).",
    ),
    "loadgen": _Command(
        _cmd_loadgen, "bursty Zipf traffic against a fresh service",
        ("--requests", "--datasets", "--impls", "--zipf-s") + SERVE
        + DATASET + ("--out",),
        "Synthesizes bursty Zipf-over-datasets traffic; --out writes the "
        "latency/outcome snapshot.  Exits 3 when a request failed or went "
        "unanswered (docs/serving.md).",
    ),
    "lint": _Command(
        _cmd_lint, "repro-lint static checks over the package", (),
        "The gate CI applies (docs/static-analysis.md); exits 4 on "
        "violations.",
    ),
}


def _add_flags(parser: argparse.ArgumentParser, names) -> None:
    for name in names:
        parser.add_argument(name, **_FLAGS[name])


def build_parser() -> argparse.ArgumentParser:
    """The harness command line: one subparser per :data:`COMMANDS`
    entry, declaring exactly the flags that command reads."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness",
        description="Regenerate the tables and figures of "
        "'Graph Coloring on the GPU' (Osama et al., 2019).",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(
        dest="command", metavar="COMMAND", required=True
    )
    for name, command in COMMANDS.items():
        cmd = sub.add_parser(
            name,
            help=command.help,
            description=command.description or command.help,
            allow_abbrev=False,
        )
        _add_flags(cmd, command.flags + COMMON)
        cmd.set_defaults(func=command.run)
        if "--repetitions" in command.flags:
            cmd.set_defaults(repetitions=command.repetitions)
    return parser


def _dispatch(args, parser) -> int:
    """Execute the parsed command; returns the process exit code."""
    if getattr(args, "jobs", 1) > 1 and _fork_context() is None:
        print(
            f"notice: --jobs {args.jobs} requested but the 'fork' start "
            "method is unavailable on this platform; running sequentially",
            file=sys.stderr,
        )
    return args.func(args, parser)


def main(argv: Optional[List[str]] = None) -> int:
    # --metrics-out/--log activate before the command line is parsed,
    # so a usage error still writes the session's metrics and log.
    session = argparse.ArgumentParser(
        prog="python -m repro.harness", add_help=False, allow_abbrev=False
    )
    _add_flags(session, COMMON)
    active, _ = session.parse_known_args(argv)
    parser = build_parser()
    with ExitStack() as stack:
        if active.log:
            stack.enter_context(runlog.activate(active.log))
        if active.metrics_out:
            reg = stack.enter_context(metrics.activate())
            # Registered as a callback, not appended after _dispatch:
            # ExitStack unwinds LIFO, so when _dispatch raises, the
            # registry is still written *and then* deactivated — a
            # failed command must not leak an active registry into
            # subsequent in-process calls, nor swallow its metrics.
            stack.callback(_write_metrics, reg, active.metrics_out)
        return _dispatch(parser.parse_args(argv), parser)


if __name__ == "__main__":
    sys.exit(main())
