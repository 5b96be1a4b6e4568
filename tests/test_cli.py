"""Tests for the ``python -m repro`` command-line tool and the
``python -m repro.harness`` trace subcommand's exit-code contract."""

import json

import numpy as np
import pytest

from repro.__main__ import main
from repro.graph.build import from_edges
from repro.graph.io import read_matrix_market, write_matrix_market
from repro.harness.__main__ import (
    EXIT_LINT,
    EXIT_PARTIAL,
    main as harness_main,
)


@pytest.fixture
def mtx_file(tmp_path, petersen):
    path = tmp_path / "g.mtx"
    write_matrix_market(petersen, path)
    return path


class TestColorCommand:
    def test_colors_mtx(self, mtx_file, capsys):
        assert main(["color", str(mtx_file)]) == 0
        out = capsys.readouterr().out
        assert "colors" in out
        assert "n=10" in out

    def test_writes_output(self, mtx_file, tmp_path, capsys):
        out_path = tmp_path / "colors.txt"
        assert (
            main(
                [
                    "color",
                    str(mtx_file),
                    "--algorithm",
                    "graphblas.mis",
                    "--out",
                    str(out_path),
                ]
            )
            == 0
        )
        lines = out_path.read_text().strip().splitlines()
        assert lines[0].startswith("#")
        assert len(lines) == 11  # header + 10 vertices
        v, c = lines[1].split()
        assert int(v) == 0 and int(c) >= 1

    def test_edgelist_input(self, tmp_path, capsys):
        path = tmp_path / "g.edges"
        path.write_text("0 1\n1 2\n")
        assert main(["color", str(path), "--seed", "3"]) == 0

    def test_npz_input(self, tmp_path, petersen, capsys):
        from repro.graph.io import save_npz

        path = tmp_path / "g.npz"
        save_npz(petersen, path)
        assert main(["color", str(path)]) == 0

    def test_unknown_algorithm(self, mtx_file, capsys):
        assert main(["color", str(mtx_file), "--algorithm", "nope"]) == 1
        assert "unknown algorithm" in capsys.readouterr().err


class TestOtherCommands:
    def test_algorithms_lists(self, capsys):
        assert main(["algorithms"]) == 0
        out = capsys.readouterr().out
        assert "gunrock.is" in out
        assert "graphblas.mis" in out

    def test_generate(self, tmp_path, capsys):
        out_path = tmp_path / "eco.mtx"
        assert (
            main(
                [
                    "generate",
                    "ecology2",
                    "--scale-div",
                    "512",
                    "--out",
                    str(out_path),
                ]
            )
            == 0
        )
        g = read_matrix_market(out_path)
        assert g.num_vertices > 100

    def test_generate_unknown(self, capsys):
        assert main(["generate", "mystery"]) == 1
        assert "unknown dataset" in capsys.readouterr().err

    def test_generate_npz(self, tmp_path, capsys):
        out_path = tmp_path / "g.npz"
        assert (
            main(["generate", "offshore", "--scale-div", "512", "--out", str(out_path)])
            == 0
        )
        from repro.graph.io import load_npz

        assert load_npz(out_path).num_vertices > 100

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestHarnessTraceCommand:
    """``python -m repro.harness trace`` and its exit-code contract:
    0 success, 2 usage (argparse), 3 runtime failure, 4 lint."""

    ARGS = ["trace", "offshore", "graphblas.mis", "--scale-div", "2048"]

    def test_success_prints_tables(self, capsys):
        assert harness_main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "Trace: graphblas.mis on offshore" in out
        assert "Phases: graphblas.mis on offshore" in out
        assert "superstep" in out
        assert "vxm" in out

    def test_out_writes_loadable_chrome_json(self, tmp_path, capsys):
        from repro.trace import validate_chrome_trace

        path = tmp_path / "trace.json"
        assert harness_main(self.ARGS + ["--out", str(path)]) == 0
        obj = json.loads(path.read_text())
        assert validate_chrome_trace(obj) == []
        assert obj["otherData"]["algorithm"] == "graphblas.mis"
        assert obj["otherData"]["dataset"] == "offshore"
        assert any(ev.get("ph") == "X" for ev in obj["traceEvents"])

    def test_missing_targets_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            harness_main(["trace", "offshore"])
        assert exc.value.code == 2

    def test_extra_targets_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            harness_main(["trace", "offshore", "graphblas.mis", "surplus"])
        assert exc.value.code == 2

    def test_targets_rejected_outside_trace(self, capsys):
        with pytest.raises(SystemExit) as exc:
            harness_main(["table1", "offshore"])
        assert exc.value.code == 2

    def test_unknown_dataset_is_partial_failure(self, capsys):
        rc = harness_main(["trace", "atlantis", "graphblas.mis"])
        assert rc == EXIT_PARTIAL == 3
        assert "trace run failed" in capsys.readouterr().err

    def test_untraceable_algorithm_is_partial_failure(self, capsys):
        rc = harness_main(self.ARGS[:2] + ["cpu.greedy"] + self.ARGS[3:])
        assert rc == EXIT_PARTIAL
        assert "records no trace" in capsys.readouterr().err

    def test_lint_exit_code_contract(self, capsys, monkeypatch):
        from repro.analysis.engine import AnalysisReport
        from repro.analysis.lint import Violation

        monkeypatch.setattr(
            "repro.analysis.engine.analyze_paths",
            lambda paths: AnalysisReport(
                violations=[
                    Violation(
                        file="x.py", line=1, col=0, rule="RPL007", message="m"
                    )
                ]
            ),
        )
        assert harness_main(["lint"]) == EXIT_LINT == 4
        assert "RPL007" in capsys.readouterr().out

    def test_profile_counterless_algorithm_is_partial_failure(self, capsys):
        # cpu.greedy records no SimCounters: the CLI must exit with the
        # documented partial-failure code and a one-line error, not a
        # traceback (docs/observability.md exit-code contract).
        rc = harness_main(
            [
                "profile",
                "--dataset",
                "offshore",
                "--algorithms",
                "cpu.greedy",
                "--scale-div",
                "2048",
            ]
        )
        assert rc == EXIT_PARTIAL
        err = capsys.readouterr().err
        assert "profile failed" in err
        assert "no kernel counters" in err
        assert "Traceback" not in err

    def test_metrics_out_and_log_flags(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)  # keep cache/journal out of the repo
        rc = harness_main(
            [
                "table2",
                "--scale-div",
                "2048",
                "--repetitions",
                "1",
                "--no-journal",
                "--metrics-out",
                "m.json",
                "--log",
                "run.jsonl",
            ]
        )
        assert rc == 0
        snap = json.loads((tmp_path / "m.json").read_text())
        assert "repro_runs_total" in snap
        assert "repro_reps_completed_total" in snap
        assert "wrote metrics to m.json" in capsys.readouterr().out
        events = [
            json.loads(l)
            for l in (tmp_path / "run.jsonl").read_text().splitlines()
        ]
        names = [r["event"] for r in events]
        assert names[0] == "grid_start" and names[-1] == "grid_end"
        assert len({r["run"] for r in events}) == 1

    def test_grid_trace_flag_adds_phase_columns(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)  # keep the journal out of the repo
        rc = harness_main(
            [
                "table2",
                "--trace",
                "--scale-div",
                "2048",
                "--repetitions",
                "1",
                "--no-journal",
            ]
        )
        assert rc == 0
        assert "Sim ms [superstep]" in capsys.readouterr().out


class TestMetricsOnErrorPaths:
    """--metrics-out must write and deactivate the registry even when
    the command raises: a crashed run's partial counters are exactly
    the ones worth having."""

    def test_metrics_written_and_deactivated_on_crash(
        self, capsys, tmp_path, monkeypatch
    ):
        import repro.harness.__main__ as cli
        from repro import metrics

        def explode(args, parser):
            metrics.inc("repro_test_crash_total")
            raise RuntimeError("boom mid-command")

        monkeypatch.setattr(cli, "_dispatch", explode)
        out = tmp_path / "m.json"
        with pytest.raises(RuntimeError, match="boom mid-command"):
            harness_main(
                ["table2", "--metrics-out", str(out), "--no-journal"]
            )
        # The registry was deactivated (no leak into later commands) …
        assert metrics.active() is None
        # … and the partial counters still reached disk.
        snap = json.loads(out.read_text())
        assert "repro_test_crash_total" in snap

    def test_metrics_written_on_usage_error(self, capsys, tmp_path, monkeypatch):
        from repro import metrics

        out = tmp_path / "m.json"
        with pytest.raises(SystemExit):
            harness_main(
                ["definitely-not-an-experiment", "--metrics-out", str(out)]
            )
        assert metrics.active() is None
        assert out.exists()  # empty registry, but written and valid
        json.loads(out.read_text())


#: Positionals that complete each command's line.
_POSITIONALS = {"trace": ["offshore", "graphblas.mis"], "serve": ["r.jsonl"]}


class TestDeclaredFlagSets:
    """Each harness command accepts only the flags it reads; any other
    flag is a usage error (exit 2), never silently ignored."""

    @pytest.mark.parametrize(
        "command, flag",
        [
            ("serve", "--json"),
            ("serve", "--backend"),
            ("serve", "--seed"),
            ("loadgen", "--backend"),
            ("loadgen", "--dataset"),
            ("lint", "--seed"),
            ("table1", "--jobs"),
            ("table1", "--trace"),
            ("table1", "--chart"),
            ("table1", "--timeout"),
            ("table1", "--resume"),
            ("table1", "--dataset"),
            ("table1", "--out"),
            ("table2", "--chart"),
            ("scale", "--scale-div"),
            ("fig3", "--scale-div"),
            ("trace", "--json"),
            ("profile", "--out"),
            ("profile", "--json"),
            ("bench", "--csv"),
            ("bench", "--json"),
            ("bench", "--jobs"),
            ("bench", "--trace"),
        ],
    )
    def test_flag_outside_spec_is_usage_error(self, command, flag, capsys):
        from repro.harness.__main__ import build_parser

        argv = [command] + _POSITIONALS.get(command, [])
        build_parser().parse_args(argv)  # complete without the flag
        with pytest.raises(SystemExit) as exc:
            harness_main(argv + [flag, "1"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_every_undeclared_pair_rejected(self, capsys):
        from repro.harness.__main__ import (
            _FLAGS,
            COMMANDS,
            COMMON,
            build_parser,
        )

        parser = build_parser()
        options = [name for name in _FLAGS if name.startswith("--")]
        rejected = 0
        for command, spec in COMMANDS.items():
            argv = [command] + _POSITIONALS.get(command, [])
            for flag in set(options) - set(spec.flags + COMMON):
                with pytest.raises(SystemExit) as exc:
                    parser.parse_args(argv + [flag, "1"])
                assert exc.value.code == 2, (command, flag)
                rejected += 1
        assert rejected > len(COMMANDS) * len(options) // 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["table2", "--repetitions", "0"],
            ["bench", "--repetitions", "-1"],
            ["fig1", "--jobs", "0"],
            ["scale", "--jobs", "two"],
            ["table2", "--retries", "-1"],
            ["serve", "r.jsonl", "--serve-workers", "0"],
            ["serve", "r.jsonl", "--queue-limit", "0"],
            ["loadgen", "--requests", "0"],
            ["loadgen", "--retries", "-2"],
        ],
    )
    def test_out_of_range_count_is_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            harness_main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "expected an integer >=" in err
        assert "Traceback" not in err

    def test_zero_retries_accepted(self):
        from repro.harness.__main__ import build_parser

        args = build_parser().parse_args(["table2", "--retries", "0"])
        assert args.retries == 0

    def test_repetitions_default_per_command(self):
        from repro.harness.__main__ import build_parser

        parser = build_parser()
        for command, expected in [
            ("table2", 3), ("fig3", 3), ("all", 3), ("bench", 1), ("scale", 1)
        ]:
            assert parser.parse_args([command]).repetitions == expected


class TestFig3Snapshot:
    @pytest.mark.parametrize("command", ["fig3", "all"])
    def test_snapshot_records_paper_scale(
        self, command, tmp_path, monkeypatch, capsys
    ):
        """fig3's RGG sweep always runs at scale_div=1, and its snapshot
        says so, whatever --scale-div the other experiments of ``all``
        ran at."""
        import repro.harness.__main__ as cli

        calls = []

        def fake_fig3(**kwargs):
            calls.append(kwargs)
            return [
                {"Implementation": "gunrock.is", "Vertices": 128,
                 "Runtime (ms)": 1.0}
            ]

        row = [{"x": 1}]
        monkeypatch.setattr(cli, "fig3_series", fake_fig3)
        monkeypatch.setattr(cli, "table1_rows", lambda **kw: row)
        monkeypatch.setattr(cli, "table2_rows", lambda **kw: row)
        monkeypatch.setattr(
            cli, "fig1_series",
            lambda **kw: dict(
                speedup_rows=row, color_rows=row, geomean={}, cells=[]
            ),
        )
        monkeypatch.setattr(
            cli, "fig2_series",
            lambda **kw: dict(gunrock=row, graphblast=row, cells=[]),
        )
        out = tmp_path / "f3.json"
        argv = [command, "--json", str(out), "--seed", "5"]
        if command == "all":
            argv += ["--scale-div", "4096"]
        assert harness_main(argv) == 0
        assert len(calls) == 1 and "scale_div" not in calls[0]
        snap = json.loads(out.read_text())
        assert snap["experiment"].startswith("Figure 3")
        assert (snap["seed"], snap["scale_div"]) == (5, 1)


class TestHarnessServeCommand:
    def test_malformed_inline_csr_is_rejected_not_fatal(
        self, tmp_path, monkeypatch, capsys
    ):
        """An asymmetric inline CSR ends its own line ``rejected`` with an
        ``invalid_graph`` reason; the other lines still run."""
        monkeypatch.chdir(tmp_path)
        req = tmp_path / "req.jsonl"
        req.write_text(
            '{"impl": "cpu.greedy", "graph": {"offsets": [0, 1, 1], "indices": [1]}}\n'
            '{"impl": "cpu.greedy", "graph": {"offsets": [0, 1, 2], "indices": [1, 0]}}\n'
        )
        out = tmp_path / "resp.jsonl"
        assert harness_main(["serve", str(req), "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert "Traceback" not in captured.out + captured.err
        assert "ok=1, rejected=1" in captured.out
        bad, good = [json.loads(line) for line in out.read_text().splitlines()]
        assert bad["status"] == "rejected"
        assert bad["reason"] == (
            "invalid_graph: declared undirected but arc set is asymmetric"
        )
        assert bad["impl"] == "cpu.greedy" and bad["attempts"] == 0
        assert good["status"] == "ok" and good["num_colors"] == 2

    @pytest.mark.parametrize(
        "line, reason",
        [
            ('{"impl": "cpu.greedy", "dataset": "offshore", "colour": 3}',
             "bad_request: unknown field 'colour'"),
            ('{"impl": "cpu.greedy", "dataset": "offshore", "seed": "7"}',
             "bad_request: field 'seed' has type str"),
            ('{"impl": "cpu.greedy", "dataset": "offshore", "seed": true}',
             "bad_request: field 'seed' has type bool"),
            ('{"impl": 3, "dataset": "offshore"}',
             "bad_request: field 'impl' has type int"),
            ('{"dataset": "offshore"}', "bad_request: missing field 'impl'"),
            ('{"impl": "cpu.greedy", "graph": [0, 1]}',
             "bad_request: field 'graph' must be an object, got list"),
            ('["cpu.greedy", "offshore"]',
             "bad_request: expected a JSON object, got list"),
            ('{"impl": "cpu.greedy", "graph": {"offsets": [0, 0]}}',
             "invalid_graph: missing 'indices'"),
        ],
    )
    def test_malformed_request_object_is_rejected_not_fatal(
        self, line, reason, tmp_path, monkeypatch, capsys
    ):
        """A JSON line that is not a well-formed request (unknown key,
        wrong-typed or missing field) ends its own line ``rejected`` with
        a ``bad_request`` reason; the other lines still run."""
        monkeypatch.chdir(tmp_path)
        req = tmp_path / "req.jsonl"
        req.write_text(
            line + "\n"
            '{"impl": "cpu.greedy", "graph": {"offsets": [0, 1, 2], "indices": [1, 0]}}\n'
        )
        out = tmp_path / "resp.jsonl"
        assert harness_main(["serve", str(req), "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert "Traceback" not in captured.out + captured.err
        assert "ok=1, rejected=1" in captured.out
        bad, good = [json.loads(x) for x in out.read_text().splitlines()]
        assert bad["status"] == "rejected" and bad["attempts"] == 0
        assert bad["reason"] == reason
        assert good["status"] == "ok" and good["num_colors"] == 2

    def test_text_that_is_not_json_is_a_usage_error(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        req = tmp_path / "req.jsonl"
        req.write_text(
            '{"impl": "cpu.greedy", "dataset": "offshore"}\n'
            "impl=cpu.greedy dataset=offshore\n"
        )
        assert harness_main(["serve", str(req)]) == 2
        assert "req.jsonl:2: bad request line" in capsys.readouterr().err
