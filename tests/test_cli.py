"""Tests for the command-line interface."""

import io
import json

import pytest

from repro.cli import build_parser, main


def run(*argv) -> str:
    out = io.StringIO()
    code = main(list(argv), out=out)
    assert code == 0
    return out.getvalue()


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_app(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["analyze", "nosuchapp"])

    def test_rejects_unknown_strategy(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "bboard", "--strategy", "X"])


class TestCommands:
    def test_apps(self):
        output = run("apps")
        for name in ("auction", "bboard", "bookstore"):
            assert name in output

    def test_templates(self):
        output = run("templates", "bookstore")
        assert "getBestSellers" in output
        assert "SELECT" in output
        assert "INSERT INTO" in output

    def test_ipm(self):
        output = run("ipm", "auction")
        assert "A=B=C=0" in output

    def test_analyze(self):
        output = run("analyze", "bookstore")
        assert "bookstore" in output
        assert "of 28" in output

    def test_analyze_without_constraints(self):
        with_constraints = run("analyze", "bookstore")
        without = run("analyze", "bookstore", "--no-constraints")
        assert with_constraints != without

    def test_methodology(self):
        output = run("methodology", "bboard")
        assert "initial -> final" in output
        assert "[reduced]" in output

    def test_scalability(self):
        output = run("scalability", "auction", "--pages", "120", "--scale", "0.15")
        for name in ("MVIS", "MSIS", "MTIS", "MBS"):
            assert name in output

    def test_scalability_with_cluster(self):
        output = run(
            "scalability", "auction", "--pages", "120", "--scale", "0.15",
            "--nodes", "2",
        )
        assert "MVIS" in output

    def test_simulate(self):
        output = run(
            "simulate", "bookstore", "--users", "4", "--duration", "20",
            "--scale", "0.15",
        )
        assert "p90=" in output
        assert "sla_met=" in output

    def test_diagnose(self):
        output = run("diagnose", "bookstore", "--pages", "40", "--scale", "0.15")
        assert "pages" in output
        assert "queries" in output

    def test_export_characterization(self):
        output = run("export", "auction", "characterization")
        lines = output.strip().splitlines()
        assert lines[0].startswith("update_template,query_template")
        assert len(lines) == 1 + 16 * 6  # header + pairs

    def test_export_methodology(self):
        output = run("export", "bboard", "methodology")
        assert "template,initial_level,final_level,reduced" in output

    def test_export_policy(self):
        output = run("export", "bboard", "policy")
        assert "kind,template,exposure_level" in output
        assert ",query," not in output.splitlines()[0]

    def test_module_entry_point(self):
        import subprocess
        import sys

        completed = subprocess.run(
            [sys.executable, "-m", "repro", "apps"],
            capture_output=True,
            text=True,
        )
        assert completed.returncode == 0
        assert "bookstore" in completed.stdout


class TestTraceCommand:
    @pytest.fixture
    def span_logs(self, tmp_path):
        """Two nodes' span logs forming one complete-ish trace."""
        import json as json_mod

        trace_id = "a" * 16
        client = [
            {
                "trace": trace_id, "span": "1", "name": "client.request",
                "node": "client", "ts": 1000.0, "dur": 0.1,
            },
        ]
        dssp = [
            {
                "trace": trace_id, "span": "1", "name": "server.handle",
                "node": "dssp-0", "ts": 1000.01, "dur": 0.08,
                "attrs": {"frame": "QueryRequest"},
            },
            {
                "trace": trace_id, "span": "2", "name": "dssp.cache_lookup",
                "node": "dssp-0", "ts": 1000.02, "dur": 0.01, "parent": "1",
                "attrs": {"hit": True},
            },
        ]
        paths = []
        for name, spans in (("client", client), ("dssp-0", dssp)):
            path = tmp_path / f"{name}.spans.jsonl"
            path.write_text(
                "\n".join(json_mod.dumps(s) for s in spans) + "\n"
            )
            paths.append(str(path))
        return paths

    def test_summary_table(self, span_logs):
        output = run("trace", *span_logs)
        assert "traces=1" in output
        assert "spans=3" in output
        assert "client.request" in output
        assert "dssp.cache_lookup" in output

    def test_json_report(self, span_logs):
        import json as json_mod

        report = json_mod.loads(run("trace", "--json", *span_logs))
        assert report["traces"] == 1
        assert report["nodes"] == ["client", "dssp-0"]
        assert "client.request" in report["phases"]
        assert report["slowest"][0]["trace"] == "a" * 16

    def test_single_trace_tree(self, span_logs):
        output = run("trace", "--trace", "a" * 16, *span_logs)
        assert "client.request [client]" in output
        assert "  server.handle [dssp-0]" in output
        assert "    dssp.cache_lookup [dssp-0]" in output
        assert "hit=True" in output
        assert "critical path" in output

    def test_single_trace_json(self, span_logs):
        import json as json_mod

        report = json_mod.loads(
            run("trace", "--json", "--trace", "a" * 16, *span_logs)
        )
        assert report["trace"] == "a" * 16
        assert len(report["spans"]) == 3
        assert report["critical_path"]["entries"]

    def test_unknown_trace_id_fails(self, span_logs):
        out = io.StringIO()
        code = main(["trace", "--trace", "b" * 16, *span_logs], out=out)
        assert code == 1
        assert "not found" in out.getvalue()


class TestTraceFlagsParse:
    def test_serve_flags_accept_span_log(self):
        args = build_parser().parse_args(
            [
                "serve-home", "bboard",
                "--span-log", "/tmp/home.jsonl",
                "--trace-sample", "0.01",
            ]
        )
        assert args.span_log == "/tmp/home.jsonl"
        assert args.trace_sample == 0.01

    def test_loadgen_flags_accept_span_log(self):
        args = build_parser().parse_args(
            [
                "loadgen", "bboard", "--dssp", "127.0.0.1:9", "--span-log",
                "/tmp/c.jsonl",
            ]
        )
        assert args.span_log == "/tmp/c.jsonl"
        assert args.trace_sample == 1.0

    def test_chaos_flags_accept_span_log_dir(self):
        args = build_parser().parse_args(
            ["chaos", "bboard", "--span-log", "/tmp/spans"]
        )
        assert args.span_log == "/tmp/spans"

    def test_stats_accepts_multiple_addresses_and_prom(self):
        args = build_parser().parse_args(
            ["stats", "127.0.0.1:1", "127.0.0.1:2", "--prom"]
        )
        assert args.addresses == ["127.0.0.1:1", "127.0.0.1:2"]
        assert args.prom is True


class TestShardSets:
    """A bad shard set ends in a one-line exit, not a traceback."""

    def test_serve_dssp_node_outside_its_shard_set(self):
        with pytest.raises(SystemExit, match="not in its own shard set"):
            main(
                [
                    "serve-dssp", "bookstore", "--home", "127.0.0.1:1",
                    "--shards", "a,b", "--node-id", "c",
                ],
                out=io.StringIO(),
            )

    def test_loadgen_duplicate_shard(self):
        with pytest.raises(SystemExit, match="already placed"):
            main(
                [
                    "loadgen", "bookstore", "--dssp", "127.0.0.1:9",
                    "--dssp", "127.0.0.1:10", "--shards", "a,a",
                ],
                out=io.StringIO(),
            )

    @pytest.mark.parametrize(
        "argv",
        [
            ["serve-dssp", "bookstore", "--home", "127.0.0.1:1"],
            ["loadgen", "bookstore"],
            ["chaos", "bookstore"],
        ],
    )
    def test_vnodes_flag_is_gone(self, argv, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv + ["--vnodes", "8"])
        assert "unrecognized arguments: --vnodes" in capsys.readouterr().err


class TestLoadgenScenario:
    """The in-process scenario path of ``repro loadgen`` (PR 10)."""

    def test_app_is_optional_and_defaults_to_bookstore(self):
        args = build_parser().parse_args(["loadgen", "--scenario", "steady"])
        assert args.app == "bookstore"
        assert args.scenario == "steady"

    def test_rejects_unknown_scenario(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["loadgen", "--scenario", "tsunami"])

    def test_loadgen_without_dssp_or_scenario_exits(self):
        with pytest.raises(SystemExit, match="--dssp"):
            main(["loadgen", "bookstore"], out=io.StringIO())

    @pytest.mark.parametrize(
        "mode",
        [
            ["--scenario", "steady"],
            ["bookstore", "--dssp", "127.0.0.1:9", "--arrival", "poisson"],
        ],
    )
    def test_open_loop_rejects_a_page_budget(self, mode):
        """An open loop is bounded by its schedule's duration; a page
        budget used to be ignored silently."""
        with pytest.raises(SystemExit, match="bounded by --duration"):
            main(
                ["loadgen", *mode, "--rate", "40", "--pages", "3"],
                out=io.StringIO(),
            )

    def test_rejects_malformed_sweep(self):
        with pytest.raises(SystemExit, match="sweep"):
            main(
                ["loadgen", "--scenario", "steady", "--sweep", "40,2x0"],
                out=io.StringIO(),
            )

    def test_rejects_descending_sweep(self):
        with pytest.raises(SystemExit, match="ascend"):
            main(
                ["loadgen", "--scenario", "steady", "--sweep", "40,20"],
                out=io.StringIO(),
            )

    def test_scenario_run_reports_open_loop_books_and_digest(self, tmp_path):
        report_path = tmp_path / "report.json"
        output = run(
            "loadgen",
            "--scenario",
            "steady",
            "--rate",
            "30",
            "--duration",
            "0.5",
            "--scale",
            "0.05",
            "--trace-pages",
            "100",
            "--report",
            str(report_path),
        )
        assert "scenario=steady" in output
        assert "offered=" in output and "dropped=" in output
        assert "arrival digest:" in output
        report = json.loads(report_path.read_text())
        assert report["mode"] == "open"
        assert report["offered"] == report["pages"] + report[
            "late_pages"
        ] + report["errors"] + report["dropped"]
        assert report["arrival"]["kind"] == "poisson"
        assert len(report["arrival"]["digest"]) == 64

    def test_scenario_sweep_prints_knee_and_writes_report(self, tmp_path):
        report_path = tmp_path / "sweep.json"
        output = run(
            "loadgen",
            "--scenario",
            "steady",
            "--sweep",
            "15,30",
            "--duration",
            "0.4",
            "--deadline",
            "0.5",
            "--scale",
            "0.05",
            "--trace-pages",
            "100",
            "--report",
            str(report_path),
        )
        assert "knee:" in output
        sweep = json.loads(report_path.read_text())
        assert sweep["scenario"] == "steady"
        assert [p["rate"] for p in sweep["points"]] == [15.0, 30.0]
        for point in sweep["points"]:
            assert point["offered"] == point["issued"] + point["dropped"]
