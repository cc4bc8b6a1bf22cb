"""Tests for the repro-mnet command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_list_command(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.workload == "mixB"
        assert args.mechanism == "FP"
        assert args.alpha == 0.05
        assert not args.baseline

    def test_run_full_flags(self):
        args = build_parser().parse_args([
            "run", "--workload", "is.D", "--topology", "ddrx_like",
            "--scale", "big", "--mechanism", "VWL+ROO", "--policy", "aware",
            "--alpha", "0.1", "--window-us", "200", "--epoch-us", "20",
            "--seed", "9", "--wake-ns", "20", "--mapping", "interleaved",
            "--baseline",
        ])
        assert args.workload == "is.D"
        assert args.mechanism == "VWL+ROO"
        assert args.wake_ns == 20.0
        assert args.baseline

    def test_invalid_workload_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--workload", "nope"])

    def test_run_observability_flags(self):
        args = build_parser().parse_args([
            "run", "--trace", "out.jsonl", "--trace-format", "chrome",
            "--trace-categories", "all", "--metrics-out", "m.json",
        ])
        assert args.trace == "out.jsonl"
        assert args.trace_format == "chrome"
        assert args.trace_categories == "all"
        assert args.metrics_out == "m.json"

    def test_run_observability_defaults_off(self):
        args = build_parser().parse_args(["run"])
        assert args.trace is None
        assert args.metrics_out is None

    def test_trace_kind_flag(self):
        args = build_parser().parse_args(["trace", "out.jsonl"])
        assert args.kind == "accesses"
        args = build_parser().parse_args(
            ["trace", "out.jsonl", "--kind", "events", "--format", "csv"])
        assert args.kind == "events"
        assert args.format == "csv"

    def test_figure_names(self):
        args = build_parser().parse_args(["figure", "fig5"])
        assert args.name == "fig5"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "fig99"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestExecution:
    def test_list_prints_workloads(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "mixB" in out and "daisychain" in out and "VWL+ROO" in out

    def test_run_small_experiment(self, capsys):
        rc = main([
            "run", "--workload", "sp.D", "--window-us", "50",
            "--epoch-us", "15",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "power per HMC" in out
        assert "channel utilization" in out

    def test_run_with_baseline_compares(self, capsys):
        rc = main([
            "run", "--workload", "sp.D", "--mechanism", "VWL",
            "--policy", "unaware", "--window-us", "50", "--epoch-us", "15",
            "--baseline",
        ])
        assert rc == 0
        assert "vs full power" in capsys.readouterr().out

    def test_baseline_that_completes_no_access_reports_zero_cost(self, capsys):
        # A 10 ns window ends before any access completes, so the
        # baseline's throughput is 0.
        rc = main([
            "run", "--workload", "sp.D", "--mechanism", "VWL",
            "--policy", "aware", "--window-us", "0.01", "--epoch-us", "0.005",
            "--baseline", "--no-cache",
        ])
        assert rc == 0
        assert "vs full power: " in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["sweep-alpha", "serve"])
    def test_resume_without_journal_is_rejected(self, command):
        with pytest.raises(SystemExit, match="--resume requires --journal"):
            main([command, "--resume", "--no-cache"])

    def test_figure_fig4_runs_without_simulation(self, capsys):
        assert main(["figure", "fig4"]) == 0
        out = capsys.readouterr().out
        assert "ua.D" in out and "mixG" in out

    def test_trace_command_writes_file(self, tmp_path, capsys):
        path = str(tmp_path / "out.trace")
        rc = main([
            "trace", path, "--workload", "sp.D", "--window-us", "30",
        ])
        assert rc == 0
        from repro.workloads.traces import load_trace

        assert len(load_trace(path)) > 0

    def test_run_with_trace_and_metrics(self, tmp_path, capsys):
        import json

        trace = tmp_path / "t.jsonl"
        metrics = tmp_path / "m.json"
        rc = main([
            "run", "--workload", "sp.D", "--mechanism", "VWL+ROO",
            "--policy", "aware", "--window-us", "50", "--epoch-us", "15",
            "--trace", str(trace), "--metrics-out", str(metrics),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "trace events" in out and "per-epoch metrics" in out
        events = [json.loads(l) for l in trace.read_text().splitlines()]
        kinds = {e["ev"] for e in events}
        assert "trace.begin" in kinds and "link.state" in kinds
        assert "epoch.boundary" in kinds
        assert json.loads(metrics.read_text())["counters"]["epochs"] > 0

    def test_trace_events_kind(self, tmp_path, capsys):
        path = tmp_path / "ev.jsonl"
        rc = main([
            "trace", str(path), "--kind", "events", "--workload", "sp.D",
            "--window-us", "50", "--epoch-us", "15",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "link power-state residency" in out
        assert path.exists()

    def test_batch_command(self, tmp_path, capsys):
        import json

        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "base": {"workload": "sp.D", "window_ns": 40_000.0,
                     "epoch_ns": 15_000.0},
            "grid": {"mechanism": ["FP", "VWL"],
                     "policy": ["none"]},
        }))
        out_csv = str(tmp_path / "res.csv")
        rc = main(["batch", str(spec), "--out-csv", out_csv])
        assert rc == 0
        import csv as _csv

        rows = list(_csv.DictReader(open(out_csv)))
        assert len(rows) == 2

    def test_sweep_alpha_command(self, capsys):
        rc = main([
            "sweep-alpha", "--workload", "sp.D", "--scale", "small",
            "--window-us", "40", "--epoch-us", "15",
            "--alphas", "0.05",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "power saved" in out and "Pareto" in out
