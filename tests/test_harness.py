"""Tests for the experiment runner, sweeps, and report formatting."""

import pytest

from repro.core.policy import POLICY_NAMES
from repro.harness.experiment import ExperimentConfig, run_experiment
from repro.harness.report import format_percent, format_table, format_watts
from repro.harness.sweep import SweepRunner, grid_configs

FAST = dict(window_ns=60_000.0, epoch_ns=15_000.0)


class TestConfigValidation:
    def test_defaults(self):
        cfg = ExperimentConfig(workload="lu.D")
        assert cfg.policy == "none" and cfg.mechanism == "FP"
        assert cfg.scale == "small"

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(workload="lu.D", policy="magic")

    def test_unknown_mechanism_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(workload="lu.D", mechanism="SLEEPY")

    def test_bad_scale_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(workload="lu.D", scale="medium")

    def test_bad_mapping_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(workload="lu.D", mapping="random")

    def test_zero_window_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(workload="lu.D", window_ns=0)

    @pytest.mark.parametrize(
        "field, value, error",
        [
            ("mechanism", None, AttributeError),
            ("mechanism", ["FP"], AttributeError),
            ("policy", None, ValueError),
            ("policy", ["aware"], TypeError),
            ("mapping", {"a": 1}, TypeError),
            ("trace_format", None, ValueError),
            ("trace_categories", "bogus", ValueError),
        ],
    )
    def test_malformed_names_keep_their_errors(self, field, value, error):
        """Non-string or unknown names fail as the registries always did."""
        with pytest.raises(error):
            ExperimentConfig(workload="lu.D", **{field: value})

    def test_replace(self):
        cfg = ExperimentConfig(workload="lu.D")
        other = cfg.replace(alpha=0.1)
        assert other.alpha == 0.1 and cfg.alpha == 0.05

    def test_replace_round_trips_and_rejects_unknown_fields(self):
        cfg = ExperimentConfig(workload="lu.D", mechanism="VWL", policy="aware")
        assert cfg.replace(alpha=0.1).replace(alpha=0.05) == cfg
        assert cfg.replace().cache_key() == cfg.cache_key()
        with pytest.raises(TypeError, match="frobnicate"):
            cfg.replace(frobnicate=1)

    def test_baseline_strips_management(self):
        cfg = ExperimentConfig(
            workload="lu.D", mechanism="VWL+ROO", policy="aware", alpha=0.1
        )
        base = cfg.baseline()
        assert base.mechanism == "FP" and base.policy == "none"
        assert base.workload == cfg.workload
        assert base.window_ns == cfg.window_ns

    def test_mechanism_case_canonicalized(self):
        cfg = ExperimentConfig(workload="lu.D", mechanism="vwl+roo")
        assert cfg.mechanism == "VWL+ROO"
        assert cfg == ExperimentConfig(workload="lu.D", mechanism="VWL+ROO")
        assert hash(cfg) == hash(ExperimentConfig(workload="lu.D", mechanism="VWL+ROO"))

    def test_cache_key_ignores_observability(self):
        cfg = ExperimentConfig(workload="lu.D", mechanism="VWL", policy="unaware")
        assert cfg.cache_key() == cfg.replace(collect_link_hours=True).cache_key()
        assert cfg.cache_key() != cfg.replace(alpha=0.1).cache_key()

    def test_config_hashable(self):
        a = ExperimentConfig(workload="lu.D")
        b = ExperimentConfig(workload="lu.D")
        assert a == b and hash(a) == hash(b)

    def test_policy_names(self):
        assert set(POLICY_NAMES) == {"none", "unaware", "aware", "static"}


class TestRunExperiment:
    def test_result_fields_populated(self):
        res = run_experiment(ExperimentConfig(workload="lu.D", **FAST))
        assert res.num_modules == 3
        assert res.completed_reads > 0
        assert res.power_per_hmc_w > 0
        assert res.network_power_w == pytest.approx(res.power_per_hmc_w * 3)
        assert 0 < res.idle_io_fraction < 1
        assert res.avg_read_latency_ns > 30.0

    def test_managed_run_reports_epochs(self):
        res = run_experiment(
            ExperimentConfig(workload="lu.D", mechanism="VWL", policy="unaware", **FAST)
        )
        assert res.epochs == 3

    def test_link_hours_collected_when_requested(self):
        res = run_experiment(
            ExperimentConfig(
                workload="lu.D", mechanism="VWL", policy="unaware",
                collect_link_hours=True, **FAST,
            )
        )
        assert res.link_hours

    def test_link_hours_absent_by_default(self):
        res = run_experiment(ExperimentConfig(workload="lu.D", **FAST))
        assert res.link_hours is None

    def test_interleaved_mapping_runs(self):
        res = run_experiment(
            ExperimentConfig(workload="lu.D", mapping="interleaved", **FAST)
        )
        assert res.completed_reads > 0

    def test_big_scale_uses_more_modules(self):
        small = run_experiment(ExperimentConfig(workload="lu.D", **FAST))
        big = run_experiment(ExperimentConfig(workload="lu.D", scale="big", **FAST))
        assert big.num_modules == 9 and small.num_modules == 3

    def test_determinism(self):
        cfg = ExperimentConfig(workload="sp.D", seed=5, **FAST)
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        assert a.completed_reads == b.completed_reads
        assert a.breakdown.watts == b.breakdown.watts


class TestSweepRunner:
    def test_cache_hits(self):
        runner = SweepRunner()
        cfg = ExperimentConfig(workload="sp.D", **FAST)
        runner.run(cfg)
        runner.run(cfg)
        assert runner.runs == 1

    def test_run_with_baseline(self):
        runner = SweepRunner()
        cfg = ExperimentConfig(workload="sp.D", mechanism="VWL", policy="unaware", **FAST)
        managed, baseline = runner.run_with_baseline(cfg)
        assert baseline.config.mechanism == "FP"
        assert runner.runs == 2

    def test_power_reduction_sign(self):
        runner = SweepRunner()
        cfg = ExperimentConfig(
            workload="sp.D", mechanism="VWL+ROO", policy="aware",
            window_ns=100_000.0, epoch_ns=20_000.0,
        )
        reduction = runner.power_reduction_vs_baseline(cfg)
        assert 0.0 < reduction < 1.0

    def test_compare_same_config_is_zero(self):
        runner = SweepRunner()
        cfg = ExperimentConfig(workload="sp.D", **FAST)
        assert runner.compare(cfg, cfg) == 0.0

    def test_grid_configs_cartesian(self):
        base = ExperimentConfig(workload="lu.D", **FAST)
        grid = grid_configs(
            base,
            workloads=["lu.D", "sp.D"],
            mechanisms=["VWL", "ROO"],
            alphas=[0.025, 0.05],
        )
        assert len(grid) == 8
        assert len(set(grid)) == 8

    def test_grid_configs_empty_axes_keep_base(self):
        base = ExperimentConfig(workload="lu.D", **FAST)
        grid = grid_configs(base)
        assert grid == [base]


class TestReport:
    def test_format_percent(self):
        assert format_percent(0.234) == "23.4%"
        assert format_percent(0.005, digits=2) == "0.50%"

    def test_format_watts(self):
        assert format_watts(1.2345) == "1.23 W"

    def test_format_table_aligns(self):
        table = format_table(
            ["name", "value"], [["a", 1], ["long-name", 22]], title="T"
        )
        lines = table.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[2]
        assert len({len(l) for l in lines[3:]}) >= 1  # renders without error

    def test_format_table_empty_rows(self):
        table = format_table(["h1"], [])
        assert "h1" in table
