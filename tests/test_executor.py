"""Tests for the execution layer: serial/parallel executors.

The acceptance bar: a ParallelExecutor-backed SweepRunner must produce
results identical to serial on a fig15-style grid, and the executor must
not break the engine's seed-determinism.
"""

import pytest

from repro.harness.executor import (
    Executor,
    ParallelExecutor,
    SerialExecutor,
    make_executor,
)
from repro.harness.experiment import ExperimentConfig
from repro.harness.figures import RunSettings, figure_configs
from repro.harness.io import result_to_dict
from repro.harness.sweep import SweepRunner

FAST = dict(window_ns=40_000.0, epoch_ns=15_000.0)

#: A scaled-down fig15 grid: 1 workload x 1 topology still spans
#: 2 scales x 3 mechanisms x 2 alphas x 2 policies = 24 configs.
TINY = RunSettings(
    workloads=("sp.D",),
    topologies=("daisychain",),
    window_ns=30_000.0,
    epoch_ns=15_000.0,
)


class TestFactory:
    def test_serial_for_one_job(self):
        assert isinstance(make_executor(1), SerialExecutor)
        assert isinstance(make_executor(0), SerialExecutor)
        assert isinstance(make_executor(None), SerialExecutor)

    def test_parallel_for_many_jobs(self):
        ex = make_executor(4)
        assert isinstance(ex, ParallelExecutor)
        assert ex.jobs == 4

    def test_workers_resolves_jobs(self):
        import os

        assert make_executor(1).workers == 1
        assert make_executor(4).workers == 4
        assert ParallelExecutor(jobs=3).workers == 3
        # jobs=0 is one worker per CPU, resolved where run_many sizes its pool.
        assert ParallelExecutor().workers == (os.cpu_count() or 1)

    def test_base_class_is_abstract(self):
        with pytest.raises(NotImplementedError):
            Executor().run_many([])


class TestSerialExecutor:
    def test_results_in_input_order(self):
        configs = [
            ExperimentConfig(workload="sp.D", seed=s, **FAST) for s in (1, 2)
        ]
        results = SerialExecutor().run_many(configs)
        assert [r.config for r in results] == configs

    def test_run_single(self):
        res = SerialExecutor().run(ExperimentConfig(workload="sp.D", **FAST))
        assert res.completed_reads > 0


class TestParallelExecutor:
    def test_single_config_runs_inline(self):
        res = ParallelExecutor(jobs=4).run_many(
            [ExperimentConfig(workload="sp.D", **FAST)]
        )
        assert len(res) == 1 and res[0].completed_reads > 0

    def test_matches_serial_bit_for_bit(self):
        """Determinism regression: executors must not perturb the engine."""
        configs = [
            ExperimentConfig(workload="sp.D", **FAST),
            ExperimentConfig(workload="sp.D", mechanism="VWL",
                             policy="unaware", **FAST),
            ExperimentConfig(workload="lu.D", mechanism="VWL+ROO",
                             policy="aware", **FAST),
            ExperimentConfig(workload="sp.D", seed=7, **FAST),
        ]
        serial = SerialExecutor().run_many(configs)
        parallel = ParallelExecutor(jobs=2).run_many(configs)
        assert [result_to_dict(r) for r in serial] == [
            result_to_dict(r) for r in parallel
        ]

    def test_link_hours_survive_pickling(self):
        cfg = ExperimentConfig(
            workload="sp.D", mechanism="VWL", policy="unaware",
            collect_link_hours=True, **FAST,
        )
        serial = SerialExecutor().run(cfg)
        parallel = ParallelExecutor(jobs=2).run_many([cfg, cfg.baseline()])[0]
        assert parallel.link_hours == serial.link_hours


class TestParallelSweep:
    def test_fig15_grid_identical_to_serial(self):
        """Acceptance: parallel fig15-style sweep == serial, bit for bit."""
        grid = figure_configs("fig15", TINY)
        assert len(grid) == 24
        serial = SweepRunner(executor=SerialExecutor()).run_all(grid)
        runner = SweepRunner(executor=ParallelExecutor(jobs=4))
        parallel = runner.run_all(grid)
        assert runner.runs == len({c.cache_key() for c in grid})
        assert [result_to_dict(r) for r in serial] == [
            result_to_dict(r) for r in parallel
        ]

    def test_instrumentation_populated(self):
        runner = SweepRunner(executor=ParallelExecutor(jobs=2))
        results = runner.run_all(
            [ExperimentConfig(workload="sp.D", seed=s, **FAST) for s in (1, 2)]
        )
        assert all(r.events_processed > 0 for r in results)
        assert all(r.wall_time_s > 0 for r in results)
        assert runner.sim_wall_time_s >= max(r.wall_time_s for r in results)
