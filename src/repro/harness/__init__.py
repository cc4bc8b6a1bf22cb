"""Experiment harness: runners, sweeps, metrics, figure reproduction."""

from repro.harness.builder import Simulation, SimulationBuilder
from repro.harness.executor import (
    Executor,
    ExperimentOutcome,
    FailedResult,
    ParallelExecutor,
    SerialExecutor,
)
from repro.harness.experiment import (
    ExperimentConfig,
    ExperimentResult,
    run_experiment,
)
from repro.harness.figures import FIGURE_CONFIGS, RunSettings
from repro.harness.io import (
    config_from_dict,
    config_to_dict,
    load_batch,
    result_from_cache_dict,
    result_to_cache_dict,
    result_to_dict,
    save_results_csv,
    save_results_json,
)
from repro.harness.metrics import LinkHourCollector, channel_utilization
from repro.harness.charts import histogram, line_chart
from repro.harness.multichannel import MultiChannelResult, run_multichannel
from repro.harness.pareto import (
    TradeoffPoint,
    alpha_for_degradation,
    pareto_frontier,
    sweep_alpha,
)
from repro.harness.report import format_table
from repro.harness.stats import LatencyTracker
from repro.harness.sweep import ExperimentFailedError, SweepRunner

__all__ = [
    "ExperimentConfig",
    "ExperimentResult",
    "run_experiment",
    "Simulation",
    "SimulationBuilder",
    "RunSettings",
    "FIGURE_CONFIGS",
    "SweepRunner",
    "Executor",
    "SerialExecutor",
    "ParallelExecutor",
    "FailedResult",
    "ExperimentOutcome",
    "ExperimentFailedError",
    "channel_utilization",
    "LinkHourCollector",
    "format_table",
    "line_chart",
    "histogram",
    "MultiChannelResult",
    "run_multichannel",
    "TradeoffPoint",
    "sweep_alpha",
    "pareto_frontier",
    "alpha_for_degradation",
    "LatencyTracker",
    "config_to_dict",
    "config_from_dict",
    "result_to_dict",
    "result_to_cache_dict",
    "result_from_cache_dict",
    "save_results_json",
    "save_results_csv",
    "load_batch",
]
