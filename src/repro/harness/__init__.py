"""Experiment harness: runners, sweeps, metrics, figure reproduction."""

from repro.harness.builder import Simulation, SimulationBuilder
from repro.harness.executor import (
    Executor,
    ExperimentOutcome,
    FailedResult,
    ParallelExecutor,
    SerialExecutor,
    make_executor,
)
from repro.harness.experiment import (
    ExperimentConfig,
    ExperimentResult,
    OBSERVABILITY_FIELDS,
    POLICY_NAMES,
    run_experiment,
)
from repro.harness.figures import FIGURE_CONFIGS, RunSettings, figure_configs
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
from repro.harness.metrics import (
    LinkHourCollector,
    UTILIZATION_BUCKETS,
    avg_link_utilization,
    avg_modules_traversed,
    channel_utilization,
    performance_degradation,
)
from repro.harness.charts import bar_chart, histogram, line_chart, stacked_bar_chart
from repro.harness.multichannel import MultiChannelResult, run_multichannel
from repro.harness.pareto import (
    DEFAULT_ALPHAS,
    TradeoffPoint,
    alpha_for_degradation,
    pareto_frontier,
    sweep_alpha,
)
from repro.harness.report import format_percent, format_table, format_watts, print_table
from repro.harness.stats import LatencyTracker, summarize
from repro.harness.journal import SweepJournal
from repro.harness.sweep import ExperimentFailedError, SweepRunner, grid_configs

__all__ = [
    "ExperimentConfig",
    "ExperimentResult",
    "run_experiment",
    "Simulation",
    "SimulationBuilder",
    "POLICY_NAMES",
    "OBSERVABILITY_FIELDS",
    "RunSettings",
    "FIGURE_CONFIGS",
    "figure_configs",
    "SweepRunner",
    "grid_configs",
    "Executor",
    "SerialExecutor",
    "ParallelExecutor",
    "make_executor",
    "FailedResult",
    "ExperimentOutcome",
    "ExperimentFailedError",
    "SweepJournal",
    "channel_utilization",
    "avg_link_utilization",
    "avg_modules_traversed",
    "performance_degradation",
    "LinkHourCollector",
    "UTILIZATION_BUCKETS",
    "format_table",
    "format_percent",
    "format_watts",
    "print_table",
    "bar_chart",
    "stacked_bar_chart",
    "line_chart",
    "histogram",
    "MultiChannelResult",
    "run_multichannel",
    "TradeoffPoint",
    "sweep_alpha",
    "pareto_frontier",
    "alpha_for_degradation",
    "DEFAULT_ALPHAS",
    "LatencyTracker",
    "summarize",
    "config_to_dict",
    "config_from_dict",
    "result_to_dict",
    "result_to_cache_dict",
    "result_from_cache_dict",
    "save_results_json",
    "save_results_csv",
    "load_batch",
]
