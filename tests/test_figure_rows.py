"""Figure rows and batching, pinned on synthetic results.

Every figure function runs on a :class:`SweepRunner` whose executor
answers each config with a seeded synthetic result (no simulation), so
the whole 13-figure suite runs in about a second.
``tests/golden/figure_rows.json`` holds ``sha256(repr(rows))`` per
figure; a change to how a figure lists or reduces its grid shows up
here as a diff.  Regenerate it only for an intentional change to the
rows, with ``PYTHONPATH=src python tests/test_figure_rows.py``.
"""

import hashlib
import json
import os
import random
from typing import List

import pytest

from repro.harness import figures as F
from repro.harness.executor import Executor
from repro.harness.experiment import ExperimentConfig, ExperimentResult
from repro.harness.metrics import UTILIZATION_BUCKETS
from repro.harness.pareto import sweep_alpha
from repro.harness.sweep import SweepRunner
from repro.power.accounting import PowerBreakdown

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden", "figure_rows.json")

#: Figure name (as in ``FIGURE_CONFIGS``) -> figure function.
FIGURES = {
    "fig5": F.fig5_power_breakdown,
    "fig6": F.fig6_modules_traversed,
    "fig8": F.fig8_idle_io_fraction,
    "fig9": F.fig9_utilization,
    "fig11": F.fig11_unaware_power,
    "fig12": F.fig12_unaware_performance,
    "fig13": F.fig13_link_hours,
    "fig15": F.fig15_aware_vs_unaware,
    "fig16": F.fig16_per_workload_savings,
    "fig17": F.fig17_aware_performance,
    "fig18": F.fig18_dvfs_sensitivity,
    "sec7": F.sec7_static_comparison,
    "hetero-depth": F.hetero_depth,
}

SETTINGS = {
    "default": F.RunSettings(),
    "seed97": F.RunSettings(seed=97, workloads=("sp.D", "mixB")),
}

#: Non-default keywords of the figure functions that take them.
KEYWORDS = {
    "fig13": dict(policy="aware", scale="small"),
    "fig16": dict(scale="small", alpha=0.025),
    "fig18": dict(alpha=0.025),
    "sec7": dict(scale="small"),
    "hetero-depth": dict(scale="small"),
}

CATEGORIES = (
    "idle_io", "active_io", "logic_leak", "logic_dyn", "dram_leak", "dram_dyn",
)


def synthetic_result(config: ExperimentConfig) -> ExperimentResult:
    """A well-formed result drawn from the config's cache key."""
    rng = random.Random(config.cache_key())
    modules = 4 if config.scale == "small" else rng.randint(9, 34)
    watts = {cat: rng.uniform(0.2, 6.0) for cat in CATEGORIES}
    reads = rng.randint(2000, 40000)
    result = ExperimentResult(
        config=config,
        num_modules=modules,
        breakdown=PowerBreakdown(watts=watts),
        throughput_per_s=rng.uniform(1e8, 2e9),
        avg_read_latency_ns=rng.uniform(40.0, 400.0),
        max_read_latency_ns=rng.uniform(400.0, 4000.0),
        channel_utilization=rng.uniform(0.0, 0.9),
        link_utilization=rng.uniform(0.0, 0.5),
        avg_modules_traversed=rng.uniform(1.0, float(modules)),
        completed_reads=reads,
        completed_writes=reads // rng.randint(2, 6),
        events_processed=rng.randint(10**5, 10**7),
    )
    if config.collect_link_hours:
        # Drawn last, so the other fields do not depend on the flag.
        result.link_hours = {
            (label, width): rng.uniform(0.0, 1e-3)
            for label, _lo, _hi in UTILIZATION_BUCKETS
            for width in range(4)
        }
    return result


class SyntheticExecutor(Executor):
    """Answers with :func:`synthetic_result`; records every batch."""

    def __init__(self) -> None:
        self.batches: List[List[ExperimentConfig]] = []

    def run_many(self, configs, on_result=None):
        configs = list(configs)
        self.batches.append(configs)
        out = []
        for index, config in enumerate(configs):
            result = synthetic_result(config)
            if on_result is not None:
                on_result(index, config, result)
            out.append(result)
        return out


def _rows(name: str, settings: F.RunSettings, **keywords):
    runner = SweepRunner(executor=SyntheticExecutor())
    return FIGURES[name](runner, settings, **keywords)


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def _key_digest(name: str, settings: F.RunSettings) -> str:
    return _digest(sorted({c.cache_key() for c in F.figure_configs(name, settings)}))


def current_digests() -> dict:
    """``{group: {figure: digest}}`` for the golden file."""
    out = {
        group: {name: _digest(_rows(name, settings)) for name in FIGURES}
        for group, settings in SETTINGS.items()
    }
    out["keywords"] = {
        name: _digest(_rows(name, SETTINGS["default"], **keywords))
        for name, keywords in KEYWORDS.items()
    }
    for group, settings in SETTINGS.items():
        out[f"{group}.keys"] = {name: _key_digest(name, settings) for name in FIGURES}
    return out


def _golden() -> dict:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


@pytest.mark.parametrize("group", sorted(SETTINGS))
@pytest.mark.parametrize("name", sorted(FIGURES))
def test_rows_match_golden(group, name):
    assert _digest(_rows(name, SETTINGS[group])) == _golden()[group][name]


@pytest.mark.parametrize("name", sorted(KEYWORDS))
def test_keyword_rows_match_golden(name):
    rows = _rows(name, SETTINGS["default"], **KEYWORDS[name])
    assert _digest(rows) == _golden()["keywords"][name]


@pytest.mark.parametrize("group", sorted(SETTINGS))
@pytest.mark.parametrize("name", sorted(FIGURES))
def test_figure_configs_key_set_matches_golden(group, name):
    assert _key_digest(name, SETTINGS[group]) == _golden()[f"{group}.keys"][name]


@pytest.mark.parametrize("group", sorted(SETTINGS))
@pytest.mark.parametrize("name", sorted(FIGURES))
def test_figure_runs_its_grid_in_one_batch(group, name):
    settings = SETTINGS[group]
    executor = SyntheticExecutor()
    FIGURES[name](SweepRunner(executor=executor), settings)
    assert len(executor.batches) == 1
    batch = [c.cache_key() for c in executor.batches[0]]
    assert len(batch) == len(set(batch))
    assert set(batch) == {c.cache_key() for c in F.figure_configs(name, settings)}


@pytest.mark.parametrize("group", sorted(SETTINGS))
def test_every_fig13_run_asks_for_link_hours(group):
    settings = SETTINGS[group]
    fig13 = {c.cache_key() for c in F.figure_configs("fig13", settings)}
    lacking = [
        (name, config.cache_key())
        for name in F.FIGURE_CONFIGS
        for config in F.figure_configs(name, settings)
        if config.cache_key() in fig13 and not config.collect_link_hours
    ]
    assert lacking == []


@pytest.mark.parametrize("group, simulations", [("default", 688), ("seed97", 344)])
def test_suite_simulates_each_key_once(group, simulations):
    runner = SweepRunner(executor=SyntheticExecutor())
    for function in FIGURES.values():
        function(runner, SETTINGS[group])
    assert runner.runs == simulations


def test_sweep_alpha_runs_points_and_baseline_in_one_batch():
    executor = SyntheticExecutor()
    config = ExperimentConfig(workload="sp.D", mechanism="VWL", policy="aware")
    alphas = (0.025, 0.05, 0.1)
    points = sweep_alpha(SweepRunner(executor=executor), config, alphas=alphas)
    assert [p.alpha for p in points] == list(alphas)
    assert len(executor.batches) == 1
    assert len(executor.batches[0]) == len(alphas) + 1


def test_run_all_counts_repeats_as_memory_hits():
    a = ExperimentConfig(workload="sp.D")
    b = a.replace(seed=2)
    runner = SweepRunner(executor=SyntheticExecutor())
    outcomes = runner.run_all([a, a, b])
    assert outcomes[0] is outcomes[1]
    assert (runner.runs, runner.memory_hits, runner.disk_hits) == (2, 1, 0)


if __name__ == "__main__":
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(current_digests(), fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {GOLDEN_PATH}")
