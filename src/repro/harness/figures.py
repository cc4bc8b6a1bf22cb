"""Per-figure reproduction logic: one function per paper artifact.

Each ``figN_*`` function has one grid builder that lists the artifact's
rows, each with the configs every workload (or topology) contributes to
it.  The function runs the whole grid as one batch on a shared, caching
:class:`~repro.harness.sweep.SweepRunner` and reduces each row to the
values of the paper's plot; :data:`FIGURE_CONFIGS` flattens the same
builders.  The benchmark suite calls these and prints the rows;
EXPERIMENTS.md records the comparison with the published numbers.

Simulated windows and workload subsets are controlled by
:class:`RunSettings`; the defaults are sized so the full benchmark suite
finishes in minutes on a laptop.  Set ``REPRO_BENCH_FULL=1`` for the
paper's complete 14-workload grids (slower but more faithful).
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

from repro.harness.experiment import ExperimentConfig, ExperimentResult
from repro.harness.metrics import (
    UTILIZATION_BUCKETS,
    performance_degradation,
    power_reduction,
)
from repro.harness.sweep import SweepRunner
from repro.network.topology import TOPOLOGY_NAMES
from repro.workloads.profiles import WORKLOAD_NAMES, get_profile

__all__ = [
    "RunSettings",
    "FIGURE_CONFIGS",
    "figure_configs",
    "fig4_workload_cdfs",
    "fig5_power_breakdown",
    "fig6_modules_traversed",
    "fig8_idle_io_fraction",
    "fig9_utilization",
    "fig11_unaware_power",
    "fig12_unaware_performance",
    "fig13_link_hours",
    "fig15_aware_vs_unaware",
    "fig16_per_workload_savings",
    "fig17_aware_performance",
    "fig18_dvfs_sensitivity",
    "sec7_static_comparison",
    "hetero_depth",
    "HETERO_DEPTH_SERIES",
]

#: The subset used for heavy grids when REPRO_BENCH_FULL is unset;
#: chosen to span the utilization range (sp.D lowest, mixB highest),
#: footprints (lu.D small, is.D largest), and both workload families.
_FAST_WORKLOADS: Tuple[str, ...] = ("lu.D", "sp.D", "is.D", "mixB")


@dataclass(frozen=True)
class RunSettings:
    """Scale knobs shared by every figure function.

    The default 25 us epochs over a 500 us window give the management
    policies ~20 epochs to converge -- short windows with the paper's
    100 us epochs leave the cumulative Equation 1 budgets mostly
    unconverged and understate the achievable savings.
    """

    workloads: Tuple[str, ...] = _FAST_WORKLOADS
    topologies: Tuple[str, ...] = TOPOLOGY_NAMES
    window_ns: float = 400_000.0
    epoch_ns: float = 20_000.0
    seed: int = 1

    @classmethod
    def from_env(cls) -> "RunSettings":
        """Default settings, upgraded to the full grid when
        ``REPRO_BENCH_FULL=1`` is set in the environment."""
        if os.environ.get("REPRO_BENCH_FULL", "0") == "1":
            return cls(workloads=WORKLOAD_NAMES, window_ns=1_000_000.0, epoch_ns=50_000.0)
        return cls()

    def base_config(self, **overrides) -> ExperimentConfig:
        """An ExperimentConfig seeded with these settings."""
        defaults = dict(
            workload=self.workloads[0],
            window_ns=self.window_ns,
            epoch_ns=self.epoch_ns,
            seed=self.seed,
        )
        defaults.update(overrides)
        return ExperimentConfig(**defaults)


# ----------------------------------------------------------------------
# Figure 4 -- workload access CDFs (no simulation required)
# ----------------------------------------------------------------------
def fig4_workload_cdfs(
    workloads: Sequence[str] = WORKLOAD_NAMES, step_gb: float = 2.0
) -> List[Tuple[str, List[Tuple[float, float]]]]:
    """Cumulative access fraction by address range, per workload."""
    out = []
    for name in workloads:
        profile = get_profile(name)
        xs: List[Tuple[float, float]] = []
        gb = 0.0
        while gb < profile.footprint_gb + step_gb:
            point = min(gb, profile.footprint_gb)
            xs.append((point, profile.access_fraction_below(point)))
            if point >= profile.footprint_gb:
                break
            gb += step_gb
        out.append((name, xs))
    return out


# ----------------------------------------------------------------------
# Grid cells: each figure declares its grid once and runs it in one batch
# ----------------------------------------------------------------------
#: One row of a figure's grid: ``(row key, points)``, where each point is
#: the tuple of configs one workload (or topology) contributes to the row,
#: e.g. ``(managed, managed.baseline())``.
Cell = Tuple[tuple, List[Tuple[ExperimentConfig, ...]]]

_SCALES: Tuple[str, ...] = ("small", "big")


def _configs(cells: Sequence[Cell]) -> List[ExperimentConfig]:
    """Every config of ``cells``, in row order."""
    return [config for _key, points in cells for point in points for config in point]


def _run_cells(
    runner: SweepRunner, cells: Sequence[Cell]
) -> List[Tuple[tuple, List[Tuple[ExperimentResult, ...]]]]:
    """Run every config of ``cells`` in one batch; the cells with results.

    Raises :class:`~repro.harness.sweep.ExperimentFailedError` for the
    first failed config, once the whole batch has run.
    """
    results = iter(runner.results(_configs(cells)))
    return [
        (key, [tuple(itertools.islice(results, len(point))) for point in points])
        for key, points in cells
    ]


def _with_baseline(config: ExperimentConfig) -> Tuple[ExperimentConfig, ...]:
    return (config, config.baseline())


def _saved(managed: ExperimentResult, reference: ExperimentResult) -> float:
    """Network power ``managed`` saves against ``reference`` (fraction)."""
    return power_reduction(reference.network_power_w, managed.network_power_w)


def _degradation(managed: ExperimentResult, baseline: ExperimentResult) -> float:
    return performance_degradation(baseline.throughput_per_s, managed.throughput_per_s)


def _avg(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


# ----------------------------------------------------------------------
# Figures 5 / 6 / 8 / 9 -- full-power characterization
# ----------------------------------------------------------------------
def _fp_cells(settings: RunSettings) -> List[Cell]:
    """(scale, topology) rows of full-power runs, one per workload."""
    return [
        ((scale, topology), [
            (settings.base_config(workload=w, topology=topology, scale=scale,
                                  mechanism="FP", policy="none"),)
            for w in settings.workloads
        ])
        for scale in _SCALES
        for topology in settings.topologies
    ]


def fig5_power_breakdown(
    runner: SweepRunner, settings: RunSettings
) -> List[Tuple[str, str, Dict[str, float]]]:
    """Per-HMC power breakdown averaged over workloads.

    Rows of (scale, topology, {category: watts}), matching the Figure 5
    bars (plus a per-scale average row).
    """
    rows: List[Tuple[str, str, Dict[str, float]]] = []
    cells = _run_cells(runner, _fp_cells(settings))
    for scale, group in itertools.groupby(cells, lambda cell: cell[0][0]):
        per_topology: List[Dict[str, float]] = []
        for (_scale, topology), points in group:
            acc: Dict[str, float] = {}
            for (res,) in points:
                for cat, w in res.breakdown.watts.items():
                    acc[cat] = acc.get(cat, 0.0) + w
            n = len(settings.workloads)
            avg = {cat: w / n for cat, w in acc.items()}
            per_topology.append(avg)
            rows.append((scale, topology, avg))
        overall = {
            cat: sum(t[cat] for t in per_topology) / len(per_topology)
            for cat in per_topology[0]
        }
        rows.append((scale, "avg", overall))
    return rows


def _per_run(runner: SweepRunner, settings: RunSettings, measure) -> list:
    """(scale, topology, workload, *measure(result)) per full-power run."""
    return [
        (scale, topology, workload, *measure(res))
        for (scale, topology), points in _run_cells(runner, _fp_cells(settings))
        for workload, (res,) in zip(settings.workloads, points)
    ]


def fig6_modules_traversed(
    runner: SweepRunner, settings: RunSettings
) -> List[Tuple[str, str, str, float]]:
    """(scale, topology, workload, avg modules traversed per access)."""
    return _per_run(runner, settings, lambda res: (res.avg_modules_traversed,))


def fig8_idle_io_fraction(
    runner: SweepRunner, settings: RunSettings
) -> List[Tuple[str, str, str, float]]:
    """(scale, topology, workload, idle-I/O fraction of network power)."""
    return _per_run(runner, settings, lambda res: (res.idle_io_fraction,))


def fig9_utilization(
    runner: SweepRunner, settings: RunSettings
) -> List[Tuple[str, str, str, float, float]]:
    """(scale, topology, workload, channel util, avg link util)."""
    return _per_run(
        runner, settings, lambda res: (res.channel_utilization, res.link_utilization)
    )


# ----------------------------------------------------------------------
# Figures 11 / 12 -- network-unaware management
# ----------------------------------------------------------------------
_UNAWARE_MECHS: Tuple[str, ...] = ("VWL", "ROO", "VWL+ROO")
_ALPHAS: Tuple[float, ...] = (0.025, 0.05)


def _managed_config(
    settings: RunSettings,
    workload: str,
    topology: str,
    scale: str,
    mechanism: str,
    policy: str,
    alpha: float,
    wake_ns: float = 14.0,
) -> ExperimentConfig:
    return settings.base_config(
        workload=workload,
        topology=topology,
        scale=scale,
        mechanism=mechanism,
        policy=policy,
        alpha=alpha,
        wake_ns=wake_ns,
    )


def _fig11_cells(settings: RunSettings) -> List[Cell]:
    """(scale, topology, "FP" or mechanism, alpha) rows, one run per workload."""
    cells: List[Cell] = []
    for (scale, topology), points in _fp_cells(settings):
        cells.append(((scale, topology, "FP", 0.0), points))
        for mechanism in _UNAWARE_MECHS:
            for alpha in _ALPHAS:
                cells.append(((scale, topology, mechanism, alpha), [
                    (_managed_config(
                        settings, w, topology, scale, mechanism, "unaware", alpha
                    ),)
                    for w in settings.workloads
                ]))
    return cells


def fig11_unaware_power(
    runner: SweepRunner, settings: RunSettings
) -> List[Tuple[str, str, str, float, float]]:
    """Per-HMC power under network-unaware management.

    Rows of (scale, topology, label, alpha, watts per HMC) where label
    is "FP" or the mechanism name; values average over workloads.
    """
    return [
        (*key, _avg(res.power_per_hmc_w for (res,) in points))
        for key, points in _run_cells(runner, _fig11_cells(settings))
    ]


def _managed_cells(settings: RunSettings, policy: str, point) -> List[Cell]:
    """(scale, topology, mechanism, alpha) rows of Figs. 12, 15 and 17.

    ``point`` maps each workload's managed config (under ``policy``) to
    the configs that workload contributes to the row.
    """
    return [
        ((scale, topology, mechanism, alpha), [
            point(_managed_config(
                settings, w, topology, scale, mechanism, policy, alpha
            ))
            for w in settings.workloads
        ])
        for scale in _SCALES
        for mechanism in _UNAWARE_MECHS
        for alpha in _ALPHAS
        for topology in settings.topologies
    ]


def _fig12_cells(settings: RunSettings) -> List[Cell]:
    return _managed_cells(settings, "unaware", _with_baseline)


def fig12_unaware_performance(
    runner: SweepRunner, settings: RunSettings
) -> List[Tuple[str, str, str, float, float, float]]:
    """(scale, topology, mechanism, alpha, avg degradation, max degradation)."""
    rows = []
    for key, points in _run_cells(runner, _fig12_cells(settings)):
        degs = [_degradation(managed, baseline) for managed, baseline in points]
        rows.append((*key, _avg(degs), max(degs)))
    return rows


# ----------------------------------------------------------------------
# Figure 13 -- link-hours by utilization and width mode
# ----------------------------------------------------------------------
def _fig13_cells(
    settings: RunSettings, policy: str = "unaware", scale: str = "big"
) -> List[Cell]:
    """One row: every topology's and workload's VWL run, with link hours."""
    return [((), [
        (settings.base_config(workload=w, topology=topology, scale=scale,
                              mechanism="VWL", policy=policy, collect_link_hours=True),)
        for topology in settings.topologies
        for w in settings.workloads
    ])]


def fig13_link_hours(
    runner: SweepRunner,
    settings: RunSettings,
    policy: str = "unaware",
    scale: str = "big",
) -> Dict[str, Dict[int, float]]:
    """Fraction of link hours per (utilization bucket, width mode).

    Returns ``{bucket_label: {width_index: fraction}}`` accumulated over
    the settings' workloads and topologies for VWL links.
    """
    [(_key, points)] = _run_cells(runner, _fig13_cells(settings, policy, scale))
    hours: Dict[Tuple[str, int], float] = {}
    total = 0.0
    for (res,) in points:
        # Sorted, so a stored result (whose link hours come back
        # sorted) sums in the same order as a fresh one.
        for key, t in sorted((res.link_hours or {}).items()):
            hours[key] = hours.get(key, 0.0) + t
            total += t
    out: Dict[str, Dict[int, float]] = {
        label: {} for label, _lo, _hi in UTILIZATION_BUCKETS
    }
    if total <= 0:
        return out
    for (label, width_idx), t in hours.items():
        out[label][width_idx] = t / total
    return out


# ----------------------------------------------------------------------
# Figures 15 / 16 / 17 -- network-aware management
# ----------------------------------------------------------------------
def _fig15_cells(settings: RunSettings) -> List[Cell]:
    return _managed_cells(
        settings, "aware", lambda aware: (aware, aware.replace(policy="unaware"))
    )


def fig15_aware_vs_unaware(
    runner: SweepRunner, settings: RunSettings
) -> List[Tuple[str, str, str, float, float]]:
    """Network power reduction of aware vs. unaware management.

    Rows of (scale, topology, mechanism, alpha, reduction fraction),
    averaged over workloads.
    """
    return [
        (*key, _avg(_saved(aware, unaware) for aware, unaware in points))
        for key, points in _run_cells(runner, _fig15_cells(settings))
    ]


def _fig16_cells(
    settings: RunSettings, scale: str = "big", alpha: float = 0.05
) -> List[Cell]:
    """(workload, mechanism, policy) rows, one managed run per topology."""
    return [
        ((workload, mechanism, policy), [
            _with_baseline(_managed_config(
                settings, workload, topology, scale, mechanism, policy, alpha
            ))
            for topology in settings.topologies
        ])
        for workload in settings.workloads
        for mechanism in _UNAWARE_MECHS
        for policy in ("unaware", "aware")
    ]


def fig16_per_workload_savings(
    runner: SweepRunner,
    settings: RunSettings,
    scale: str = "big",
    alpha: float = 0.05,
) -> List[Tuple[str, str, str, float]]:
    """Power reduction vs. full power, per workload (big, alpha=5%).

    Rows of (workload, mechanism, policy, reduction fraction) averaged
    over topologies, matching Figure 16's bars.
    """
    return [
        (*key, _avg(_saved(managed, baseline) for managed, baseline in points))
        for key, points in _run_cells(runner, _fig16_cells(settings, scale, alpha))
    ]


def _fig17_cells(settings: RunSettings) -> List[Cell]:
    return _managed_cells(
        settings, "aware",
        lambda aware: (aware, aware.replace(policy="unaware"), aware.baseline()),
    )


def fig17_aware_performance(
    runner: SweepRunner, settings: RunSettings
) -> List[Tuple[str, str, str, float, float, float]]:
    """(scale, topology, mechanism, alpha, avg deg vs unaware, max deg vs FP)."""
    return [
        (
            *key,
            _avg(_degradation(aware, unaware) for aware, unaware, _fp in points),
            max(_degradation(aware, baseline) for aware, _u, baseline in points),
        )
        for key, points in _run_cells(runner, _fig17_cells(settings))
    ]


# ----------------------------------------------------------------------
# Figure 18 -- DVFS and 20 ns ROO sensitivity
# ----------------------------------------------------------------------
def _fig18_cells(settings: RunSettings, alpha: float = 0.05) -> List[Cell]:
    """(scale, mechanism label, policy) rows, one run per topology and workload."""
    return [
        ((scale, mechanism if mechanism == "DVFS" else f"{mechanism}@{int(wake)}ns", policy), [
            _with_baseline(_managed_config(
                settings, w, topology, scale, mechanism, policy, alpha, wake
            ))
            for topology in settings.topologies
            for w in settings.workloads
        ])
        for scale in _SCALES
        for mechanism, wake in (("DVFS", 14.0), ("ROO", 20.0), ("DVFS+ROO", 20.0))
        for policy in ("unaware", "aware")
    ]


def fig18_dvfs_sensitivity(
    runner: SweepRunner, settings: RunSettings, alpha: float = 0.05
) -> List[Tuple[str, str, str, float, float]]:
    """(scale, mechanism, policy, power reduction vs FP, degradation vs FP).

    Mechanisms: DVFS, ROO with 20 ns wakeup, DVFS+ROO(20 ns); averaged
    over topologies and workloads.
    """
    return [
        (
            *key,
            _avg(_saved(managed, baseline) for managed, baseline in points),
            _avg(_degradation(managed, baseline) for managed, baseline in points),
        )
        for key, points in _run_cells(runner, _fig18_cells(settings, alpha))
    ]


# ----------------------------------------------------------------------
# Section VII-A -- static fat/tapered baseline
# ----------------------------------------------------------------------
def _sec7_cells(settings: RunSettings, scale: str = "big") -> List[Cell]:
    """One row: (static, its baseline, aware at 30 %, its baseline) per run."""
    points = []
    for topology in settings.topologies:
        for workload in settings.workloads:
            static = settings.base_config(
                workload=workload, topology=topology, scale=scale,
                mechanism="VWL", policy="static", mapping="interleaved",
            )
            aware = settings.base_config(
                workload=workload, topology=topology, scale=scale,
                mechanism="VWL", policy="aware", alpha=0.30,
            )
            points.append(_with_baseline(static) + _with_baseline(aware))
    return [((), points)]


def sec7_static_comparison(
    runner: SweepRunner, settings: RunSettings, scale: str = "big"
) -> Dict[str, float]:
    """Static selection + interleaving vs. network-aware at alpha=30 %.

    Returns summary statistics: average/worst-case degradation of the
    static scheme, average degradation and relative power advantage of
    network-aware management at the matching performance point.
    """
    [(_key, points)] = _run_cells(runner, _sec7_cells(settings, scale))
    static_degs = [_degradation(static, base) for static, base, _a, _ab in points]
    aware_degs = [_degradation(aware, base) for _s, _sb, aware, base in points]
    top_quarter = max(1, len(static_degs) // 4)
    worst_static = sorted(static_degs, reverse=True)[:top_quarter]
    worst_aware = sorted(aware_degs, reverse=True)[:top_quarter]
    total_static = sum(static.network_power_w for static, _sb, _a, _ab in points)
    total_aware = sum(aware.network_power_w for _s, _sb, aware, _ab in points)
    return {
        "static_avg_degradation": _avg(static_degs),
        "static_max_degradation": max(static_degs),
        "static_top_quarter_degradation": _avg(worst_static),
        "aware_avg_degradation": _avg(aware_degs),
        "aware_max_degradation": max(aware_degs),
        "aware_top_quarter_degradation": _avg(worst_aware),
        "aware_power_reduction_vs_static": power_reduction(total_static, total_aware),
    }


# ----------------------------------------------------------------------
# Beyond the paper -- heterogeneous per-depth mechanism staging
# ----------------------------------------------------------------------
#: (label, base mechanism, mechanism_overrides spec, policy) series
#: compared by :func:`hetero_depth`.  The paper only evaluates
#: homogeneous networks; the two staged mixes use the override layer to
#: manage deep (cold, Figure 13) links aggressively while pinning the
#: processor-adjacent links, where utilization concentrates (Figure 9),
#: at full power.
HETERO_DEPTH_SERIES: Tuple[Tuple[str, str, str, str], ...] = (
    ("FP", "FP", "", "none"),
    ("VWL+ROO", "VWL+ROO", "", "aware"),
    ("deep-managed", "FP", "depth>=2:VWL+ROO", "aware"),
    ("root-pinned", "VWL+ROO", "depth<=1:FP", "aware"),
)


def _hetero_depth_cells(settings: RunSettings, scale: str = "big") -> List[Cell]:
    """(topology, series label, override spec) rows, one run per workload."""
    return [
        ((topology, label, overrides), [
            _with_baseline(settings.base_config(
                workload=w, topology=topology, scale=scale, mechanism=mechanism,
                mechanism_overrides=overrides, policy=policy, alpha=0.05,
            ))
            for w in settings.workloads
        ])
        for topology in settings.topologies
        for label, mechanism, overrides, policy in HETERO_DEPTH_SERIES
    ]


def hetero_depth(
    runner: SweepRunner, settings: RunSettings, scale: str = "big"
) -> List[Tuple[str, str, str, float, float, float]]:
    """Homogeneous FP / VWL+ROO vs depth-staged mechanism mixes.

    Rows of (topology, series label, override spec, avg power reduction
    vs FP, avg degradation vs FP, max degradation vs FP), averaged over
    the settings' workloads on the big-scale networks, where depth
    differentiation is largest.
    """
    rows = []
    for key, points in _run_cells(runner, _hetero_depth_cells(settings, scale)):
        degs = [_degradation(managed, baseline) for managed, baseline in points]
        saved = [_saved(managed, baseline) for managed, baseline in points]
        rows.append((*key, _avg(saved), _avg(degs), max(degs)))
    return rows


#: figure name -> callable(settings) listing every config the figure
#: function runs at its default keywords, in row order.  fig4 is absent
#: (it needs no simulation).
FIGURE_CONFIGS: Dict[str, Callable[[RunSettings], List[ExperimentConfig]]] = {
    "fig5": lambda s: _configs(_fp_cells(s)),
    "fig6": lambda s: _configs(_fp_cells(s)),
    "fig8": lambda s: _configs(_fp_cells(s)),
    "fig9": lambda s: _configs(_fp_cells(s)),
    "fig11": lambda s: _configs(_fig11_cells(s)),
    "fig12": lambda s: _configs(_fig12_cells(s)),
    "fig13": lambda s: _configs(_fig13_cells(s)),
    "fig15": lambda s: _configs(_fig15_cells(s)),
    "fig16": lambda s: _configs(_fig16_cells(s)),
    "fig17": lambda s: _configs(_fig17_cells(s)),
    "fig18": lambda s: _configs(_fig18_cells(s)),
    "sec7": lambda s: _configs(_sec7_cells(s)),
    "hetero-depth": lambda s: _configs(_hetero_depth_cells(s)),
}


def figure_configs(name: str, settings: RunSettings) -> List[ExperimentConfig]:
    """Every config the figure ``name`` runs (may repeat a cache key)."""
    enumerate_fn = FIGURE_CONFIGS.get(name)
    return enumerate_fn(settings) if enumerate_fn is not None else []
