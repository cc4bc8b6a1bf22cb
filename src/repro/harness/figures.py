"""Per-figure reproduction logic: one function per paper artifact.

Each ``figN_*`` function assembles the runs that artifact needs (via a
shared, caching :class:`~repro.harness.sweep.SweepRunner`) and returns
structured rows mirroring the paper's plot.  The benchmark suite calls
these and prints the rows; EXPERIMENTS.md records the comparison with
the published numbers.

Simulated windows and workload subsets are controlled by
:class:`RunSettings`; the defaults are sized so the full benchmark suite
finishes in minutes on a laptop.  Set ``REPRO_BENCH_FULL=1`` for the
paper's complete 14-workload grids (slower but more faithful).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.harness.experiment import ExperimentConfig
from repro.harness.metrics import UTILIZATION_BUCKETS, performance_degradation
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
# Figures 5 / 6 / 8 / 9 -- full-power characterization
# ----------------------------------------------------------------------
def _fp_config(settings: RunSettings, workload: str, topology: str, scale: str) -> ExperimentConfig:
    return settings.base_config(
        workload=workload, topology=topology, scale=scale, mechanism="FP", policy="none"
    )


def fig5_power_breakdown(
    runner: SweepRunner, settings: RunSettings
) -> List[Tuple[str, str, Dict[str, float]]]:
    """Per-HMC power breakdown averaged over workloads.

    Rows of (scale, topology, {category: watts}), matching the Figure 5
    bars (plus a per-scale average row).
    """
    rows: List[Tuple[str, str, Dict[str, float]]] = []
    for scale in ("small", "big"):
        per_topology: List[Dict[str, float]] = []
        for topology in settings.topologies:
            acc: Dict[str, float] = {}
            for workload in settings.workloads:
                res = runner.run(_fp_config(settings, workload, topology, scale))
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


def fig6_modules_traversed(
    runner: SweepRunner, settings: RunSettings
) -> List[Tuple[str, str, str, float]]:
    """(scale, topology, workload, avg modules traversed per access)."""
    rows = []
    for scale in ("small", "big"):
        for topology in settings.topologies:
            for workload in settings.workloads:
                res = runner.run(_fp_config(settings, workload, topology, scale))
                rows.append((scale, topology, workload, res.avg_modules_traversed))
    return rows


def fig8_idle_io_fraction(
    runner: SweepRunner, settings: RunSettings
) -> List[Tuple[str, str, str, float]]:
    """(scale, topology, workload, idle-I/O fraction of network power)."""
    rows = []
    for scale in ("small", "big"):
        for topology in settings.topologies:
            for workload in settings.workloads:
                res = runner.run(_fp_config(settings, workload, topology, scale))
                rows.append((scale, topology, workload, res.idle_io_fraction))
    return rows


def fig9_utilization(
    runner: SweepRunner, settings: RunSettings
) -> List[Tuple[str, str, str, float, float]]:
    """(scale, topology, workload, channel util, avg link util)."""
    rows = []
    for scale in ("small", "big"):
        for topology in settings.topologies:
            for workload in settings.workloads:
                res = runner.run(_fp_config(settings, workload, topology, scale))
                rows.append(
                    (scale, topology, workload, res.channel_utilization, res.link_utilization)
                )
    return rows


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


def fig11_unaware_power(
    runner: SweepRunner, settings: RunSettings
) -> List[Tuple[str, str, str, float, float]]:
    """Per-HMC power under network-unaware management.

    Rows of (scale, topology, label, alpha, watts per HMC) where label
    is "FP" or the mechanism name; values average over workloads.
    """
    rows = []
    for scale in ("small", "big"):
        for topology in settings.topologies:
            fp_power = _avg(
                runner.run(_fp_config(settings, w, topology, scale)).power_per_hmc_w
                for w in settings.workloads
            )
            rows.append((scale, topology, "FP", 0.0, fp_power))
            for mechanism in _UNAWARE_MECHS:
                for alpha in _ALPHAS:
                    power = _avg(
                        runner.run(
                            _managed_config(
                                settings, w, topology, scale, mechanism, "unaware", alpha
                            )
                        ).power_per_hmc_w
                        for w in settings.workloads
                    )
                    rows.append((scale, topology, mechanism, alpha, power))
    return rows


def fig12_unaware_performance(
    runner: SweepRunner, settings: RunSettings
) -> List[Tuple[str, str, str, float, float, float]]:
    """(scale, topology, mechanism, alpha, avg degradation, max degradation)."""
    return _performance_grid(runner, settings, "unaware", _UNAWARE_MECHS, _ALPHAS)


def _performance_grid(
    runner: SweepRunner,
    settings: RunSettings,
    policy: str,
    mechanisms: Sequence[str],
    alphas: Sequence[float],
    wake_ns: float = 14.0,
) -> List[Tuple[str, str, str, float, float, float]]:
    rows = []
    for scale in ("small", "big"):
        for mechanism in mechanisms:
            for alpha in alphas:
                for topology in settings.topologies:
                    degs = [
                        runner.degradation_vs_baseline(
                            _managed_config(
                                settings, w, topology, scale, mechanism, policy, alpha, wake_ns
                            )
                        )
                        for w in settings.workloads
                    ]
                    rows.append(
                        (scale, topology, mechanism, alpha, _avg(degs), max(degs))
                    )
    return rows


# ----------------------------------------------------------------------
# Figure 13 -- link-hours by utilization and width mode
# ----------------------------------------------------------------------
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
    hours: Dict[Tuple[str, int], float] = {}
    total = 0.0
    for topology in settings.topologies:
        for workload in settings.workloads:
            config = _managed_config(
                settings, workload, topology, scale, "VWL", policy, 0.05
            ).replace(collect_link_hours=True)
            res = runner.run(config)
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
def fig15_aware_vs_unaware(
    runner: SweepRunner, settings: RunSettings
) -> List[Tuple[str, str, str, float, float]]:
    """Network power reduction of aware vs. unaware management.

    Rows of (scale, topology, mechanism, alpha, reduction fraction),
    averaged over workloads.
    """
    rows = []
    for scale in ("small", "big"):
        for mechanism in _UNAWARE_MECHS:
            for alpha in _ALPHAS:
                for topology in settings.topologies:
                    reductions = [
                        runner.compare(
                            _managed_config(
                                settings, w, topology, scale, mechanism, "aware", alpha
                            ),
                            _managed_config(
                                settings, w, topology, scale, mechanism, "unaware", alpha
                            ),
                        )
                        for w in settings.workloads
                    ]
                    rows.append((scale, topology, mechanism, alpha, _avg(reductions)))
    return rows


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
    rows = []
    for workload in settings.workloads:
        for mechanism in _UNAWARE_MECHS:
            for policy in ("unaware", "aware"):
                reductions = [
                    runner.power_reduction_vs_baseline(
                        _managed_config(
                            settings, workload, topology, scale, mechanism, policy, alpha
                        )
                    )
                    for topology in settings.topologies
                ]
                rows.append((workload, mechanism, policy, _avg(reductions)))
    return rows


def fig17_aware_performance(
    runner: SweepRunner, settings: RunSettings
) -> List[Tuple[str, str, str, float, float, float]]:
    """(scale, topology, mechanism, alpha, avg deg vs unaware, max deg vs FP)."""
    rows = []
    for scale in ("small", "big"):
        for mechanism in _UNAWARE_MECHS:
            for alpha in _ALPHAS:
                for topology in settings.topologies:
                    rel = []
                    vs_fp = []
                    for w in settings.workloads:
                        aware_cfg = _managed_config(
                            settings, w, topology, scale, mechanism, "aware", alpha
                        )
                        unaware_cfg = aware_cfg.replace(policy="unaware")
                        aware = runner.run(aware_cfg)
                        unaware = runner.run(unaware_cfg)
                        baseline = runner.run(aware_cfg.baseline())
                        rel.append(
                            performance_degradation(
                                unaware.throughput_per_s, aware.throughput_per_s
                            )
                        )
                        vs_fp.append(
                            performance_degradation(
                                baseline.throughput_per_s, aware.throughput_per_s
                            )
                        )
                    rows.append(
                        (scale, topology, mechanism, alpha, _avg(rel), max(vs_fp))
                    )
    return rows


# ----------------------------------------------------------------------
# Figure 18 -- DVFS and 20 ns ROO sensitivity
# ----------------------------------------------------------------------
def fig18_dvfs_sensitivity(
    runner: SweepRunner, settings: RunSettings, alpha: float = 0.05
) -> List[Tuple[str, str, str, float, float]]:
    """(scale, mechanism, policy, power reduction vs FP, degradation vs FP).

    Mechanisms: DVFS, ROO with 20 ns wakeup, DVFS+ROO(20 ns); averaged
    over topologies and workloads.
    """
    rows = []
    grid = (("DVFS", 14.0), ("ROO", 20.0), ("DVFS+ROO", 20.0))
    for scale in ("small", "big"):
        for mechanism, wake in grid:
            for policy in ("unaware", "aware"):
                reductions = []
                degs = []
                for topology in settings.topologies:
                    for w in settings.workloads:
                        config = _managed_config(
                            settings, w, topology, scale, mechanism, policy, alpha, wake
                        )
                        reductions.append(runner.power_reduction_vs_baseline(config))
                        degs.append(runner.degradation_vs_baseline(config))
                label = f"{mechanism}@{int(wake)}ns" if mechanism != "DVFS" else mechanism
                rows.append((scale, label, policy, _avg(reductions), _avg(degs)))
    return rows


# ----------------------------------------------------------------------
# Section VII-A -- static fat/tapered baseline
# ----------------------------------------------------------------------
def sec7_static_comparison(
    runner: SweepRunner, settings: RunSettings, scale: str = "big"
) -> Dict[str, float]:
    """Static selection + interleaving vs. network-aware at alpha=30 %.

    Returns summary statistics: average/worst-case degradation of the
    static scheme, average degradation and relative power advantage of
    network-aware management at the matching performance point.
    """
    static_degs: List[float] = []
    static_power: List[float] = []
    aware_degs: List[float] = []
    aware_power: List[float] = []
    for topology in settings.topologies:
        for workload in settings.workloads:
            static_cfg = settings.base_config(
                workload=workload,
                topology=topology,
                scale=scale,
                mechanism="VWL",
                policy="static",
                mapping="interleaved",
            )
            static_degs.append(runner.degradation_vs_baseline(static_cfg))
            static_power.append(runner.run(static_cfg).network_power_w)
            aware_cfg = settings.base_config(
                workload=workload,
                topology=topology,
                scale=scale,
                mechanism="VWL",
                policy="aware",
                alpha=0.30,
            )
            aware_degs.append(runner.degradation_vs_baseline(aware_cfg))
            aware_power.append(runner.run(aware_cfg).network_power_w)
    top_quarter = max(1, len(static_degs) // 4)
    worst_static = sorted(static_degs, reverse=True)[:top_quarter]
    worst_aware = sorted(aware_degs, reverse=True)[:top_quarter]
    total_static = sum(static_power)
    total_aware = sum(aware_power)
    return {
        "static_avg_degradation": _avg(static_degs),
        "static_max_degradation": max(static_degs),
        "static_top_quarter_degradation": _avg(worst_static),
        "aware_avg_degradation": _avg(aware_degs),
        "aware_max_degradation": max(aware_degs),
        "aware_top_quarter_degradation": _avg(worst_aware),
        "aware_power_reduction_vs_static": (
            1.0 - total_aware / total_static if total_static > 0 else 0.0
        ),
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


def _hetero_config(
    settings: RunSettings,
    workload: str,
    topology: str,
    mechanism: str,
    overrides: str,
    policy: str,
    scale: str = "big",
    alpha: float = 0.05,
) -> ExperimentConfig:
    return settings.base_config(
        workload=workload,
        topology=topology,
        scale=scale,
        mechanism=mechanism,
        mechanism_overrides=overrides,
        policy=policy,
        alpha=alpha,
    )


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
    for topology in settings.topologies:
        for label, mechanism, overrides, policy in HETERO_DEPTH_SERIES:
            reductions = []
            degs = []
            for workload in settings.workloads:
                config = _hetero_config(
                    settings, workload, topology, mechanism, overrides, policy,
                    scale=scale,
                )
                reductions.append(runner.power_reduction_vs_baseline(config))
                degs.append(runner.degradation_vs_baseline(config))
            rows.append(
                (topology, label, overrides, _avg(reductions), _avg(degs), max(degs))
            )
    return rows


def _avg(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


# ----------------------------------------------------------------------
# Config enumeration: every simulation a figure needs, up front
# ----------------------------------------------------------------------
# The figure functions above pull runs from the runner one at a time,
# which serializes them even under a ParallelExecutor.  These
# enumerators list each figure's full grid (duplicates are fine -- the
# runner dedupes by cache key) so callers can batch-prefetch with
# ``runner.run_all(figure_configs(name, settings))`` and then build the
# figure entirely from cache.

def _fp_grid(settings: RunSettings) -> List[ExperimentConfig]:
    return [
        _fp_config(settings, workload, topology, scale)
        for scale in ("small", "big")
        for topology in settings.topologies
        for workload in settings.workloads
    ]


def _managed_grid(
    settings: RunSettings,
    policies: Sequence[str],
    mechanisms: Sequence[str] = _UNAWARE_MECHS,
    alphas: Sequence[float] = _ALPHAS,
    wake_ns: float = 14.0,
    with_baselines: bool = False,
) -> List[ExperimentConfig]:
    out: List[ExperimentConfig] = []
    for scale in ("small", "big"):
        for topology in settings.topologies:
            for workload in settings.workloads:
                for mechanism in mechanisms:
                    for policy in policies:
                        for alpha in alphas:
                            cfg = _managed_config(
                                settings, workload, topology, scale,
                                mechanism, policy, alpha, wake_ns,
                            )
                            out.append(cfg)
                            if with_baselines:
                                out.append(cfg.baseline())
    return out


def _fig13_grid(settings: RunSettings) -> List[ExperimentConfig]:
    return [
        _managed_config(
            settings, workload, topology, "big", "VWL", "unaware", 0.05
        ).replace(collect_link_hours=True)
        for topology in settings.topologies
        for workload in settings.workloads
    ]


def _fig16_grid(settings: RunSettings) -> List[ExperimentConfig]:
    out: List[ExperimentConfig] = []
    for workload in settings.workloads:
        for mechanism in _UNAWARE_MECHS:
            for policy in ("unaware", "aware"):
                for topology in settings.topologies:
                    cfg = _managed_config(
                        settings, workload, topology, "big", mechanism, policy, 0.05
                    )
                    out += [cfg, cfg.baseline()]
    return out


def _fig18_grid(settings: RunSettings) -> List[ExperimentConfig]:
    out: List[ExperimentConfig] = []
    for scale in ("small", "big"):
        for mechanism, wake in (("DVFS", 14.0), ("ROO", 20.0), ("DVFS+ROO", 20.0)):
            for policy in ("unaware", "aware"):
                for topology in settings.topologies:
                    for workload in settings.workloads:
                        cfg = _managed_config(
                            settings, workload, topology, scale,
                            mechanism, policy, 0.05, wake,
                        )
                        out += [cfg, cfg.baseline()]
    return out


def _hetero_depth_grid(settings: RunSettings) -> List[ExperimentConfig]:
    out: List[ExperimentConfig] = []
    for topology in settings.topologies:
        for _label, mechanism, overrides, policy in HETERO_DEPTH_SERIES:
            for workload in settings.workloads:
                cfg = _hetero_config(
                    settings, workload, topology, mechanism, overrides, policy
                )
                out += [cfg, cfg.baseline()]
    return out


def _sec7_grid(settings: RunSettings) -> List[ExperimentConfig]:
    out: List[ExperimentConfig] = []
    for topology in settings.topologies:
        for workload in settings.workloads:
            static_cfg = settings.base_config(
                workload=workload, topology=topology, scale="big",
                mechanism="VWL", policy="static", mapping="interleaved",
            )
            aware_cfg = settings.base_config(
                workload=workload, topology=topology, scale="big",
                mechanism="VWL", policy="aware", alpha=0.30,
            )
            out += [static_cfg, static_cfg.baseline(), aware_cfg, aware_cfg.baseline()]
    return out


#: figure name -> callable(settings) listing every config it simulates.
#: fig4 is absent (it needs no simulation).
FIGURE_CONFIGS: Dict[str, Callable[[RunSettings], List[ExperimentConfig]]] = {
    "fig5": _fp_grid,
    "fig6": _fp_grid,
    "fig8": _fp_grid,
    "fig9": _fp_grid,
    "fig11": lambda s: _fp_grid(s) + _managed_grid(s, ("unaware",)),
    "fig12": lambda s: _managed_grid(s, ("unaware",), with_baselines=True),
    "fig13": _fig13_grid,
    "fig15": lambda s: _managed_grid(s, ("aware", "unaware")),
    "fig16": _fig16_grid,
    "fig17": lambda s: _managed_grid(s, ("aware", "unaware"), with_baselines=True),
    "fig18": _fig18_grid,
    "sec7": _sec7_grid,
    "hetero-depth": _hetero_depth_grid,
}


def figure_configs(name: str, settings: RunSettings) -> List[ExperimentConfig]:
    """All configs ``figure(name)`` will request (may contain aliases)."""
    enumerate_fn = FIGURE_CONFIGS.get(name)
    return list(enumerate_fn(settings)) if enumerate_fn is not None else []
