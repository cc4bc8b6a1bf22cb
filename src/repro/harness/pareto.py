"""Alpha sweeps and power/performance Pareto analysis.

Section VII-A finds the alpha at which network-aware management matches
the static baseline's average performance overhead ("by sweeping alpha
values, we found that alpha = 30 % matches..."), then compares power at
that iso-performance point.  This module provides that machinery as a
first-class tool:

* :func:`sweep_alpha` -- run one configuration over a list of alphas,
  returning (alpha, power-saved, degradation) trade-off points;
* :func:`pareto_frontier` -- the non-dominated subset of such points;
* :func:`alpha_for_degradation` -- the largest swept alpha whose
  measured degradation stays within a target.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.harness.experiment import ExperimentConfig
from repro.harness.metrics import performance_degradation, power_reduction
from repro.harness.sweep import SweepRunner

__all__ = [
    "TradeoffPoint",
    "sweep_alpha",
    "pareto_frontier",
    "alpha_for_degradation",
    "DEFAULT_ALPHAS",
]

#: The paper's explicit alphas plus the sweep range of Section VII-A.
DEFAULT_ALPHAS: Sequence[float] = (0.025, 0.05, 0.10, 0.20, 0.30)


@dataclass(frozen=True)
class TradeoffPoint:
    """One point on the power/performance trade-off curve."""

    alpha: float
    power_saved: float
    degradation: float

    def dominates(self, other: "TradeoffPoint") -> bool:
        """More savings with no more degradation (strictly better once)."""
        return (
            self.power_saved >= other.power_saved
            and self.degradation <= other.degradation
            and (
                self.power_saved > other.power_saved
                or self.degradation < other.degradation
            )
        )


def sweep_alpha(
    runner: SweepRunner,
    config: ExperimentConfig,
    alphas: Sequence[float] = DEFAULT_ALPHAS,
) -> List[TradeoffPoint]:
    """Measure the trade-off curve of ``config`` across ``alphas``.

    Every point and the shared full-power baseline run as one batch.
    """
    *managed, baseline = runner.results(
        [config.replace(alpha=alpha) for alpha in alphas] + [config.baseline()]
    )
    return [
        TradeoffPoint(
            alpha=alpha,
            power_saved=power_reduction(baseline.network_power_w, run.network_power_w),
            degradation=performance_degradation(
                baseline.throughput_per_s, run.throughput_per_s
            ),
        )
        for alpha, run in zip(alphas, managed)
    ]


def pareto_frontier(points: Sequence[TradeoffPoint]) -> List[TradeoffPoint]:
    """Non-dominated points, sorted by increasing degradation."""
    frontier = [
        p for p in points if not any(q.dominates(p) for q in points if q is not p)
    ]
    return sorted(frontier, key=lambda p: (p.degradation, -p.power_saved))


def alpha_for_degradation(
    points: Sequence[TradeoffPoint], target_degradation: float
) -> Optional[TradeoffPoint]:
    """Most aggressive swept point within a degradation budget.

    Returns ``None`` when even the smallest alpha overshoots the target.
    """
    feasible = [p for p in points if p.degradation <= target_degradation]
    if not feasible:
        return None
    return max(feasible, key=lambda p: p.power_saved)
