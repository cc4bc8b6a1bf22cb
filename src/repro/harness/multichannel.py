"""Multi-channel memory systems (the paper's explicit future work).

Section III-C: "Since different memory channels are physically
independent from one another and bandwidth utilization is often
uniformly distributed across channels by interleaving adjacent memory
across channels, we evaluate a single HMC channel with little loss of
generality; we leave the exploration of power implications of any
potential inter-channel interactions to future work."

This module implements exactly that model: a processor with ``K``
channels, each a fully independent :class:`MemoryNetwork` running the
same workload profile with a distinct seed (channel-interleaved traffic
is statistically identical across channels).  It aggregates power and
throughput and reports per-channel variation, which quantifies how much
a single-channel study under- or over-estimates a full system.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.harness.experiment import ExperimentConfig, ExperimentResult, run_experiment

__all__ = ["MultiChannelResult", "run_multichannel"]


@dataclass
class MultiChannelResult:
    """Aggregated outcome of ``K`` independent channel simulations."""

    channels: List[ExperimentResult]

    @property
    def num_channels(self) -> int:
        """Number of simulated channels."""
        return len(self.channels)

    @property
    def total_network_power_w(self) -> float:
        """System-wide memory network power across all channels."""
        return sum(c.network_power_w for c in self.channels)

    @property
    def total_throughput_per_s(self) -> float:
        """System-wide completed accesses per second."""
        return sum(c.throughput_per_s for c in self.channels)

    @property
    def total_modules(self) -> int:
        """HMC count across all channels."""
        return sum(c.num_modules for c in self.channels)

    @property
    def avg_power_per_hmc_w(self) -> float:
        """Average per-HMC power over the whole system."""
        if not self.total_modules:
            return 0.0
        return self.total_network_power_w / self.total_modules

    @property
    def idle_io_fraction(self) -> float:
        """System-wide idle-I/O share of network power."""
        total = self.total_network_power_w
        if total <= 0:
            return 0.0
        idle = sum(
            c.breakdown.watts["idle_io"] * c.num_modules for c in self.channels
        )
        return idle / total

    def channel_power_spread(self) -> float:
        """(max - min) / mean of per-channel power: inter-channel skew.

        Small values justify the paper's single-channel methodology.
        """
        powers = [c.network_power_w for c in self.channels]
        mean = sum(powers) / len(powers)
        if mean <= 0:
            return 0.0
        return (max(powers) - min(powers)) / mean


def run_multichannel(
    config: ExperimentConfig, channels: int = 4, seed_stride: int = 101
) -> MultiChannelResult:
    """Simulate ``channels`` independent channels of ``config``.

    Each channel runs the same configuration with seed
    ``config.seed + i * seed_stride`` -- channel-interleaved traffic
    makes the channels statistically identical but not bit-identical.
    """
    if channels < 1:
        raise ValueError("need at least one channel")
    results = [
        run_experiment(config.replace(seed=config.seed + i * seed_stride))
        for i in range(channels)
    ]
    return MultiChannelResult(channels=results)
