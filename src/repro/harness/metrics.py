"""Measurement helpers: utilizations, hops, link-hours, degradation.

These compute the derived quantities the paper's figures plot from raw
simulation state:

* **channel utilization** (Figure 9): bytes moved over the processor's
  full link divided by its two-directional capacity;
* **link utilization** (Figure 9): mean busy fraction across all links;
* **modules traversed per access** (Figure 6);
* **link-hours by utilization and width mode** (Figure 13);
* **performance degradation** between a managed run and its full-power
  baseline (Figures 12/17/18);
* **power reduction** of a managed run against a reference run
  (Figures 15/16/18).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Tuple

from repro.core.mechanisms import CHANNEL_BYTES_PER_NS
from repro.network.links import LinkController
from repro.network.network import MemoryNetwork
from repro.network.packets import FLIT_BYTES

__all__ = [
    "channel_utilization",
    "avg_link_utilization",
    "avg_modules_traversed",
    "LinkHourCollector",
    "UTILIZATION_BUCKETS",
    "performance_degradation",
    "power_reduction",
]

#: Figure 13's utilization buckets: (label, low, high].
UTILIZATION_BUCKETS: Tuple[Tuple[str, float, float], ...] = (
    ("0-1%", 0.00, 0.01),
    ("1-5%", 0.01, 0.05),
    ("5-10%", 0.05, 0.10),
    ("10-20%", 0.10, 0.20),
    ("20-100%", 0.20, 1.01),
)


def channel_utilization(network: MemoryNetwork, window_ns: float) -> float:
    """Bandwidth utilization of the processor's full link (Figure 9)."""
    if window_ns <= 0:
        return 0.0
    flits = network.channel_req.flits_tx + network.channel_resp.flits_tx
    moved = flits * FLIT_BYTES
    capacity = 2 * CHANNEL_BYTES_PER_NS * window_ns
    return moved / capacity


def avg_link_utilization(network: MemoryNetwork, window_ns: float) -> float:
    """Mean busy fraction over all unidirectional links (Figure 9)."""
    if window_ns <= 0:
        return 0.0
    links = network.all_links()
    return sum(l.busy_time_ns for l in links) / (len(links) * window_ns)


def avg_modules_traversed(network: MemoryNetwork) -> float:
    """Average modules traversed per memory access (Figure 6)."""
    total = network.injected_reads + network.injected_writes
    if not total:
        return 0.0
    return network.sum_traversals / total


def bucket_of(utilization: float) -> str:
    """Figure 13 bucket label for a link utilization value."""
    for label, low, high in UTILIZATION_BUCKETS:
        if low <= utilization < high:
            return label
    return UTILIZATION_BUCKETS[-1][0]


@dataclass
class LinkHourCollector:
    """Accumulates Figure 13's (utilization-bucket x width-mode) hours.

    Append to a management policy's ``epoch_observers``; at every epoch
    boundary each link contributes its per-width-mode time to the bucket
    matching its utilization that epoch.
    """

    #: hours[(bucket_label, width_index)] -> accumulated link-time (ns).
    hours: Dict[Tuple[str, int], float] = field(default_factory=dict)
    total_ns: float = 0.0

    def __call__(self, links: Iterable[LinkController], epoch_ns: float) -> None:
        for link in links:
            label = bucket_of(link.current_utilization(epoch_ns))
            for width_idx, t in enumerate(link.ep_mode_time_ns):
                if t <= 0:
                    continue
                key = (label, width_idx)
                self.hours[key] = self.hours.get(key, 0.0) + t
                self.total_ns += t

    def fractions(self) -> Dict[Tuple[str, int], float]:
        """Normalized link-hour fractions (the y-axis of Figure 13)."""
        if self.total_ns <= 0:
            return {}
        return {k: v / self.total_ns for k, v in self.hours.items()}


def performance_degradation(baseline_throughput: float, managed_throughput: float) -> float:
    """Throughput loss of a managed run vs. its full-power baseline.

    Positive values mean the managed run was slower; small negative
    values can occur from simulation noise and are reported as-is.
    """
    if baseline_throughput <= 0:
        return 0.0
    return (baseline_throughput - managed_throughput) / baseline_throughput


def power_reduction(reference_w: float, managed_w: float) -> float:
    """Fraction of a reference run's power that a managed run saves.

    0.0 when the reference draws no power.
    """
    if reference_w <= 0:
        return 0.0
    return 1.0 - managed_w / reference_w
