"""Streaming statistics: latency distributions and summary metrics.

The paper reports averages and maxima; real deployments care about the
tail.  :class:`LatencyTracker` subscribes to a network's read-completion
stream and keeps a bounded reservoir sample plus exact streaming moments,
from which it reports mean / std / percentiles / max.

Also provides :func:`summarize`, a small numeric summary helper used by
reports and tests.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Sequence

from repro.network.network import MemoryNetwork

__all__ = ["LatencyTracker", "summarize"]


class LatencyTracker:
    """Reservoir-sampled read-latency distribution for one network.

    Exact count/mean/max are streamed; percentiles come from a
    fixed-size uniform reservoir (default 4096 samples), which keeps
    memory bounded for arbitrarily long simulations.
    """

    def __init__(self, network: MemoryNetwork, reservoir_size: int = 4096, seed: int = 0) -> None:
        if reservoir_size < 1:
            raise ValueError("reservoir_size must be positive")
        self.reservoir_size = reservoir_size
        self._rng = random.Random(seed)
        self._reservoir: List[float] = []
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.max_ns = 0.0
        self.min_ns = math.inf
        network.read_listeners.append(self._on_complete)

    # ------------------------------------------------------------------
    def _on_complete(self, pkt, now: float) -> None:
        self.observe(now - pkt.issue_time)

    def observe(self, latency_ns: float) -> None:
        """Fold one latency sample into the tracker."""
        self.count += 1
        delta = latency_ns - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (latency_ns - self._mean)
        if latency_ns > self.max_ns:
            self.max_ns = latency_ns
        if latency_ns < self.min_ns:
            self.min_ns = latency_ns
        if len(self._reservoir) < self.reservoir_size:
            self._reservoir.append(latency_ns)
        else:
            idx = self._rng.randrange(self.count)
            if idx < self.reservoir_size:
                self._reservoir[idx] = latency_ns

    # ------------------------------------------------------------------
    @property
    def mean_ns(self) -> float:
        """Exact streaming mean."""
        return self._mean if self.count else 0.0

    @property
    def std_ns(self) -> float:
        """Exact streaming (population) standard deviation."""
        if self.count < 2:
            return 0.0
        return math.sqrt(self._m2 / self.count)

    def percentile(self, p: float) -> float:
        """Approximate percentile from the reservoir (p in [0, 100])."""
        if not 0 <= p <= 100:
            raise ValueError("percentile must be in [0, 100]")
        if not self._reservoir:
            return 0.0
        ordered = sorted(self._reservoir)
        if len(ordered) == 1:
            return ordered[0]
        rank = p / 100 * (len(ordered) - 1)
        lo = int(rank)
        hi = min(lo + 1, len(ordered) - 1)
        frac = rank - lo
        return ordered[lo] * (1 - frac) + ordered[hi] * frac

    def summary(self) -> Dict[str, float]:
        """The standard report row: count/mean/std/p50/p95/p99/max."""
        return {
            "count": float(self.count),
            "mean_ns": self.mean_ns,
            "std_ns": self.std_ns,
            "p50_ns": self.percentile(50),
            "p95_ns": self.percentile(95),
            "p99_ns": self.percentile(99),
            "max_ns": self.max_ns if self.count else 0.0,
        }


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Exact summary of a small value list (tests, reports)."""
    if not values:
        return {"count": 0.0, "mean": 0.0, "std": 0.0, "min": 0.0, "max": 0.0}
    n = len(values)
    mean = sum(values) / n
    var = sum((v - mean) ** 2 for v in values) / n
    return {
        "count": float(n),
        "mean": mean,
        "std": math.sqrt(var),
        "min": min(values),
        "max": max(values),
    }
