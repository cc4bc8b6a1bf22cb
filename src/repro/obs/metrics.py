"""Metrics: named counters, gauges, and histograms with epoch snapshots.

A :class:`MetricsRegistry` owns every instrument created through it and
can snapshot the whole set -- :meth:`MetricsRegistry.mark_epoch` appends
a per-epoch record carrying each counter's *delta* since the previous
epoch alongside the running totals, which is how "per-epoch aggregated"
metrics are produced without the instruments themselves knowing about
epochs.

:class:`EpochLinkMetrics` is the stock bridge between a management
policy's ``epoch_observers`` and a registry: at every epoch
boundary it folds the link-controller epoch counters (busy time, flits,
reads, utilization) into the registry and marks the epoch.
"""

from __future__ import annotations

import json
from typing import Dict, List, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "StateGauge",
    "MetricsRegistry",
    "EpochLinkMetrics",
]


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative) to the total."""
        if amount < 0:
            raise ValueError(f"counter {self.name}: negative increment {amount}")
        self.value += amount


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        """Record the current value."""
        self.value = value


class Histogram:
    """Fixed-bucket histogram: counts of observations per bucket.

    ``edges`` are ascending upper bounds; an observation lands in the
    first bucket whose edge is >= the value, or the overflow bucket.
    """

    __slots__ = ("name", "edges", "counts", "total", "sum")

    def __init__(self, name: str, edges: Sequence[float]) -> None:
        if list(edges) != sorted(edges):
            raise ValueError(f"histogram {name}: edges must ascend")
        self.name = name
        self.edges = tuple(edges)
        self.counts = [0] * (len(self.edges) + 1)
        self.total = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        """Record one observation."""
        for i, edge in enumerate(self.edges):
            if value <= edge:
                self.counts[i] += 1
                break
        else:
            self.counts[-1] += 1
        self.total += 1
        self.sum += value

    @property
    def mean(self) -> float:
        """Mean of all observations (0.0 when empty)."""
        return self.sum / self.total if self.total else 0.0

    def quantile(self, q: float) -> float:
        """Upper-edge estimate of the ``q``-quantile (0 <= q <= 1).

        Returns the upper edge of the first bucket whose cumulative
        count reaches ``q * total`` -- a conservative (never
        underestimating within bucket resolution) answer suitable for
        p50/p95 service latencies.  Observations in the overflow bucket
        clamp to the last finite edge; an empty histogram reports 0.0.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"histogram {self.name}: quantile {q} not in [0, 1]")
        if self.total == 0:
            return 0.0
        target = q * self.total
        cumulative = 0
        for i, count in enumerate(self.counts[:-1]):
            cumulative += count
            if cumulative >= target:
                return self.edges[i]
        return self.edges[-1]

    def as_dict(self) -> Dict:
        """JSON-safe summary: edges, per-bucket counts, total, mean."""
        return {
            "edges": list(self.edges),
            "counts": list(self.counts),
            "total": self.total,
            "mean": self.mean,
        }


class StateGauge:
    """A gauge constrained to an ordered, finite set of named states.

    Components with a small state machine (the serve supervisor's
    ``healthy | degraded | draining | unhealthy``, a circuit breaker's
    ``closed | open | half_open``) export both the human-readable state
    string and a stable numeric value (the state's index in ``states``)
    so dashboards can graph transitions without string parsing.
    """

    __slots__ = ("name", "states", "state")

    def __init__(self, name: str, states: Sequence[str]) -> None:
        if not states or len(set(states)) != len(states):
            raise ValueError(
                f"state gauge {name}: states must be non-empty and unique"
            )
        self.name = name
        self.states = tuple(states)
        self.state = self.states[0]

    def set_state(self, state: str) -> None:
        """Record the current state (must be one of ``states``)."""
        if state not in self.states:
            raise ValueError(
                f"state gauge {self.name}: unknown state {state!r} "
                f"(expected one of {self.states})"
            )
        self.state = state

    @property
    def value(self) -> float:
        """The current state's index in ``states`` (as a float)."""
        return float(self.states.index(self.state))

    def as_dict(self) -> Dict:
        """JSON-safe summary: current state, numeric value, state set."""
        return {
            "state": self.state,
            "value": self.value,
            "states": list(self.states),
        }


class MetricsRegistry:
    """Creates, owns, and snapshots counters/gauges/histograms.

    Instruments are identified by name; asking twice returns the same
    object, so call sites need no shared references.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._states: Dict[str, StateGauge] = {}
        self.epochs: List[Dict] = []
        self._last_totals: Dict[str, float] = {}

    def counter(self, name: str) -> Counter:
        """Get or create the counter called ``name``."""
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = Counter(name)
        return c

    def gauge(self, name: str) -> Gauge:
        """Get or create the gauge called ``name``."""
        g = self._gauges.get(name)
        if g is None:
            g = self._gauges[name] = Gauge(name)
        return g

    def histogram(self, name: str, edges: Sequence[float]) -> Histogram:
        """Get or create the histogram called ``name`` with ``edges``."""
        h = self._histograms.get(name)
        if h is None:
            h = self._histograms[name] = Histogram(name, edges)
        return h

    def state_gauge(self, name: str, states: Sequence[str]) -> StateGauge:
        """Get or create the state gauge called ``name`` over ``states``."""
        s = self._states.get(name)
        if s is None:
            s = self._states[name] = StateGauge(name, states)
        return s

    def mark_epoch(self, t: float) -> Dict:
        """Close an epoch: snapshot totals, gauges, and counter deltas.

        Returns the appended epoch record ``{"t", "counters",
        "deltas", "gauges"}``.
        """
        totals = {name: c.value for name, c in self._counters.items()}
        record = {
            "t": t,
            "counters": totals,
            "deltas": {
                name: value - self._last_totals.get(name, 0.0)
                for name, value in totals.items()
            },
            "gauges": {name: g.value for name, g in self._gauges.items()},
        }
        self._last_totals = totals
        self.epochs.append(record)
        return record

    def as_dict(self) -> Dict:
        """JSON-safe dump of every instrument plus the epoch records."""
        return {
            "counters": {n: c.value for n, c in self._counters.items()},
            "gauges": {n: g.value for n, g in self._gauges.items()},
            "histograms": {
                n: h.as_dict() for n, h in self._histograms.items()
            },
            "states": {n: s.as_dict() for n, s in self._states.items()},
            "epochs": self.epochs,
        }

    def write_json(self, path) -> None:
        """Write :meth:`as_dict` to ``path`` as indented JSON."""
        with open(path, "w") as fh:
            json.dump(self.as_dict(), fh, indent=2, sort_keys=True)


#: Utilization histogram edges mirroring Figure 13's buckets.
_UTIL_EDGES: Tuple[float, ...] = (0.01, 0.05, 0.10, 0.20, 1.0)


class EpochLinkMetrics:
    """Epoch-observer bridge: link epoch counters -> registry.

    Append to a management policy's ``epoch_observers`` (after any other
    observers); every epoch boundary it accumulates network-wide link
    activity and marks the epoch on the registry.
    """

    def __init__(self, registry: MetricsRegistry, sim) -> None:
        self.registry = registry
        self.sim = sim

    def __call__(self, links, epoch_ns: float) -> None:
        """Fold one epoch's link counters into the registry."""
        reg = self.registry
        busy = flits = reads = wakeups = 0.0
        util_hist = reg.histogram("link.utilization", _UTIL_EDGES)
        n = 0
        for link in links:
            busy += link.ep_busy_ns
            flits += link.ep_flits
            reads += link.ep_reads
            wakeups += link.wakeups
            util_hist.observe(link.current_utilization(epoch_ns))
            n += 1
        reg.counter("link.busy_ns").inc(busy)
        reg.counter("link.flits_tx").inc(flits)
        reg.counter("link.reads").inc(reads)
        reg.gauge("link.wakeups_total").set(wakeups)
        reg.gauge("link.avg_utilization").set(
            busy / (n * epoch_ns) if n and epoch_ns > 0 else 0.0
        )
        reg.counter("epochs").inc()
        reg.mark_epoch(self.sim.now)
