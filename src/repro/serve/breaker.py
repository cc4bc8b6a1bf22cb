"""Per-config-family circuit breakers for the experiment service.

A *family* is the ``topology/mechanism`` pair of a request — the axis
along which simulation failures cluster in practice: a topology whose
builder crashes, a mechanism whose mode table wedges the engine, an
isolate that times out for every point of one grid. Each family gets an
independent three-state breaker:

``closed``
    Normal operation. Every structured :class:`~repro.harness.executor.
    FailedResult` for the family increments a consecutive-failure
    counter; any success resets it. When the counter reaches the
    configured threshold the breaker **trips** to ``open``.

``open``
    Requests for the family are short-circuited without touching the
    queue or the executor. Depending on the service's degrade mode they
    are answered by the analytical model or rejected with a 503 that
    carries ``Retry-After`` equal to the remaining cooldown. After
    ``cooldown_s`` the breaker moves to ``half_open``.

``half_open``
    Exactly one request is admitted as a *probe*; everything else stays
    short-circuited. If the probe succeeds the breaker closes and the
    failure counter resets; if it fails (or the probe's owner vanishes)
    the breaker re-opens for a fresh cooldown.

Breakers never see cache hits — the service consults the board only
after the memory and disk tiers miss, so a poisoned family's cached
points keep serving at full speed while fresh simulation is gated.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List

__all__ = [
    "BREAKER_STATES",
    "BreakerDecision",
    "CircuitBreaker",
    "BreakerBoard",
    "config_family",
]

#: Breaker states in display order (index = StateGauge numeric value).
BREAKER_STATES = ("closed", "open", "half_open")


def config_family(config) -> str:
    """The breaker family of an :class:`ExperimentConfig`.

    Failures cluster by simulation substrate, not by workload, so the
    family is ``"{topology}/{mechanism}"`` — coarse enough that a
    poisoned family trips quickly, fine enough that ``daisychain/FP``
    tripping never gates ``star/VWL`` traffic.
    """
    return f"{config.topology}/{config.mechanism}"


@dataclass
class BreakerDecision:
    """Outcome of asking a breaker whether a request may proceed."""

    #: True when the request may be queued for simulation.
    allowed: bool
    #: True when the request is the single half-open probe. The caller
    #: must report the probe's outcome via ``on_result(..., probe=True)``.
    probe: bool = False
    #: Seconds of cooldown remaining when ``allowed`` is False.
    remaining_s: float = 0.0


class CircuitBreaker:
    """One family's closed → open → half-open state machine.

    ``clock`` is injectable (monotonic seconds) so tests can step time
    without sleeping.
    """

    def __init__(
        self,
        family: str,
        threshold: int = 5,
        cooldown_s: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if threshold < 1:
            raise ValueError(f"breaker threshold must be >= 1, got {threshold}")
        if cooldown_s <= 0:
            raise ValueError(f"breaker cooldown must be > 0, got {cooldown_s}")
        self.family = family
        self.threshold = threshold
        self.cooldown_s = cooldown_s
        self.clock = clock
        self.state = "closed"
        self.consecutive_failures = 0
        self.opened_at = 0.0
        self.probe_in_flight = False
        self.trips = 0
        self.recoveries = 0

    def _maybe_half_open(self, now: float) -> None:
        if self.state == "open" and now - self.opened_at >= self.cooldown_s:
            self.state = "half_open"
            self.probe_in_flight = False

    def admit(self) -> BreakerDecision:
        """Decide whether a fresh simulation for this family may run."""
        now = self.clock()
        self._maybe_half_open(now)
        if self.state == "closed":
            return BreakerDecision(allowed=True)
        if self.state == "half_open" and not self.probe_in_flight:
            self.probe_in_flight = True
            return BreakerDecision(allowed=True, probe=True)
        remaining = max(0.0, self.cooldown_s - (now - self.opened_at))
        if self.state == "half_open":
            # A probe is already out; treat as open with a short horizon.
            remaining = max(remaining, 1.0)
        return BreakerDecision(allowed=False, remaining_s=remaining)

    def _trip(self, now: float) -> None:
        self.state = "open"
        self.opened_at = now
        self.probe_in_flight = False
        self.trips += 1

    def on_result(self, failed: bool, probe: bool = False) -> None:
        """Fold one simulation outcome into the state machine.

        ``failed`` is True only for structured ``FailedResult``s —
        admission rejections and degraded answers never reach here.
        ``probe`` marks the outcome of the single half-open probe.
        """
        now = self.clock()
        if probe:
            self.probe_in_flight = False
            if failed:
                self._trip(now)
            else:
                self.state = "closed"
                self.consecutive_failures = 0
                self.recoveries += 1
            return
        if failed:
            self.consecutive_failures += 1
            if self.state == "closed" and self.consecutive_failures >= self.threshold:
                self._trip(now)
        else:
            self.consecutive_failures = 0
            if self.state == "open":
                # A non-probe success (e.g. a request admitted just
                # before the trip) is still evidence of recovery.
                self.state = "closed"
                self.recoveries += 1

    def abandon_probe(self) -> None:
        """Release the half-open probe slot without an outcome.

        Used when the probe's request is rejected before simulating
        (a full queue) so the family is not wedged forever.
        """
        self.probe_in_flight = False

    def snapshot(self) -> Dict:
        """JSON-safe view of the breaker for /stats."""
        now = self.clock()
        self._maybe_half_open(now)
        remaining = 0.0
        if self.state == "open":
            remaining = max(0.0, self.cooldown_s - (now - self.opened_at))
        return {
            "family": self.family,
            "state": self.state,
            "consecutive_failures": self.consecutive_failures,
            "trips": self.trips,
            "recoveries": self.recoveries,
            "cooldown_remaining_s": round(remaining, 3),
        }


class BreakerBoard:
    """Collection of per-family breakers plus metrics.

    The board lazily creates one :class:`CircuitBreaker` per family on
    first sight and keeps the ``serve.breaker.*`` instruments current:
    ``serve.breaker.trips`` / ``short_circuits`` / ``probes`` /
    ``recoveries`` counters, a ``serve.breaker.open`` gauge (number of
    families currently not closed), and one
    :class:`~repro.obs.metrics.StateGauge` per family.

    A ``threshold`` of 0 disables the board: every decision allows.
    The board has no lock of its own: the experiment service calls it
    with its condition held.
    """

    def __init__(
        self,
        threshold: int = 5,
        cooldown_s: float = 30.0,
        registry=None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if threshold < 0:
            raise ValueError(f"breaker threshold must be >= 0, got {threshold}")
        self.threshold = threshold
        self.cooldown_s = cooldown_s
        self.registry = registry
        self.clock = clock
        self._breakers: Dict[str, CircuitBreaker] = {}

    @property
    def enabled(self) -> bool:
        """Whether breakers are active (threshold > 0)."""
        return self.threshold > 0

    def _get(self, family: str) -> CircuitBreaker:
        b = self._breakers.get(family)
        if b is None:
            b = self._breakers[family] = CircuitBreaker(
                family,
                threshold=self.threshold,
                cooldown_s=self.cooldown_s,
                clock=self.clock,
            )
        return b

    def _publish(self, breaker: CircuitBreaker) -> None:
        if self.registry is None:
            return
        gauge = self.registry.state_gauge(
            f"serve.breaker.state.{breaker.family}", BREAKER_STATES
        )
        gauge.set_state(breaker.state)
        open_count = sum(
            1 for b in self._breakers.values() if b.state != "closed"
        )
        self.registry.gauge("serve.breaker.open").set(float(open_count))

    def admit(self, family: str) -> BreakerDecision:
        """Gate one fresh-simulation request for ``family``."""
        if not self.enabled:
            return BreakerDecision(allowed=True)
        breaker = self._get(family)
        decision = breaker.admit()
        if self.registry is not None:
            if decision.probe:
                self.registry.counter("serve.breaker.probes").inc()
            if not decision.allowed:
                self.registry.counter("serve.breaker.short_circuits").inc()
            self._publish(breaker)
        return decision

    def on_result(self, family: str, failed: bool, probe: bool = False) -> None:
        """Report a simulation outcome for ``family`` to its breaker."""
        if not self.enabled:
            return
        breaker = self._get(family)
        before = breaker.state
        breaker.on_result(failed, probe=probe)
        if self.registry is not None:
            if breaker.state == "open" and before != "open":
                self.registry.counter("serve.breaker.trips").inc()
            if breaker.state == "closed" and before != "closed":
                self.registry.counter("serve.breaker.recoveries").inc()
            self._publish(breaker)

    def abandon_probe(self, family: str) -> None:
        """Release ``family``'s probe slot without recording an outcome."""
        b = self._breakers.get(family)
        if b is not None:
            b.abandon_probe()

    def open_families(self) -> List[str]:
        """Families whose breaker is currently not closed."""
        now = self.clock()
        for b in self._breakers.values():
            b._maybe_half_open(now)
        return sorted(f for f, b in self._breakers.items() if b.state != "closed")

    def snapshot(self) -> Dict:
        """JSON-safe view of every breaker, keyed by family."""
        return {
            "enabled": self.enabled,
            "threshold": self.threshold,
            "cooldown_s": self.cooldown_s,
            "families": {
                f: b.snapshot() for f, b in sorted(self._breakers.items())
            },
        }
