"""The long-running experiment service behind ``repro-mnet serve``.

:class:`ExperimentService` answers experiment requests through a tiered
path -- in-memory :class:`~repro.serve.lru.LruResultCache` (keyed by
:meth:`~repro.harness.experiment.ExperimentConfig.cache_key`), then the
persistent :class:`~repro.store.base.ResultStore`, then an actual
simulation on the configured
:class:`~repro.harness.executor.Executor` -- with the serving
behaviours a shared simulator needs:

* **single-flight deduplication** -- N concurrent requests for the same
  cache key attach to one :class:`RequestTicket`; exactly one
  simulation runs and every waiter gets its result (the joiners are
  counted as ``dedup_coalesced``);
* **request batching** -- cache misses queue up and a dispatcher thread
  hands up to ``batch_max`` of them to one ``Executor.run_many`` call.
  A serial executor gets the queue at once; for a
  :class:`~repro.harness.executor.ParallelExecutor` the dispatcher
  first lingers (up to ``batch_window_s``, less once ``batch_max``
  misses are queued) so concurrent misses overlap in one batch;
* **admission control / backpressure** -- at most ``queue_limit``
  simulations may be outstanding (queued + in flight); requests beyond
  that are rejected with :class:`QueueFullError` (HTTP 429) and
  requests after drain began with :class:`DrainingError` (HTTP 503);
* **graceful drain** -- :meth:`ExperimentService.drain` stops admitting
  work, finishes every admitted ticket, flushes and closes the journal,
  and joins the dispatcher;
* **observability** -- every counter is mirrored into a
  :class:`~repro.obs.metrics.MetricsRegistry` (``serve.*`` namespace,
  with histograms of the request latency, the queue wait and the
  executor time) and :meth:`ExperimentService.stats` returns the JSON
  payload the ``/stats`` endpoint serves;
* **failure containment** -- worker crashes and hangs are contained by
  the executor (pool rebuilds, the ``--timeout`` watchdog);
  per-config-family :class:`~repro.serve.breaker.CircuitBreaker`\\ s
  short-circuit families that keep failing; with
  ``degrade="analytical"``, a saturated queue or open breaker answers
  with the closed-form power model (``"approximate": true``) instead of
  an error -- see :mod:`repro.serve.degrade`; and :meth:`health` works
  the service's state out of what it already tracks.

Concurrency model: one dispatcher thread for the service's lifetime
and one lock, the service condition.  Every piece of shared state --
the single-flight map, the queue, the memory tier, the breakers and
the metrics registry -- is read and written with that condition held;
only store/journal I/O, the disk probe and executor batches run
outside it.

Results a simulation produces are written back to both cache tiers (and
the journal, when attached), so a repeat request is a memory-tier hit
and a restarted server warms from disk.  Degraded (analytical) answers
are **never** written to any tier: only :meth:`_finish_simulated`
touches the caches, and degraded tickets never reach it.
"""

from __future__ import annotations

import sqlite3
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

from repro.harness.executor import (
    Executor,
    ExperimentOutcome,
    FailedResult,
    SerialExecutor,
    with_heartbeat,
)
from repro.harness.experiment import ExperimentConfig, ExperimentResult
from repro.harness.journal import SweepJournal
from repro.obs.metrics import MetricsRegistry
from repro.serve.degrade import (
    DEGRADE_MODES,
    DegradedResult,
    make_degraded_result,
)
from repro.serve.lru import LruResultCache
from repro.store.base import ResultStore

__all__ = [
    "AdmissionError",
    "QueueFullError",
    "DrainingError",
    "RequestTicket",
    "ServiceSettings",
    "ExperimentService",
    "LATENCY_EDGES_MS",
    "SERVICE_STATES",
]

#: Latency histogram bucket edges (milliseconds).  The sub-millisecond
#: edges resolve memory-tier answers and an immediate dispatch, which
#: would otherwise all read as 1 ms.
LATENCY_EDGES_MS = (
    0.05, 0.1, 0.25, 0.5,
    1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0,
    1000.0, 2500.0, 5000.0, 10000.0, 30000.0, 120000.0,
)

#: Service health states in severity order (index = StateGauge value).
SERVICE_STATES = ("healthy", "degraded", "draining", "unhealthy")

#: Seconds a pool rebuild, worker restart or degraded answer keeps the
#: service ``degraded``.
DEGRADED_HOLD_S = 30.0

#: The counter each answering tier bumps.
_TIER_COUNTERS = {
    "memory": "serve.memory_hits",
    "disk": "serve.disk_hits",
    "simulated": "serve.simulated",
}


class AdmissionError(RuntimeError):
    """A request the service refused to admit.

    ``http_status`` is the HTTP response code the serving layer maps
    this to; ``retry_after_s`` (when not None) becomes a ``Retry-After``
    header hinting when the client should try again.
    """

    http_status = 503
    retry_after_s: Optional[float] = None


class QueueFullError(AdmissionError):
    """Backpressure: the bounded simulation queue is at capacity (429)."""

    http_status = 429
    retry_after_s = 1.0


class DrainingError(AdmissionError):
    """The service is draining and refuses new work (503)."""

    http_status = 503


@dataclass(frozen=True)
class ServiceSettings:
    """Tunables for :class:`ExperimentService`.

    ``queue_limit`` bounds *outstanding simulations* (queued plus
    dispatched), not total requests -- cache hits and coalesced
    duplicates are always admitted.  ``batch_max`` caps the configs in
    one executor batch.  ``batch_window_s`` applies to pools only: the
    dispatcher of a multi-worker executor waits up to this long after
    the first queued miss so concurrent misses coalesce into one batch,
    and stops waiting once ``batch_max`` misses are queued or a drain
    begins.  A serial executor runs a batch one config after another,
    so it is handed the queue at once.  ``request_timeout_s`` is the
    default budget :meth:`ExperimentService.execute` waits for a ticket.

    ``degrade`` selects what a saturated queue or open breaker answers
    with (``"off"`` = hard 429/503, ``"analytical"`` = closed-form
    model); ``breaker_threshold`` consecutive structured failures trip a
    config family's breaker for ``breaker_cooldown_s`` (0 disables
    breakers).

    ``socket_timeout_s`` is the per-connection socket timeout the HTTP
    handler applies; the default (None) resolves to 30 s.  It bounds
    only the idle read for the *next* request on a keep-alive
    connection -- a request already being served waits on its ticket,
    not the socket -- so it is deliberately independent of
    ``request_timeout_s``: keeping it short lets dead clients release
    their handler threads quickly (drain joins handler threads).
    """

    queue_limit: int = 64
    memory_entries: int = 512
    batch_window_s: float = 0.01
    batch_max: int = 16
    request_timeout_s: float = 600.0
    socket_timeout_s: Optional[float] = None
    degrade: str = "off"
    breaker_threshold: int = 5
    breaker_cooldown_s: float = 30.0

    def __post_init__(self) -> None:
        if self.degrade not in DEGRADE_MODES:
            raise ValueError(
                f"degrade must be one of {DEGRADE_MODES}, got {self.degrade!r}"
            )
        if self.breaker_threshold < 0:
            raise ValueError(
                f"breaker_threshold must be >= 0, got {self.breaker_threshold}"
            )
        if self.breaker_cooldown_s <= 0:
            raise ValueError(
                f"breaker_cooldown_s must be > 0, got {self.breaker_cooldown_s}"
            )
        if self.socket_timeout_s is not None and self.socket_timeout_s <= 0:
            raise ValueError(
                f"socket_timeout_s must be > 0, got {self.socket_timeout_s}"
            )

    @property
    def effective_socket_timeout_s(self) -> float:
        """The socket timeout the HTTP layer applies per connection.

        ``socket_timeout_s`` when set; otherwise 30 s.  Independent of
        ``request_timeout_s`` by design -- see the class docstring.
        """
        if self.socket_timeout_s is not None:
            return self.socket_timeout_s
        return 30.0


class RequestTicket:
    """One admitted request (and everyone coalesced onto it).

    Exactly one of ``result`` / ``failure`` / ``rejection`` /
    ``degraded`` is set when :meth:`done` becomes True.  ``tier``
    records which layer answered: ``"memory"``, ``"disk"``,
    ``"simulated"`` (also set on failures), or ``"degraded"`` when the
    analytical model answered in place of a simulation.
    ``breaker_probe`` marks the single request a half-open circuit
    breaker admitted to test its family.
    """

    def __init__(self, key: str, config: ExperimentConfig) -> None:
        self.key = key
        self.config = config
        self.submitted_at = time.monotonic()
        #: When the ticket joined the simulation queue, and when the
        #: dispatcher took it off (``time.monotonic()``; 0.0 until then).
        self.queued_at = 0.0
        self.dispatched_at = 0.0
        self.waiters = 1
        self.tier: Optional[str] = None
        self.result: Optional[ExperimentResult] = None
        self.failure: Optional[FailedResult] = None
        self.rejection: Optional[AdmissionError] = None
        self.degraded: Optional[DegradedResult] = None
        self.breaker_probe = False
        self._event = threading.Event()

    @property
    def done(self) -> bool:
        """True once an outcome (result, failure, or rejection) is set."""
        return self._event.is_set()

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the ticket resolves; False on timeout."""
        return self._event.wait(timeout)

    def _resolve(self) -> None:
        self._event.set()


class ExperimentService:
    """Tiered, deduplicating, backpressured experiment request broker.

    Thread-safe: any number of threads may call :meth:`submit` /
    :meth:`execute` / :meth:`stats` concurrently; one internal
    dispatcher thread owns executor batches and journal writes.
    Call :meth:`start` before submitting and :meth:`drain` to shut
    down.
    """

    def __init__(
        self,
        executor: Optional[Executor] = None,
        disk_cache: Optional[ResultStore] = None,
        settings: Optional[ServiceSettings] = None,
        journal: Optional[SweepJournal] = None,
        registry: Optional[MetricsRegistry] = None,
        breakers=None,
    ) -> None:
        # Imported here, not at module top: breaker.py imports this
        # module for AdmissionError, so the reverse import must be lazy.
        from repro.serve.breaker import BreakerBoard

        self.settings = settings if settings is not None else ServiceSettings()
        self.disk_cache = disk_cache
        self.journal = journal
        self.registry = registry if registry is not None else MetricsRegistry()
        self.memory = LruResultCache(self.settings.memory_entries)
        base_executor = executor if executor is not None else SerialExecutor()
        #: The executor, wrapped so pool rebuilds and worker restarts
        #: are counted and mark the service degraded.
        self.executor = with_heartbeat(base_executor, self._on_executor_event)
        #: Per-config-family circuit breakers (injectable for tests).
        self.breakers = (
            breakers
            if breakers is not None
            else BreakerBoard(
                threshold=self.settings.breaker_threshold,
                cooldown_s=self.settings.breaker_cooldown_s,
                registry=self.registry,
            )
        )

        self._cond = threading.Condition()
        #: Live (unresolved) tickets by cache key -- the single-flight map.
        self._tickets: Dict[str, RequestTicket] = {}
        self._queue: Deque[RequestTicket] = deque()
        self._in_flight = 0
        self._probing = 0
        self._draining = False
        self._started_at = time.monotonic()
        self._dispatcher: Optional[threading.Thread] = None
        #: Why the dispatcher exited outside a drain (None while it runs).
        self._fatal: Optional[str] = None
        self._degraded_until = 0.0
        self._degraded_reason: Optional[str] = None
        self._latencies_ms: Deque[float] = deque(maxlen=2048)
        self._latency_hist = self.registry.histogram(
            "serve.latency_ms", LATENCY_EDGES_MS
        )
        #: Stage histograms: queued -> taken into a batch, and taken ->
        #: outcome handed back by the executor.
        self._queue_wait_hist = self.registry.histogram(
            "serve.queue_wait_ms", LATENCY_EDGES_MS
        )
        self._executor_hist = self.registry.histogram(
            "serve.executor_ms", LATENCY_EDGES_MS
        )

    # -- lifecycle -----------------------------------------------------
    def start(self) -> "ExperimentService":
        """Start the dispatcher thread (idempotent)."""
        with self._cond:
            if self._dispatcher is None:
                self._dispatcher = threading.Thread(
                    target=self._dispatch_loop,
                    name="serve-dispatcher",
                    daemon=True,
                )
                self._dispatcher.start()
        return self

    def _on_executor_event(self, event: str) -> None:
        """Executor hook: count a pool rebuild or worker restart and
        hold the service ``degraded`` for :data:`DEGRADED_HOLD_S`."""
        with self._cond:
            self._bump("serve.supervisor.worker_restarts")
            self._note_degraded_locked(event)

    def warm_start(self, journal: SweepJournal) -> int:
        """Seed the memory tier from a resumed journal's replayed results.

        Returns the number of entries loaded.  Call before :meth:`start`
        (or at least before traffic) -- it writes only the memory tier.
        """
        with self._cond:
            for key, result in journal.results.items():
                self.memory.put(key, result)
        return len(journal.results)

    def begin_drain(self) -> None:
        """Stop admitting new requests; already-admitted work continues."""
        with self._cond:
            self._draining = True
            self.registry.gauge("serve.draining").set(1.0)
            self._cond.notify_all()

    @property
    def draining(self) -> bool:
        """True once :meth:`begin_drain` (or :meth:`drain`) was called."""
        with self._cond:
            return self._draining

    def wait_idle(self, timeout: Optional[float] = None) -> bool:
        """Block until every admitted ticket resolved; False on timeout."""
        with self._cond:
            return self._cond.wait_for(lambda: not self._tickets, timeout)

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Graceful shutdown: refuse new work, finish admitted work,
        flush and close the journal, stop the dispatcher.

        Returns True when everything in flight completed within
        ``timeout`` (None = wait forever).
        """
        self.begin_drain()
        idle = self.wait_idle(timeout)
        if self._dispatcher is not None:
            self._dispatcher.join(timeout=5.0 if idle else 0.5)
        if self.journal is not None:
            self.journal.close()
        return idle

    # -- request path --------------------------------------------------
    def submit(self, config: ExperimentConfig) -> RequestTicket:
        """Admit one request; returns its (possibly shared) ticket.

        Resolution order: join an identical in-flight ticket
        (single-flight), hit the memory tier, hit the disk tier, pass
        the config family's circuit breaker, or queue a simulation.
        Raises :class:`DrainingError` after drain began,
        :class:`~repro.serve.breaker.BreakerOpenError` when the family's
        breaker is open, and :class:`QueueFullError` when the simulation
        queue is at capacity -- except that with
        ``settings.degrade="analytical"`` the latter two resolve the
        ticket with a :class:`~repro.serve.degrade.DegradedResult`
        instead of raising.  A ticket that *joiners* are already
        attached to is resolved with the rejection so every waiter sees
        it.  Breakers only gate fresh simulations: cache hits for a
        tripped family keep serving at full speed.  Once the dispatcher
        has exited, a request that needs a simulation resolves at once
        as a failure.  So does one whose store read raises
        (``OSError``, ``sqlite3.Error``); it is counted in
        ``read_errors``.
        """
        from repro.serve.breaker import BreakerOpenError, config_family

        key = config.cache_key()
        with self._cond:
            self._bump("serve.requests_total")
            if self._draining:
                self._bump("serve.rejected_draining")
                raise DrainingError("service is draining; not accepting work")
            ticket = self._tickets.get(key)
            if ticket is not None:
                ticket.waiters += 1
                self._bump("serve.dedup_coalesced")
                return ticket
            ticket = RequestTicket(key, config)
            cached = self.memory.get(key)
            if cached is not None:
                self._resolve_locked(ticket, cached, "memory")
                return ticket
            self._tickets[key] = ticket
            self._probing += 1
        # Disk probe outside the lock: small JSON read, but no reason to
        # serialize every other submitter behind it.  Compared with None,
        # never truth-tested: a store's len() may scan it.
        result: Optional[ExperimentResult] = None
        read_error: Optional[str] = None
        if self.disk_cache is not None:
            try:
                result = self.disk_cache.get(config)
            except (OSError, sqlite3.Error) as exc:
                read_error = f"could not read {key}: {type(exc).__name__}: {exc}"
                print(f"repro-mnet serve: {read_error}", file=sys.stderr, flush=True)
        family = config_family(config)
        with self._cond:
            self._probing -= 1
            self._cond.notify_all()
            if read_error is not None:
                self._bump("serve.read_errors")
                self._resolve_locked(ticket, self._failure(ticket, read_error))
                return ticket
            if result is not None:
                self.memory.put(key, result)
                self._resolve_locked(ticket, result, "disk")
                return ticket
            if self._fatal is not None:
                self._resolve_locked(ticket, self._failure(ticket, self._fatal))
                return ticket
            decision = self.breakers.admit(family)
            outstanding = len(self._queue) + self._in_flight
            if not decision.allowed:
                reason = "breaker_open"
                rejection: AdmissionError = BreakerOpenError(
                    family, decision.remaining_s
                )
            elif self.settings.queue_limit and outstanding >= self.settings.queue_limit:
                if decision.probe:
                    self.breakers.abandon_probe(family)
                reason = "queue_full"
                rejection = QueueFullError(
                    f"simulation queue full ({outstanding} outstanding, "
                    f"limit {self.settings.queue_limit})"
                )
            else:
                ticket.breaker_probe = decision.probe
                # The notify_all above wakes the dispatcher once this
                # block releases the condition.
                ticket.queued_at = time.monotonic()
                self._queue.append(ticket)
                self._publish_queue_locked()
                return ticket
        return self._short_circuit(ticket, reason, rejection)

    def _short_circuit(
        self,
        ticket: RequestTicket,
        reason: str,
        rejection: AdmissionError,
    ) -> RequestTicket:
        """Resolve a request the simulation path cannot take right now.

        With ``degrade="analytical"`` the ticket is answered by the
        closed-form model (HTTP 200, ``"approximate": true``); otherwise
        it is resolved with ``rejection`` and the rejection is raised.
        Either way the ticket leaves the single-flight map so attached
        joiners see the same outcome.  Degraded results are *not*
        written to any cache tier.  The model runs before the condition
        is taken, so other submitters do not wait on it.
        """
        degraded: Optional[DegradedResult] = None
        if self.settings.degrade == "analytical":
            try:
                degraded = make_degraded_result(
                    ticket.config, ticket.key, reason
                )
            except Exception:  # noqa: BLE001 - fall back to the rejection
                degraded = None
        with self._cond:
            self._tickets.pop(ticket.key, None)
            if degraded is not None:
                ticket.degraded = degraded
                ticket.tier = "degraded"
                self._bump("serve.degraded.responses")
                self._bump(f"serve.degraded.{reason}")
                self._observe_latency(ticket)
                self._note_degraded_locked(reason)
            else:
                ticket.rejection = rejection
                self._bump(f"serve.rejected_{reason}")
            self._cond.notify_all()
            ticket._resolve()
        if degraded is None:
            raise rejection
        return ticket

    def execute(
        self, config: ExperimentConfig, timeout: Optional[float] = None
    ) -> RequestTicket:
        """Submit and wait: the resolved ticket, or raise on timeout.

        ``timeout=None`` uses ``settings.request_timeout_s``.  Raises
        :class:`AdmissionError` subclasses exactly as :meth:`submit`
        does and :class:`TimeoutError` when the ticket does not resolve
        in time.
        """
        ticket = self.submit(config)
        budget = timeout if timeout is not None else self.settings.request_timeout_s
        if not ticket.wait(budget):
            raise TimeoutError(
                f"experiment request did not resolve within {budget:g}s"
            )
        return ticket

    # -- dispatcher ----------------------------------------------------
    def _dispatch_loop(self) -> None:
        """Dispatcher thread body: coalesce queued misses into batches.

        With a serial executor a batch is everything queued (up to
        ``batch_max``) the moment the first miss arrives.  With a pool
        the dispatcher first lingers up to ``batch_window_s`` on the
        condition, ending early once ``batch_max`` misses are queued or
        a drain begins; every append to the queue notifies it.

        Returns once draining with nothing queued or being admitted.
        Anything that escapes a batch (``SystemExit`` and the like; the
        batch contains ordinary exceptions) ends the thread: the
        service turns ``unhealthy`` and every ticket that would now
        never run resolves as a failure.
        """
        settings = self.settings
        # A serial executor runs a batch one config after another, so
        # waiting for more misses to join cannot finish any sooner.
        linger_s = settings.batch_window_s if self.executor.workers > 1 else 0.0
        batch: List[RequestTicket] = []
        try:
            while True:
                with self._cond:
                    self._cond.wait_for(
                        lambda: self._queue
                        or (self._draining and self._probing == 0)
                    )
                    if not self._queue:
                        return
                    if linger_s > 0:
                        self._cond.wait_for(
                            lambda: len(self._queue) >= settings.batch_max
                            or self._draining,
                            linger_s,
                        )
                    size = min(len(self._queue), settings.batch_max)
                    batch = [self._queue.popleft() for _ in range(size)]
                    now = time.monotonic()
                    for ticket in batch:
                        ticket.dispatched_at = now
                        self._queue_wait_hist.observe(
                            (now - ticket.queued_at) * 1000.0
                        )
                    self._in_flight += len(batch)
                    self._bump("serve.batches")
                    self._publish_queue_locked()
                self._run_batch(batch)
        except BaseException as exc:
            reason = f"dispatcher exited: {type(exc).__name__}: {exc}"
            with self._cond:
                self._fatal = reason
                stranded = [t for t in batch if not t.done]
                self._in_flight -= len(stranded)
                stranded.extend(self._queue)
                self._queue.clear()
                self._publish_queue_locked()
                for ticket in stranded:
                    self._resolve_locked(ticket, self._failure(ticket, reason))
            raise

    def _run_batch(self, batch: List[RequestTicket]) -> None:
        """Simulate one batch; every ticket in it resolves."""

        def on_result(
            index: int, _config: ExperimentConfig, outcome: ExperimentOutcome
        ) -> None:
            self._finish_simulated(batch[index], outcome)

        try:
            self.executor.run_many([t.config for t in batch], on_result=on_result)
        except Exception as exc:  # noqa: BLE001 - never strand waiters
            message = f"executor failed: {type(exc).__name__}: {exc}"
            for ticket in batch:
                if not ticket.done:
                    self._finish_simulated(ticket, self._failure(ticket, message))

    def _finish_simulated(
        self, ticket: RequestTicket, outcome: ExperimentOutcome
    ) -> None:
        """Resolve one dispatched ticket: store, journal, memory tier,
        breaker and counters.

        A store or journal write that raises is counted in
        ``write_errors`` and reported on stderr; the waiters still get
        the outcome, because the write only keeps it for later.
        """
        from repro.serve.breaker import config_family

        executor_ms = (time.monotonic() - ticket.dispatched_at) * 1000.0
        failed = isinstance(outcome, FailedResult)
        write_failed = False
        try:
            if failed:
                if self.journal is not None:
                    self.journal.record_failed(ticket.key, outcome)
            else:
                if self.disk_cache is not None:
                    self.disk_cache.put(ticket.config, outcome)
                if self.journal is not None:
                    self.journal.record_done(ticket.key, outcome)
        except Exception as exc:  # noqa: BLE001 - the answer outranks the copy
            write_failed = True
            print(
                f"repro-mnet serve: could not store {ticket.key}: "
                f"{type(exc).__name__}: {exc}",
                file=sys.stderr,
                flush=True,
            )
        with self._cond:
            self._executor_hist.observe(executor_ms)
            if write_failed:
                self._bump("serve.write_errors")
            if not failed:
                self.memory.put(ticket.key, outcome)
            self.breakers.on_result(
                config_family(ticket.config), failed, probe=ticket.breaker_probe
            )
            self._in_flight -= 1
            self._publish_queue_locked()
            self._resolve_locked(ticket, outcome)

    # -- helpers (call with self._cond held) ---------------------------
    def _bump(self, name: str, amount: float = 1.0) -> None:
        self.registry.counter(name).inc(amount)

    @staticmethod
    def _failure(ticket: RequestTicket, message: str) -> FailedResult:
        return FailedResult(config=ticket.config, error_type="error", message=message)

    def _resolve_locked(
        self,
        ticket: RequestTicket,
        outcome: ExperimentOutcome,
        tier: str = "simulated",
    ) -> None:
        """Answer ``ticket`` from ``tier`` and count it."""
        ticket.tier = tier
        if isinstance(outcome, FailedResult):
            ticket.failure = outcome
            self._bump("serve.failed")
        else:
            ticket.result = outcome
            self._bump(_TIER_COUNTERS[tier])
        if self._tickets.pop(ticket.key, None) is not None:
            self._cond.notify_all()
        self._observe_latency(ticket)
        ticket._resolve()

    def _publish_queue_locked(self) -> None:
        self.registry.gauge("serve.queue_depth").set(len(self._queue))
        self.registry.gauge("serve.in_flight").set(self._in_flight)

    def _note_degraded_locked(self, reason: str) -> None:
        self._degraded_until = time.monotonic() + DEGRADED_HOLD_S
        self._degraded_reason = reason

    def _observe_latency(self, ticket: RequestTicket) -> None:
        latency_ms = (time.monotonic() - ticket.submitted_at) * 1000.0
        self._latencies_ms.append(latency_ms)
        self._latency_hist.observe(latency_ms)

    def _state_locked(self) -> Tuple[str, Optional[str]]:
        """``(state, reason)``: the health state, worked out from the
        dispatcher, the drain flag, the breakers and recent incidents."""
        if self._fatal is not None:
            return "unhealthy", self._fatal
        if self._draining:
            return "draining", None
        families = self.breakers.open_families()
        if families:
            return "degraded", "breaker_open:" + ",".join(families)
        if time.monotonic() < self._degraded_until:
            return "degraded", self._degraded_reason
        return "healthy", None

    # -- introspection -------------------------------------------------
    def health(self) -> Dict:
        """The ``/healthz`` payload: health state + probe verdicts.

        ``status`` is one of :data:`SERVICE_STATES`: ``unhealthy`` once
        the dispatcher exited outside a drain, ``draining`` once drain
        began, ``degraded`` while a breaker is not closed or within
        :data:`DEGRADED_HOLD_S` of a pool rebuild, worker restart or
        degraded answer, and ``healthy`` otherwise.  ``live`` and
        ``ready`` are the split probes ``/healthz/live`` and
        ``/healthz/ready`` answer: a degraded service is still live and
        ready -- it is answering, possibly approximately -- while
        draining fails readiness only and unhealthy fails both.
        """
        with self._cond:
            state, reason = self._state_locked()
            payload: Dict = {
                "status": state,
                "live": state != "unhealthy",
                "ready": state in ("healthy", "degraded"),
                "draining": self._draining,
                "supervisor": {"state": state, "reason": reason},
            }
            if self.breakers.enabled:
                payload["open_breakers"] = self.breakers.open_families()
        return payload

    def metrics(self) -> Dict:
        """The ``/metrics`` payload: the registry dump plus p50/p95 of
        the request latency, queue wait and executor time histograms,
        snapshotted under the service condition."""
        with self._cond:
            self.registry.state_gauge(
                "serve.supervisor.state", SERVICE_STATES
            ).set_state(self._state_locked()[0])
            payload = self.registry.as_dict()
            payload["quantiles"] = {
                hist.name: {"p50": hist.quantile(0.50), "p95": hist.quantile(0.95)}
                for hist in (
                    self._latency_hist,
                    self._queue_wait_hist,
                    self._executor_hist,
                )
            }
        return payload

    def stats(self) -> Dict:
        """The ``/stats`` payload: tiers, dedup, queue, latency, uptime."""
        with self._cond:
            counters = {
                name: self.registry.counter(name).value
                for name in (
                    "serve.requests_total",
                    "serve.dedup_coalesced",
                    "serve.memory_hits",
                    "serve.disk_hits",
                    "serve.simulated",
                    "serve.failed",
                    "serve.rejected_queue_full",
                    "serve.rejected_draining",
                    "serve.rejected_breaker_open",
                    "serve.batches",
                    "serve.read_errors",
                    "serve.write_errors",
                    "serve.degraded.responses",
                    "serve.degraded.queue_full",
                    "serve.degraded.breaker_open",
                    "serve.supervisor.worker_restarts",
                )
            }
            recent = sorted(self._latencies_ms)
            state, reason = self._state_locked()
            stats = {
                "draining": self._draining,
                "uptime_s": time.monotonic() - self._started_at,
                "queue_depth": len(self._queue),
                "in_flight": self._in_flight,
                "queue_limit": self.settings.queue_limit,
                "memory_cache": self.memory.stats(),
                "breakers": self.breakers.snapshot(),
                "supervisor": {
                    "state": state,
                    "reason": reason,
                    "worker_restarts": counters[
                        "serve.supervisor.worker_restarts"
                    ],
                },
            }
        served = (
            counters["serve.memory_hits"]
            + counters["serve.disk_hits"]
            + counters["serve.simulated"]
        )
        tiers = {
            "memory": counters["serve.memory_hits"],
            "disk": counters["serve.disk_hits"],
            "simulated": counters["serve.simulated"],
            "hit_ratio": {
                "memory": counters["serve.memory_hits"] / served if served else 0.0,
                "disk": counters["serve.disk_hits"] / served if served else 0.0,
            },
        }
        latency = {
            "count": len(recent),
            "p50_ms": _percentile(recent, 0.50),
            "p95_ms": _percentile(recent, 0.95),
        }
        stats.update(
            requests_total=counters["serve.requests_total"],
            dedup_coalesced=counters["serve.dedup_coalesced"],
            rejected_queue_full=counters["serve.rejected_queue_full"],
            rejected_draining=counters["serve.rejected_draining"],
            rejected_breaker_open=counters["serve.rejected_breaker_open"],
            failed=counters["serve.failed"],
            batches=counters["serve.batches"],
            read_errors=counters["serve.read_errors"],
            write_errors=counters["serve.write_errors"],
            tiers=tiers,
            latency=latency,
            executor=self.executor.describe(),
            degraded={
                "mode": self.settings.degrade,
                "responses": counters["serve.degraded.responses"],
                "queue_full": counters["serve.degraded.queue_full"],
                "breaker_open": counters["serve.degraded.breaker_open"],
            },
        )
        if self.disk_cache is not None:
            snapshot = self.disk_cache.stats()
            stats["disk_cache"] = {
                key: snapshot[key]
                for key in (
                    "hits", "misses", "writes", "quarantined",
                    "backend", "path", "entries", "size_bytes",
                )
            }
        if self.journal is not None:
            stats["journal"] = {
                "path": str(self.journal.path),
                "records_written": self.journal.records_written,
            }
        return stats


def _percentile(sorted_values: List[float], q: float) -> float:
    """Exact nearest-rank percentile of an ascending list (0.0 if empty)."""
    if not sorted_values:
        return 0.0
    rank = max(0, min(len(sorted_values) - 1, int(q * len(sorted_values))))
    return sorted_values[rank]
