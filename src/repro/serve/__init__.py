"""Long-running experiment service (``repro-mnet serve``).

A local HTTP+JSON front end over the experiment harness for the
many-overlapping-queries workloads the ROADMAP's "serves heavy traffic"
north star describes: downstream power-model studies that issue bursts
of (largely duplicate) sweep requests against the simulator.

Requests are answered through a tiered path::

    HTTP request
        |-- single-flight join (identical in-flight request? attach)
        |-- memory tier   LruResultCache   (bounded, LRU-evicted)
        |-- disk tier     ResultStore      (persistent, shared with CLI:
        |                                   JSON dir or SQLite backend)
        `-- simulate      Executor batch   (coalesced, bounded queue)

with admission control (429 when the simulation queue is full, 503
while draining), graceful SIGTERM drain, and ``/v1/healthz`` /
``/v1/stats`` / ``/v1/metrics`` endpoints wired into the observability
layer's :class:`~repro.obs.metrics.MetricsRegistry`.  The HTTP surface
is versioned under ``/v1/`` (unversioned paths still answer, marked
``Deprecation``), and :class:`~repro.serve.client.ServeClient` is the
supported Python caller.

One dispatcher thread and one lock (the service condition) carry
every request.  Failures are contained without restarting anything:
the executor replaces a dead worker process and re-runs only its
config, and its ``--timeout`` watchdog reclaims hung simulations;
per-config-family circuit breakers
(:class:`~repro.serve.breaker.BreakerBoard`) short-circuit families
that keep failing; graceful degradation (:mod:`repro.serve.degrade`)
answers saturation and open breakers with the closed-form analytical
power model -- a 200 marked ``"approximate": true`` -- instead of an
error; and ``/v1/healthz`` reports a health state worked out from what
the service already tracks.

See docs/serving.md for the API schema and worked examples, and
docs/resilience.md for how failures are contained.
"""

from repro._lazy import lazy_exports

__all__ = [
    "AdmissionError",
    "BreakerBoard",
    "BreakerDecision",
    "BreakerOpenError",
    "CircuitBreaker",
    "DegradedResult",
    "DrainingError",
    "ExperimentServer",
    "ExperimentService",
    "LruResultCache",
    "QueueFullError",
    "RequestTicket",
    "SERVICE_STATES",
    "ServeBadRequestError",
    "ServeClient",
    "ServeConnectionError",
    "ServeError",
    "ServeRejectedError",
    "ServeRunOutcome",
    "ServeSimulationError",
    "ServeTimeoutError",
    "ServiceSettings",
    "config_family",
    "degraded_json",
    "degraded_payload",
    "make_degraded_result",
    "run_server",
]

#: Each public name's defining module, imported on first use.
_EXPORTS = {
    "AdmissionError": "repro.serve.service",
    "BreakerBoard": "repro.serve.breaker",
    "BreakerDecision": "repro.serve.breaker",
    "BreakerOpenError": "repro.serve.service",
    "CircuitBreaker": "repro.serve.breaker",
    "DegradedResult": "repro.serve.degrade",
    "DrainingError": "repro.serve.service",
    "ExperimentServer": "repro.serve.http",
    "ExperimentService": "repro.serve.service",
    "LruResultCache": "repro.serve.lru",
    "QueueFullError": "repro.serve.service",
    "RequestTicket": "repro.serve.service",
    "SERVICE_STATES": "repro.serve.service",
    "ServeBadRequestError": "repro.serve.client",
    "ServeClient": "repro.serve.client",
    "ServeConnectionError": "repro.serve.client",
    "ServeError": "repro.serve.client",
    "ServeRejectedError": "repro.serve.client",
    "ServeRunOutcome": "repro.serve.client",
    "ServeSimulationError": "repro.serve.client",
    "ServeTimeoutError": "repro.serve.client",
    "ServiceSettings": "repro.serve.service",
    "config_family": "repro.serve.breaker",
    "degraded_json": "repro.serve.degrade",
    "degraded_payload": "repro.serve.degrade",
    "make_degraded_result": "repro.serve.degrade",
    "run_server": "repro.serve.http",
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
