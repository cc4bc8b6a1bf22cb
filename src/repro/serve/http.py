"""Local HTTP+JSON front end for :class:`ExperimentService`.

The API is versioned under ``/v1/`` (see docs/serving.md for the full
schema):

* ``GET /v1/healthz`` -- the service's health state; 200 while
  ``healthy`` or ``degraded``, 503 while ``draining`` or
  ``unhealthy``;
* ``GET /v1/healthz/live`` -- liveness probe: 200 unless ``unhealthy``;
* ``GET /v1/healthz/ready`` -- readiness probe: 200 only while the
  service should receive traffic (``healthy`` / ``degraded``);
* ``GET /v1/stats`` -- service counters (tiers, dedup, queue, latency);
* ``GET /v1/metrics`` -- the raw
  :class:`~repro.obs.metrics.MetricsRegistry` dump plus p50/p95
  quantiles of the latency, queue-wait and executor-time histograms;
* ``POST /v1/run`` -- one experiment config (JSON body); answers with
  the cache tier that served it, the full result payload (the disk
  cache's lossless dict shape), and a ``summary`` string byte-identical
  to ``repro-mnet run``'s stdout for the same config;
* ``POST /v1/batch`` -- ``{"configs": [...]}``; per-item outcomes in
  input order (individual items may be rejected with 429 semantics
  while the rest proceed).

Every endpoint also answers at its historical *unversioned* path
(``/healthz``, ``/run``, ...) with an identical status and body, plus a
``Deprecation: true`` header and a ``Link: </v1/...>;
rel="successor-version"`` pointer; new clients should use ``/v1/``.

Backpressure maps to HTTP statuses: 429 + ``Retry-After`` when the
bounded simulation queue is full, 503 while draining or when a config
family's circuit breaker is open, 504 when a request exceeds its wait
budget, 500 for structured simulation failures.  With ``--degrade
analytical`` the 429/breaker-503 cases instead answer 200 with an
analytical-model body marked ``"approximate": true`` (see
:mod:`repro.serve.degrade`).  :func:`run_server` wires SIGTERM/SIGINT
to a graceful drain: stop admitting, finish in-flight work, flush the
journal, then exit 0.

Configs that ask for server-side file side effects (``trace_path``,
``metrics_path``) are rejected with 400: the service answers queries,
it does not write files on behalf of remote callers.
"""

from __future__ import annotations

import json
import signal
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Tuple

from repro.harness.executor import FailedResult
from repro.harness.io import config_from_dict, result_to_cache_dict
from repro.harness.report import render_run_summary
from repro.serve.degrade import degraded_payload
from repro.serve.protocol import API_PREFIX, API_VERSION
from repro.serve.service import AdmissionError, ExperimentService, RequestTicket

__all__ = ["API_VERSION", "API_PREFIX", "ExperimentServer", "ServeHandler", "run_server"]


def _split_version(path: str) -> Tuple[str, Optional[Dict]]:
    """``(unprefixed path, alias headers)`` for a request path.

    A ``/v1/...`` path is canonical (no extra headers); anything else
    is treated as a deprecated unversioned alias and answered with the
    same body plus ``Deprecation`` + successor ``Link`` headers.
    """
    if path == API_PREFIX or path.startswith(API_PREFIX + "/"):
        return path[len(API_PREFIX):] or "/", None
    return path, {
        "Deprecation": "true",
        "Link": f'<{API_PREFIX}{path}>; rel="successor-version"',
    }


class _BadRequest(ValueError):
    """Request body the API cannot serve (maps to HTTP 400)."""


def _parse_config(data: Dict):
    """Request dict -> ExperimentConfig; rejects file-writing fields."""
    if not isinstance(data, dict):
        raise _BadRequest("config must be a JSON object")
    payload = data.get("config", data)
    if not isinstance(payload, dict):
        raise _BadRequest("'config' must be a JSON object")
    for forbidden in ("trace_path", "metrics_path"):
        if payload.get(forbidden):
            raise _BadRequest(
                f"{forbidden!r} is not accepted over the API: the service "
                "does not write files for remote callers"
            )
    try:
        return config_from_dict(payload)
    except (TypeError, ValueError) as exc:
        raise _BadRequest(f"invalid config: {exc}") from exc


def _ticket_payload(ticket: RequestTicket) -> Tuple[int, Dict]:
    """(HTTP status, JSON body) for a resolved ticket."""
    if ticket.rejection is not None:
        return ticket.rejection.http_status, {
            "error": {"kind": "rejected", "message": str(ticket.rejection)}
        }
    if ticket.degraded is not None:
        # Analytical stand-in: still a 200, explicitly approximate.
        return 200, degraded_payload(ticket.degraded)
    if ticket.failure is not None:
        failure: FailedResult = ticket.failure
        return 500, {
            "key": ticket.key,
            "tier": ticket.tier,
            "error": {
                "kind": failure.error_type,
                "message": failure.message,
                "attempts": failure.attempts,
            },
        }
    result = ticket.result
    assert result is not None
    return 200, {
        "key": ticket.key,
        "tier": ticket.tier,
        "result": result_to_cache_dict(result),
        "summary": render_run_summary(ticket.config, result),
    }


class ServeHandler(BaseHTTPRequestHandler):
    """Request handler bound to the server's :class:`ExperimentService`."""

    server_version = "repro-mnet-serve/1"
    protocol_version = "HTTP/1.1"
    #: TCP_NODELAY: a response goes out as two sends (headers, then
    #: body), and with Nagle's algorithm on a keep-alive connection the
    #: body waits for the client's delayed ACK, about 40 ms.
    disable_nagle_algorithm = True
    #: Idle-read budget: a keep-alive connection whose client went away
    #: closes itself instead of pinning a handler thread through drain
    #: (handler threads are joined on close).  It only bounds reading
    #: the *next* request -- an in-flight request waits on its ticket,
    #: not the socket -- so it stays short regardless of the request
    #: deadline.  This class default is a fallback only -- :meth:`setup`
    #: overrides it per connection with
    #: ``ServiceSettings.effective_socket_timeout_s``.
    timeout = 30.0

    # -- plumbing ------------------------------------------------------
    def setup(self) -> None:
        """Apply the service-configured socket timeout per connection."""
        service = getattr(self.server, "service", None)
        if service is not None:
            self.timeout = service.settings.effective_socket_timeout_s
        super().setup()

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        """Per-request access log line (stderr; silenced with --quiet)."""
        if getattr(self.server, "verbose", False):
            sys.stderr.write(
                "%s - %s\n" % (self.address_string(), format % args)
            )

    @property
    def service(self) -> ExperimentService:
        """The experiment service this server fronts."""
        return self.server.service  # type: ignore[attr-defined]

    #: Extra headers for the in-flight request: set per request when it
    #: arrived via a deprecated unversioned alias, cleared on 404.
    _alias_headers: Optional[Dict] = None

    def _send_json(
        self, status: int, payload: Dict, headers: Optional[Dict] = None
    ) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (self._alias_headers or {}).items():
            self.send_header(name, value)
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _read_json(self) -> Dict:
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            # The body's extent is unknown, so the connection cannot be
            # reused for a next request.
            self.close_connection = True
            raise _BadRequest("Content-Length is not an integer") from None
        if length <= 0:
            raise _BadRequest("missing request body")
        raw = self.rfile.read(length)
        try:
            return json.loads(raw)
        except json.JSONDecodeError as exc:
            raise _BadRequest(f"request body is not valid JSON: {exc}") from exc

    # -- GET endpoints -------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - http.server API
        """Serve /v1/healthz (plus /live, /ready), /v1/stats, /v1/metrics
        and their deprecated unversioned aliases."""
        route, self._alias_headers = _split_version(self.path)
        if route == "/healthz":
            health = self.service.health()
            ok = health["status"] in ("healthy", "degraded")
            self._send_json(200 if ok else 503, health)
        elif route == "/healthz/live":
            health = self.service.health()
            self._send_json(
                200 if health["live"] else 503,
                {"live": health["live"], "status": health["status"]},
            )
        elif route == "/healthz/ready":
            health = self.service.health()
            self._send_json(
                200 if health["ready"] else 503,
                {"ready": health["ready"], "status": health["status"]},
            )
        elif route == "/stats":
            self._send_json(200, self.service.stats())
        elif route == "/metrics":
            self._send_json(200, self.service.metrics())
        else:
            self._alias_headers = None
            self._send_json(404, {"error": f"unknown path {self.path!r}"})

    # -- POST endpoints ------------------------------------------------
    def do_POST(self) -> None:  # noqa: N802 - http.server API
        """Serve /v1/run and /v1/batch (and their unversioned aliases)."""
        route, self._alias_headers = _split_version(self.path)
        if route not in ("/run", "/batch"):
            self._alias_headers = None
            self._send_json(404, {"error": f"unknown path {self.path!r}"})
            return
        try:
            data = self._read_json()
            if route == "/run":
                self._handle_run(data)
            else:
                self._handle_batch(data)
        except _BadRequest as exc:
            self._send_json(400, {"error": str(exc)})

    def _handle_run(self, data: Dict) -> None:
        config = _parse_config(data)
        try:
            ticket = self.service.submit(config)
        except AdmissionError as exc:
            self._send_json(
                exc.http_status,
                {"error": {"kind": "rejected", "message": str(exc)}},
                headers=_retry_headers(exc),
            )
            return
        if not ticket.wait(self.service.settings.request_timeout_s):
            self._send_json(504, {"error": "request timed out in queue"})
            return
        status, payload = _ticket_payload(ticket)
        headers = _retry_headers(ticket.rejection) if ticket.rejection else None
        self._send_json(status, payload, headers=headers)

    def _handle_batch(self, data: Dict) -> None:
        if not isinstance(data, dict) or not isinstance(data.get("configs"), list):
            raise _BadRequest("body must be {'configs': [ {...}, ... ]}")
        configs = [_parse_config(item) for item in data["configs"]]
        tickets = []
        for config in configs:
            try:
                tickets.append(self.service.submit(config))
            except AdmissionError as exc:
                tickets.append(exc)
        items = []
        for entry in tickets:
            if isinstance(entry, AdmissionError):
                items.append(
                    {
                        "status": entry.http_status,
                        "error": {"kind": "rejected", "message": str(entry)},
                    }
                )
                continue
            if not entry.wait(self.service.settings.request_timeout_s):
                items.append({"status": 504, "error": "request timed out"})
                continue
            status, payload = _ticket_payload(entry)
            item = {"status": status}
            item.update(payload)
            items.append(item)
        self._send_json(200, {"results": items})


def _retry_headers(exc: Optional[AdmissionError]) -> Optional[Dict]:
    if exc is not None and exc.retry_after_s is not None:
        return {"Retry-After": f"{exc.retry_after_s:g}"}
    return None


class ExperimentServer(ThreadingHTTPServer):
    """Threaded HTTP server owning one :class:`ExperimentService`.

    Handler threads are non-daemonic and joined on close
    (``block_on_close``), so a drain cannot abandon a client mid
    response.
    """

    daemon_threads = False
    block_on_close = True
    #: Listen backlog.  socketserver's default of 5 drops the SYN of the
    #: 7th client in a burst that arrives while handler threads hold the
    #: interpreter lock, and the client retries only after 1 s.
    request_queue_size = 128

    def __init__(
        self,
        address: Tuple[str, int],
        service: ExperimentService,
        verbose: bool = False,
    ) -> None:
        self.service = service
        self.verbose = verbose
        super().__init__(address, ServeHandler)

    @property
    def port(self) -> int:
        """The bound TCP port (useful with ``--port 0``)."""
        return self.server_address[1]


def run_server(
    service: ExperimentService,
    host: str = "127.0.0.1",
    port: int = 8642,
    verbose: bool = False,
    drain_timeout_s: Optional[float] = None,
    ready: Optional[threading.Event] = None,
) -> int:
    """Serve until SIGTERM/SIGINT, then drain gracefully; exit code.

    On the first signal the service stops admitting experiment requests
    (503), finishes everything already admitted, flushes and closes the
    journal, stops the listener, and returns 0.  A drain that exceeds
    ``drain_timeout_s`` returns 1 instead.  ``ready``, when given, is
    set once the listener is bound (used by tests).
    """
    httpd = ExperimentServer((host, port), service, verbose=verbose)
    service.start()
    stop = threading.Event()

    def _on_signal(signum, _frame) -> None:
        print(
            f"repro-mnet serve: received signal {signum}, draining ...",
            file=sys.stderr,
            flush=True,
        )
        stop.set()

    previous = {}
    for sig in (signal.SIGTERM, signal.SIGINT):
        previous[sig] = signal.signal(sig, _on_signal)
    listener = threading.Thread(
        target=httpd.serve_forever, name="serve-listener", daemon=False
    )
    listener.start()
    print(
        f"repro-mnet serve: listening on http://{host}:{httpd.port} "
        f"(queue limit {service.settings.queue_limit}, "
        f"{service.executor.describe()['kind']} x{service.executor.jobs})",
        flush=True,
    )
    if ready is not None:
        ready.set()
    try:
        stop.wait()
        drained = service.drain(timeout=drain_timeout_s)
        httpd.shutdown()
        listener.join()
        httpd.server_close()
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
    stats = service.stats()
    print(
        "repro-mnet serve: drained "
        f"({stats['requests_total']:.0f} requests, "
        f"{stats['tiers']['simulated']:.0f} simulated, "
        f"{stats['dedup_coalesced']:.0f} coalesced); "
        f"{'clean exit' if drained else 'DRAIN TIMED OUT'}",
        flush=True,
    )
    return 0 if drained else 1
