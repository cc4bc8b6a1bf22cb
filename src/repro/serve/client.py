"""Python client SDK for the ``repro-mnet serve`` HTTP API (v1).

:class:`ServeClient` wraps the versioned ``/v1/`` surface in typed
calls: :meth:`ServeClient.run` submits one config and returns the
decoded :class:`~repro.harness.experiment.ExperimentResult`,
:meth:`ServeClient.stats` / :meth:`ServeClient.healthz` read the
observability endpoints, and every non-2xx answer is raised as a
:class:`ServeError` subclass carrying the HTTP status and decoded
body::

    from repro.serve.client import ServeClient, ServeRejectedError

    client = ServeClient("http://127.0.0.1:8642")
    try:
        result = client.run({"workload": "mixB", "policy": "aware"})
    except ServeRejectedError as exc:
        print("busy, retry after", exc.retry_after_s)

Backpressure handling is built in: a 429 (bounded queue full) is
retried up to ``max_retries`` times, honouring the server's
``Retry-After`` header between attempts.  A 503 (draining / breaker
open) is *not* retried -- the server said stop, and a drain rarely
reverses -- it surfaces immediately as :class:`ServeRejectedError`.

Only the Python standard library is used (``urllib``), matching the
project's no-dependency rule.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple, Union

from repro.harness.experiment import ExperimentConfig, ExperimentResult
from repro.harness.io import config_to_dict, result_from_cache_dict
from repro.serve.protocol import API_PREFIX

__all__ = [
    "ServeClient",
    "ServeError",
    "ServeConnectionError",
    "ServeBadRequestError",
    "ServeRejectedError",
    "ServeTimeoutError",
    "ServeSimulationError",
    "ServeRunOutcome",
]


class ServeError(Exception):
    """Base class for every client-visible serve failure.

    ``status`` is the HTTP status code (``None`` for transport-level
    failures) and ``payload`` the decoded response body (``{}`` when
    there was none).
    """

    def __init__(
        self,
        message: str,
        status: Optional[int] = None,
        payload: Optional[Dict] = None,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.payload = payload if payload is not None else {}


class ServeConnectionError(ServeError):
    """The server could not be reached (or hung up mid-response)."""


class ServeBadRequestError(ServeError):
    """The server rejected the request body as invalid (HTTP 400)."""


class ServeRejectedError(ServeError):
    """Admission control refused the request (HTTP 429 or 503).

    ``retry_after_s`` carries the server's ``Retry-After`` hint when it
    sent one (429 responses do; 503 drain responses may not).
    """

    def __init__(
        self,
        message: str,
        status: Optional[int] = None,
        payload: Optional[Dict] = None,
        retry_after_s: Optional[float] = None,
    ) -> None:
        super().__init__(message, status=status, payload=payload)
        self.retry_after_s = retry_after_s


class ServeTimeoutError(ServeError):
    """The request exceeded the server's wait budget (HTTP 504)."""


class ServeSimulationError(ServeError):
    """The simulation itself failed (HTTP 500, structured failure).

    ``kind`` and ``attempts`` mirror the structured
    :class:`~repro.harness.executor.FailedResult` record the server
    reported.
    """

    def __init__(
        self,
        message: str,
        status: Optional[int] = None,
        payload: Optional[Dict] = None,
        kind: str = "unknown",
        attempts: int = 0,
    ) -> None:
        super().__init__(message, status=status, payload=payload)
        self.kind = kind
        self.attempts = attempts


@dataclass
class ServeRunOutcome:
    """Everything one ``/v1/run`` answer carried.

    ``result`` is the decoded experiment result (analytical stand-in
    when ``approximate`` is true), ``tier`` names the cache tier that
    served it (``memory`` / ``disk`` / ``simulated`` / ``degraded``),
    ``summary`` is the human-readable block byte-identical to
    ``repro-mnet run`` stdout (empty for degraded answers), and
    ``payload`` keeps the raw response body for anything else.
    """

    key: str
    tier: str
    result: ExperimentResult
    summary: str = ""
    approximate: bool = False
    payload: Dict = field(default_factory=dict)


def _error_message(payload: Dict, fallback: str) -> str:
    """Best-effort human message out of an error response body."""
    error = payload.get("error")
    if isinstance(error, dict):
        return str(error.get("message", fallback))
    if isinstance(error, str):
        return error
    return fallback


class ServeClient:
    """HTTP client for one ``repro-mnet serve`` instance.

    ``base_url`` is the server root (e.g. ``http://127.0.0.1:8642``);
    the client always calls the versioned ``/v1/`` endpoints.
    ``timeout_s`` bounds each HTTP round trip -- it must comfortably
    exceed the server's simulation latency, since a cache-missing
    ``run`` holds the connection until the result is ready.
    ``max_retries`` bounds the automatic 429 retry loop and
    ``retry_cap_s`` clips how long a single ``Retry-After`` hint is
    honoured.  Instances hold no sockets open and are safe to share
    across threads.
    """

    def __init__(
        self,
        base_url: str,
        timeout_s: float = 300.0,
        max_retries: int = 3,
        retry_cap_s: float = 10.0,
        sleep=time.sleep,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout_s = timeout_s
        self.max_retries = max_retries
        self.retry_cap_s = retry_cap_s
        self._sleep = sleep

    # -- transport -----------------------------------------------------

    def request(
        self, path: str, body: Optional[Dict] = None
    ) -> Tuple[int, Dict, Dict]:
        """One raw round trip: ``(status, headers, decoded body)``.

        ``body`` turns the request into a JSON POST; ``None`` means
        GET.  Error statuses are *returned*, not raised -- only
        transport failures raise (:class:`ServeConnectionError`).  The
        headers mapping is case-insensitive-by-construction: keys are
        lower-cased.
        """
        url = self.base_url + path
        data = (
            None
            if body is None
            else json.dumps(body, sort_keys=True).encode("utf-8")
        )
        req = urllib.request.Request(
            url,
            data=data,
            headers={"Content-Type": "application/json"} if data else {},
            method="POST" if data is not None else "GET",
        )
        try:
            with urllib.request.urlopen(req, timeout=self.timeout_s) as resp:
                status = resp.status
                headers = {k.lower(): v for k, v in resp.headers.items()}
                raw = resp.read()
        except urllib.error.HTTPError as exc:
            status = exc.code
            headers = {k.lower(): v for k, v in (exc.headers or {}).items()}
            raw = exc.read()
        except (urllib.error.URLError, OSError) as exc:
            raise ServeConnectionError(
                f"cannot reach {url}: {exc}"
            ) from exc
        if not raw:
            return status, headers, {}
        try:
            payload = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ServeConnectionError(
                f"non-JSON response from {url} (status {status})"
            ) from exc
        return status, headers, payload

    @staticmethod
    def _raise_for(status: int, headers: Dict, payload: Dict) -> None:
        """Map an error status onto the :class:`ServeError` hierarchy."""
        if 200 <= status < 300:
            return
        message = _error_message(payload, f"HTTP {status}")
        if status == 400:
            raise ServeBadRequestError(message, status=status, payload=payload)
        if status in (429, 503):
            retry_after = headers.get("retry-after")
            raise ServeRejectedError(
                message,
                status=status,
                payload=payload,
                retry_after_s=float(retry_after) if retry_after else None,
            )
        if status == 504:
            raise ServeTimeoutError(message, status=status, payload=payload)
        if status == 500:
            error = payload.get("error")
            error = error if isinstance(error, dict) else {}
            raise ServeSimulationError(
                message,
                status=status,
                payload=payload,
                kind=str(error.get("kind", "unknown")),
                attempts=int(error.get("attempts", 0)),
            )
        raise ServeError(message, status=status, payload=payload)

    # -- endpoints -----------------------------------------------------

    def run(
        self, config: Union[ExperimentConfig, Dict]
    ) -> ExperimentResult:
        """Run (or fetch) one experiment; returns the decoded result.

        ``config`` may be an :class:`ExperimentConfig` or a plain dict
        in the batch-spec shape.  Retries on 429 per the client's
        retry policy; all other failures raise their
        :class:`ServeError` subclass.
        """
        return self.run_detailed(config).result

    def run_detailed(
        self, config: Union[ExperimentConfig, Dict]
    ) -> ServeRunOutcome:
        """Like :meth:`run` but returns the full :class:`ServeRunOutcome`
        (cache tier, summary text, approximate flag, raw payload)."""
        if isinstance(config, ExperimentConfig):
            config = config_to_dict(config)
        attempts = 0
        while True:
            status, headers, payload = self.request(
                f"{API_PREFIX}/run", body={"config": config}
            )
            if status == 429 and attempts < self.max_retries:
                attempts += 1
                retry_after = headers.get("retry-after")
                delay = float(retry_after) if retry_after else 0.05
                self._sleep(max(0.0, min(delay, self.retry_cap_s)))
                continue
            self._raise_for(status, headers, payload)
            try:
                result = result_from_cache_dict(payload["result"])
            except (KeyError, TypeError, ValueError) as exc:
                raise ServeError(
                    f"malformed run response: {exc}",
                    status=status,
                    payload=payload,
                ) from exc
            return ServeRunOutcome(
                key=str(payload.get("key", "")),
                tier=str(payload.get("tier", "")),
                result=result,
                summary=str(payload.get("summary", "")),
                approximate=bool(payload.get("approximate", False)),
                payload=payload,
            )

    def stats(self) -> Dict:
        """The service counters (``GET /v1/stats``)."""
        status, headers, payload = self.request(f"{API_PREFIX}/stats")
        self._raise_for(status, headers, payload)
        return payload

    def metrics(self) -> Dict:
        """The raw metrics dump (``GET /v1/metrics``)."""
        status, headers, payload = self.request(f"{API_PREFIX}/metrics")
        self._raise_for(status, headers, payload)
        return payload

    def healthz(self) -> Dict:
        """The health report (``GET /v1/healthz``), whatever the status.

        Health is a report, not a precondition: a draining server
        answers 503 with a meaningful body, so this method returns the
        body instead of raising (transport failures still raise
        :class:`ServeConnectionError`).
        """
        _status, _headers, payload = self.request(f"{API_PREFIX}/healthz")
        return payload
