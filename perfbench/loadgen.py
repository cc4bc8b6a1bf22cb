"""Open-loop load generator: each request is sent at its due time.

Requests carry a due time (seconds from the phase start).  Up to
``connections`` workers take requests in due order, sleep until each is
due and send it; a worker still busy with an earlier request sends late.
Latency is measured from the due time, so a stall is charged to every
request it delays, and ``sent - due`` (the generator's lag) is kept to
show how late the generator itself ran.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from perfbench.common import percentile


@dataclass(frozen=True)
class Request:
    """One scheduled request."""

    due: float
    body: bytes
    kind: str
    key: str
    phase: str


@dataclass
class Record:
    """What happened to one request (times are seconds from phase start)."""

    request: Request
    sent: float
    done: float
    status: int
    payload: Optional[Dict]
    error: Optional[str] = None

    @property
    def latency_ms(self) -> float:
        """Milliseconds from the due time to the end of the response."""
        return (self.done - self.request.due) * 1000.0

    @property
    def lag_ms(self) -> float:
        """Milliseconds the request was sent after its due time."""
        return (self.sent - self.request.due) * 1000.0


Sender = Callable[[Request], Tuple[int, Optional[Dict]]]


def run_open_loop(
    requests: List[Request],
    connect: Callable[[], Sender],
    connections: int,
    clock: Callable[[], float] = time.monotonic,
    sleep: Callable[[float], None] = time.sleep,
) -> List[Record]:
    """Send ``requests`` on schedule over ``connections`` senders.

    ``connect()`` opens one sender (one connection); a sender raising an
    exception records the request as failed (status 0).  With one
    connection the loop runs on the calling thread, which is what the
    fake-clock tests use.
    """
    pending = deque(sorted(requests, key=lambda r: r.due))
    lock = threading.Lock()
    records: List[Record] = []
    start = clock()

    def worker() -> None:
        send = connect()
        while True:
            with lock:
                if not pending:
                    return
                request = pending.popleft()
            wait = request.due - (clock() - start)
            if wait > 0:
                sleep(wait)
            sent = clock() - start
            try:
                status, payload = send(request)
                error = None
            except Exception as exc:  # noqa: BLE001 - recorded as a failure
                status, payload, error = 0, None, f"{type(exc).__name__}: {exc}"
            done = clock() - start
            with lock:
                records.append(Record(request, sent, done, status, payload, error))

    if connections <= 1:
        worker()
    else:
        threads = [threading.Thread(target=worker, name=f"loadgen-{i}")
                   for i in range(connections)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=600)
        if any(thread.is_alive() for thread in threads):
            raise RuntimeError("load generator workers did not finish")
    records.sort(key=lambda r: (r.request.due, r.sent))
    return records


def lag_p95_ms(records: List[Record]) -> float:
    """95th percentile of send time minus due time (ms)."""
    return percentile([r.lag_ms for r in records], 0.95) if records else 0.0


def http_sender(host: str, port: int, timeout: float = 120.0) -> Callable[[], Sender]:
    """A ``connect`` factory posting each request body to ``/v1/run``.

    Like the project's ``ServeClient``, every request uses a fresh
    connection (``Connection: close``); a worker holds at most one open
    connection at a time.
    """

    def connect() -> Sender:
        def send(request: Request) -> Tuple[int, Optional[Dict]]:
            conn = http.client.HTTPConnection(host, port, timeout=timeout)
            try:
                conn.request("POST", "/v1/run", body=request.body,
                             headers={"Content-Type": "application/json",
                                      "Connection": "close"})
                response = conn.getresponse()
                data = response.read()
            finally:
                conn.close()
            try:
                return response.status, json.loads(data)
            except ValueError:
                return response.status, None

        return send

    return connect
