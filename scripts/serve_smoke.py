#!/usr/bin/env python3
"""End-to-end smoke test of ``repro-mnet serve`` (the CI ``serve`` job).

Starts a real server subprocess and proves the serving contract from
the outside, driving the versioned ``/v1/`` API through the supported
Python SDK (:class:`repro.serve.client.ServeClient`):

1. N identical concurrent requests trigger exactly ONE simulation
   (``/v1/stats`` shows ``simulated == 1`` and
   ``dedup_coalesced == N-1``);
2. a repeat request is answered by the memory tier;
3. the server's ``summary`` response is byte-identical to
   ``repro-mnet run`` stdout for the same config (both read the shared
   result store, so even the wall-time row matches);
4. the unversioned alias paths answer identically to ``/v1/`` but carry
   a ``Deprecation`` header (and ``/v1/`` paths do not);
5. overload against a bounded queue yields HTTP 429 with a
   ``Retry-After`` header while admitted requests still complete;
6. SIGTERM drains gracefully: the in-flight request completes with 200,
   new requests are refused with 503, the journal holds the completed
   work, and the process exits 0.

Run from the repository root::

    python scripts/serve_smoke.py                  # JSON store backend
    python scripts/serve_smoke.py --store sqlite   # SQLite store backend
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import re
import signal
import subprocess
import sys
import tempfile
import threading
import time

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.serve.client import (  # noqa: E402 - path bootstrap above
    ServeClient,
    ServeError,
    ServeRejectedError,
)

#: The shared test config, expressible identically through CLI flags.
CONFIG = {"workload": "mixB", "window_ns": 60_000.0, "epoch_ns": 15_000.0}
RUN_FLAGS = ["--workload", "mixB", "--window-us", "60", "--epoch-us", "15"]

FAILURES = []


def check(ok: bool, label: str, detail: str = "") -> None:
    """Record one assertion; failures are fatal at exit, not mid-run."""
    status = "ok" if ok else "FAIL"
    print(f"[serve-smoke] {status}: {label}" + (f" ({detail})" if detail else ""))
    if not ok:
        FAILURES.append(label)


def main() -> int:
    """Run the smoke sequence; returns a process exit code."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--store", choices=["json", "sqlite"], default="json",
                        help="result-store backend for server and CLI")
    args = parser.parse_args()

    workdir = pathlib.Path(tempfile.mkdtemp(prefix="serve-smoke-"))
    cache_dir = workdir / "cache"
    journal = workdir / "journal.jsonl"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    cli = [sys.executable, "-m", "repro.cli"]
    store_flags = ["--store", args.store]

    server = subprocess.Popen(
        cli + [
            "serve", "--port", "0", "--cache-dir", str(cache_dir),
            *store_flags,
            "--queue-limit", "2", "--batch-window-ms", "20",
            "--journal", str(journal),
        ],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, env=env, cwd=REPO,
    )
    try:
        line = server.stdout.readline()
        match = re.search(r"http://([\d.]+):(\d+)", line)
        if not match:
            print(f"server did not announce its address: {line!r}")
            return 1
        base = f"http://{match.group(1)}:{match.group(2)}"
        print(f"[serve-smoke] server at {base} (--store {args.store})")
        client = ServeClient(base, timeout_s=120.0)

        health = client.healthz()
        check(health["status"] == "healthy", "healthz reports healthy")
        check(health["live"] is True and health["ready"] is True,
              "liveness and readiness probes are green")

        # 1. Single-flight dedup: N identical concurrent requests.
        n = 8
        outcomes = [None] * n

        def fire(i: int) -> None:
            try:
                outcomes[i] = client.run_detailed(CONFIG)
            except ServeError as exc:
                outcomes[i] = exc

        threads = [threading.Thread(target=fire, args=(i,)) for i in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        errors = [o for o in outcomes if isinstance(o, ServeError)]
        check(not errors, "identical concurrent requests all succeed",
              str(errors))
        stats = client.stats()
        check(stats["tiers"]["simulated"] == 1,
              "exactly one simulation ran",
              f"simulated={stats['tiers']['simulated']}")
        check(stats["dedup_coalesced"] == n - 1,
              f"{n - 1} requests coalesced onto the flight",
              f"coalesced={stats['dedup_coalesced']}")
        check(stats["disk_cache"].get("backend") == args.store,
              f"disk tier reports the {args.store} backend",
              str(stats["disk_cache"].get("backend")))

        # 2. Repeat request hits the memory tier.
        outcome = client.run_detailed(CONFIG)
        check(outcome.tier == "memory",
              "repeat request served by the memory tier",
              f"tier={outcome.tier}")
        summary = outcome.summary

        # 3. Byte-identical to `repro-mnet run` (shared result store).
        run = subprocess.run(
            cli + ["run", *RUN_FLAGS, "--cache-dir", str(cache_dir),
                   *store_flags],
            capture_output=True, text=True, env=env, cwd=REPO,
        )
        check(run.returncode == 0, "repro-mnet run exits 0", run.stderr.strip())
        check("# 0 simulated" in run.stderr,
              "CLI run was served from the shared result store",
              run.stderr.strip())
        check(run.stdout == summary + "\n",
              "server summary is byte-identical to repro-mnet run stdout")

        # 4. /v1/ vs unversioned aliases: same answers, Deprecation
        # header only on the aliases.
        for path in ("/healthz", "/stats", "/metrics"):
            s_v1, h_v1, b_v1 = client.request(f"/v1{path}")
            s_old, h_old, b_old = client.request(path)
            # Values may move between the two calls (counters,
            # heartbeat ages); the alias contract is same status and
            # same body shape.
            b_v1 = sorted(b_v1)
            b_old = sorted(b_old)
            check(s_v1 == s_old and b_v1 == b_old,
                  f"alias {path} answers like /v1{path}",
                  f"{s_old} vs {s_v1}")
            check(h_old.get("deprecation") == "true"
                  and "deprecation" not in h_v1,
                  f"alias {path} carries Deprecation, /v1{path} does not")
        status, headers, body = client.request("/run", body={"config": CONFIG})
        check(status == 200 and body.get("tier") == "memory",
              "POST /run alias serves from cache",
              f"status={status} tier={body.get('tier')}")
        check(headers.get("deprecation") == "true"
              and "successor-version" in headers.get("link", ""),
              "POST /run alias carries Deprecation + successor Link")

        # 5. Backpressure: 10 distinct configs against queue_limit=2,
        # observed through a client with retries disabled.
        raw_client = ServeClient(base, timeout_s=120.0, max_retries=0)
        m = 10
        overload = [None] * m

        def overload_fire(i: int) -> None:
            cfg = dict(CONFIG, seed=100 + i, window_ns=200_000.0)
            try:
                overload[i] = raw_client.run_detailed(cfg)
            except ServeError as exc:
                overload[i] = exc

        threads = [
            threading.Thread(target=overload_fire, args=(i,)) for i in range(m)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        rejected = [o for o in overload
                    if isinstance(o, ServeRejectedError) and o.status == 429]
        served = [o for o in overload if not isinstance(o, ServeError)]
        other = [o for o in overload
                 if isinstance(o, ServeError) and o not in rejected]
        check(bool(rejected), "overload produced 429 rejections",
              f"rejected={len(rejected)} served={len(served)} other={other}")
        check(bool(served), "admitted overload requests completed")
        check(all(o.retry_after_s is not None for o in rejected),
              "429 rejections carry Retry-After")
        stats = client.stats()
        check(stats["rejected_queue_full"] == len(rejected),
              "/v1/stats rejection counter matches observed 429s",
              f"stats={stats['rejected_queue_full']} observed={len(rejected)}")

        # 6. Retry-on-429 path: a retrying client eventually lands the
        # previously rejected config (queue is idle again by now).
        retrying = ServeClient(base, timeout_s=120.0, max_retries=5)
        retry_cfg = dict(CONFIG, seed=100, window_ns=200_000.0)
        retried = retrying.run_detailed(retry_cfg)
        check(retried.tier in ("memory", "disk", "simulated"),
              "retrying client lands a previously rejected config",
              f"tier={retried.tier}")

        # 7. Graceful drain: SIGTERM with one request in flight.
        inflight = {}

        def slow_fire() -> None:
            cfg = dict(CONFIG, seed=999, window_ns=300_000.0)
            try:
                inflight["outcome"] = client.run_detailed(cfg)
            except ServeError as exc:
                inflight["outcome"] = exc

        slow = threading.Thread(target=slow_fire)
        slow.start()
        time.sleep(0.5)  # let it be admitted and dispatched
        server.send_signal(signal.SIGTERM)
        # The signal reaches the drain asynchronously: wait until
        # /v1/healthz says draining, so the probe cannot be admitted
        # first.  A failed connection means the drain already finished.
        probe = ServeClient(base, timeout_s=5.0, max_retries=0)
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            try:
                status, _, body = probe.request("/v1/healthz")
            except ServeError:
                break
            if status == 503 and body.get("status") == "draining":
                break
            time.sleep(0.01)
        # New work during the drain must be refused with 503 (the
        # listener may already be gone if the drain won the race).
        try:
            probe.run(dict(CONFIG, seed=7))
            check(False, "request during drain refused with 503",
                  "unexpected 200")
        except ServeRejectedError as exc:
            check(exc.status == 503, "request during drain refused with 503",
                  f"status={exc.status}")
        except ServeError:
            print("[serve-smoke] ok: drain finished before the probe connected")
        slow.join(timeout=120)
        check(not slow.is_alive(), "in-flight request resolved during drain")
        outcome = inflight.get("outcome")
        check(outcome is not None and not isinstance(outcome, ServeError),
              "in-flight request completed with 200 during drain",
              f"outcome={outcome!r}")
        try:
            exit_code = server.wait(timeout=60)
        except subprocess.TimeoutExpired:
            server.kill()
            exit_code = None
        check(exit_code == 0, "server exited 0 after SIGTERM",
              f"exit={exit_code}")
        done_lines = [
            json.loads(line)
            for line in journal.read_text().splitlines()
            if line.strip()
        ]
        check(any(rec["kind"] == "done" for rec in done_lines),
              "journal holds completed work after drain",
              f"{len(done_lines)} records")
    finally:
        if server.poll() is None:
            server.kill()
            server.wait()
        out, err = server.communicate()
        if FAILURES:
            print("---- server stdout ----\n" + out)
            print("---- server stderr ----\n" + err)

    if FAILURES:
        print(f"[serve-smoke] {len(FAILURES)} check(s) FAILED: {FAILURES}")
        return 1
    print("[serve-smoke] all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
