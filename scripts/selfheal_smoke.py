#!/usr/bin/env python3
"""Chaos smoke test of the self-healing serve layer (CI ``serve`` job).

Runs real server subprocesses and proves the resilience contract from
the outside:

1. **Worker chaos**: with a parallel executor, SIGKILL a worker process
   mid-batch.  The pool is rebuilt, the killed config is adjudicated in
   an isolated child, both admitted requests still complete with 200,
   and ``/stats`` records the worker restart.
2. **Queue saturation + analytical degradation**: with ``--degrade
   analytical`` and a full queue, an overflow request is answered 200
   with ``"approximate": true`` and a body that matches the in-process
   closed-form power model byte for byte; ``/healthz`` reports
   ``degraded`` (still ready); a repeat of the same config once the
   queue clears is *simulated* -- degraded answers are never cached.
3. **Circuit breaker**: consecutive timeout failures for one config
   family trip its breaker; the next request for the family is answered
   analytically with ``degraded_reason: breaker_open``, ``/healthz``
   lists the open family, and a different family keeps simulating.

Run from the repository root::

    python scripts/selfheal_smoke.py
"""

from __future__ import annotations

import json
import os
import pathlib
import re
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

#: ~0.2 s of wall clock per simulation -- the "fast" config family.
FAST = {"workload": "mixB", "window_ns": 20_000.0, "epoch_ns": 5_000.0}
#: ~11 s of wall clock -- long enough to SIGKILL a worker mid-run.
SLOW = {"workload": "mixB", "window_ns": 1_000_000.0, "epoch_ns": 250_000.0}

FAILURES = []


def check(ok: bool, label: str, detail: str = "") -> None:
    """Record one assertion; failures are fatal at exit, not mid-run."""
    status = "ok" if ok else "FAIL"
    print(f"[selfheal-smoke] {status}: {label}"
          + (f" ({detail})" if detail else ""), flush=True)
    if not ok:
        FAILURES.append(label)


def request(base: str, path: str, body=None, timeout: float = 180.0):
    """(status, headers, parsed JSON body) for one HTTP round trip."""
    req = urllib.request.Request(
        base + path,
        data=None if body is None else json.dumps(body).encode(),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            return resp.status, dict(resp.headers), json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, dict(exc.headers), json.loads(exc.read())


def start_server(extra_flags, env):
    """Launch ``repro-mnet serve`` and return (process, base URL)."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
         "--no-cache", *extra_flags],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=env, cwd=REPO,
    )
    line = proc.stdout.readline()
    match = re.search(r"http://([\d.]+):(\d+)", line)
    if not match:
        proc.kill()
        raise RuntimeError(f"server did not announce its address: {line!r}")
    return proc, f"http://{match.group(1)}:{match.group(2)}"


def stop_server(proc, label: str) -> None:
    """SIGTERM the server and check it drains to exit 0."""
    proc.send_signal(signal.SIGTERM)
    try:
        code = proc.wait(timeout=120)
    except subprocess.TimeoutExpired:
        proc.kill()
        code = None
    check(code == 0, f"{label}: server drained and exited 0", f"exit={code}")


def child_pids(pid: int):
    """Direct children of ``pid`` (worker processes), via /proc."""
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = (pathlib.Path("/proc") / entry / "stat").read_text()
        except OSError:
            continue
        # Field 4 of /proc/<pid>/stat is the ppid (after the comm field,
        # which may contain spaces but is parenthesised).
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        if ppid == pid:
            children.append(int(entry))
    return children


def expected_analytical_result(config: dict) -> dict:
    """The in-process closed-form result the degraded body must match."""
    from repro.analysis.power_model import predict_experiment_result
    from repro.harness.io import config_from_dict, result_to_cache_dict

    expected = result_to_cache_dict(
        predict_experiment_result(config_from_dict(config))
    )
    # Normalize through JSON so the comparison sees exactly what the
    # wire carried (e.g. tuples become lists on both sides).
    return json.loads(json.dumps(expected))


def scenario_worker_chaos(env) -> None:
    """SIGKILL a pool worker mid-batch; both requests must complete."""
    server, base = start_server(
        ["--jobs", "2", "--queue-limit", "2", "--degrade", "analytical",
         "--batch-window-ms", "300",
         "--breaker-threshold", "0"],
        env,
    )
    try:
        # Two distinct slow configs coalesce into one 2-worker batch.
        outcomes = [None, None]

        def fire(i: int) -> None:
            cfg = dict(SLOW, seed=101 + i)
            outcomes[i] = request(base, "/v1/run", {"config": cfg})

        threads = [threading.Thread(target=fire, args=(i,)) for i in (0, 1)]
        for t in threads:
            t.start()
        # Wait until both are dispatched, then until workers exist.
        workers = []
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            _, _, stats = request(base, "/stats")
            workers = child_pids(server.pid)
            if stats["in_flight"] >= 2 and workers:
                break
            time.sleep(0.2)
        check(bool(workers), "worker chaos: pool workers spawned",
              f"pids={workers}")
        time.sleep(1.0)  # let the workers get into their simulations
        victims = child_pids(server.pid)
        if victims:
            os.kill(victims[0], signal.SIGKILL)
            print(f"[selfheal-smoke] SIGKILLed worker {victims[0]}",
                  flush=True)

        # Queue is saturated (limit 2, 2 in flight): an overflow request
        # is answered by the analytical model, not 429.
        overflow = dict(FAST, seed=103)
        status, _, body = request(base, "/v1/run", {"config": overflow})
        check(status == 200 and body.get("approximate") is True,
              "saturated queue answers 200 approximate",
              f"status={status}")
        check(body.get("degraded_reason") == "queue_full",
              "degraded reason is queue_full",
              f"reason={body.get('degraded_reason')}")
        check(body.get("result") == expected_analytical_result(overflow),
              "degraded body matches the in-process closed-form model")
        check("tolerance" in body and "relative" in body["tolerance"],
              "degraded body carries a tolerance band")

        status, _, health = request(base, "/healthz")
        check(status == 200 and health["status"] == "degraded",
              "healthz reports degraded (still 200) after incidents",
              f"status={health.get('status')}")
        status, _, ready = request(base, "/healthz/ready")
        check(status == 200 and ready["ready"] is True,
              "degraded service stays ready")

        for t in threads:
            t.join(timeout=180)
        codes = [o and o[0] for o in outcomes]
        check(codes == [200, 200],
              "both admitted requests completed despite the worker kill",
              f"codes={codes}")
        _, _, stats = request(base, "/stats")
        restarts = stats.get("supervisor", {}).get("worker_restarts", 0)
        check(restarts >= 1, "/stats recorded the worker pool rebuild",
              f"worker_restarts={restarts}")
        check(stats["degraded"]["queue_full"] >= 1,
              "/stats recorded the degraded answer",
              f"degraded={stats['degraded']}")
        check(stats["rejected_queue_full"] == 0,
              "no hard 429s were served in analytical mode")

        # The degraded config must not have been cached: now that the
        # queue is clear, the same config is *simulated*.
        status, _, body = request(base, "/v1/run", {"config": overflow})
        check(status == 200 and body.get("tier") == "simulated",
              "degraded answer was never cached (repeat simulates)",
              f"tier={body.get('tier')}")
        status, _, body = request(base, "/v1/run", {"config": overflow})
        check(status == 200 and body.get("tier") == "memory",
              "the simulated repeat is cached normally",
              f"tier={body.get('tier')}")
    finally:
        stop_server(server, "worker chaos")


def scenario_breaker(env) -> None:
    """Timeout failures trip a family's breaker; it degrades, not 500s."""
    server, base = start_server(
        ["--timeout", "2", "--breaker-threshold", "2",
         "--breaker-cooldown", "300", "--degrade", "analytical",
         "--batch-window-ms", "10"],
        env,
    )
    try:
        # Two consecutive timeouts for the (daisychain) family.
        for seed in (201, 202):
            cfg = dict(SLOW, seed=seed)
            status, _, body = request(base, "/v1/run", {"config": cfg})
            check(status == 500
                  and body.get("error", {}).get("kind") == "timeout",
                  f"slow config seed={seed} fails with a structured timeout",
                  f"status={status} body={body.get('error')}")

        # The breaker is open: the family degrades to the analytical
        # model instead of burning another executor slot.
        tripped = dict(SLOW, seed=203)
        status, _, body = request(base, "/v1/run", {"config": tripped})
        check(status == 200 and body.get("approximate") is True,
              "open breaker answers 200 approximate",
              f"status={status}")
        check(body.get("degraded_reason") == "breaker_open",
              "degraded reason is breaker_open",
              f"reason={body.get('degraded_reason')}")
        check(body.get("result") == expected_analytical_result(tripped),
              "breaker-degraded body matches the closed-form model")

        status, _, health = request(base, "/healthz")
        check(health.get("open_breakers"),
              "healthz lists the open breaker family",
              f"open={health.get('open_breakers')}")
        check(health["status"] == "degraded" and status == 200,
              "healthz is degraded while a breaker is open")

        # A different family (same topology family is tripped; the fast
        # *small-window* config shares it, so use another topology).
        other = dict(FAST, seed=204, topology="star")
        status, _, body = request(base, "/v1/run", {"config": other})
        check(status == 200 and body.get("tier") == "simulated",
              "untripped family still simulates normally",
              f"status={status} tier={body.get('tier')}")

        _, _, stats = request(base, "/stats")
        families = stats["breakers"]["families"]
        open_families = [f for f, b in families.items()
                        if b["state"] == "open"]
        check(len(open_families) == 1,
              "exactly one family's breaker is open",
              f"families={ {f: b['state'] for f, b in families.items()} }")
        check(stats["degraded"]["breaker_open"] >= 1,
              "/stats recorded the breaker-degraded answer")
    finally:
        stop_server(server, "breaker")


def main() -> int:
    """Run the chaos sequence; returns a process exit code."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    scenario_worker_chaos(env)
    scenario_breaker(env)
    if FAILURES:
        print(f"[selfheal-smoke] {len(FAILURES)} check(s) FAILED: {FAILURES}")
        return 1
    print("[selfheal-smoke] all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
