"""Workload ``serve_mixed``: open-loop ``/v1/run`` traffic at two fixed rates.

The run is split into ``ROUNDS`` rounds.  Each round starts a
``repro-mnet serve`` subprocess (default flags, ``--jobs 1``) on its own
freshly seeded copy of the warm store -- one set-up sample -- and the
load generator, one process with at most ``CONNECTIONS`` open
connections (one per request, as ``ServeClient`` does), sends it a
seeded mix of three kinds of key, first at ``LIGHT_RPS``, then at
``LOADED_RPS``.  Every reported figure is the median of its per-round
values, so a stretch of slow host time spoils one round, not the run.
The keys are:

* hot -- a few warm keys asked again and again, some as overlapping
  pairs: the memory tier answers them;
* warm -- any of the 688 seeded keys, more than the server's 512-entry
  LRU holds; a round's server starts with an empty LRU, so most warm
  requests are first touches and the disk tier answers them;
* cold -- unique short-window configs (some sent as overlapping pairs,
  which single-flight joins): the dispatcher batches them, the executor
  simulates them and the store writes them.

Every response is checked: warm and hot results must equal the seeded
payload, a repeated cold key must get its first answer again, cold
results must match recorded digests (or a local re-simulation of a
sample when the seed has none), and no response may be approximate.

Set-up times are rescaled to the reference host speed by the probes
taken before and after each set-up (``hostspeed.py``), as in the other
workloads.  The phases' latencies and service times are host time: in
two sets of 30 rounds they moved with the probe at a log-log slope of
only 0.0 to 0.4 (much of a response is the server waiting for the
client, a thread or the dispatcher's fixed batch linger, not interpreter
work), and rescaling them by the probe raised their round-to-round
spread from 0.04-0.07 to 0.10-0.13.
"""

from __future__ import annotations

import json
import random
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from perfbench.common import (
    OUT_DIR,
    ROOT,
    WORK_DIR,
    Report,
    env_with_source,
    fresh_dir,
    load_reference,
    payload_digest,
    peak_rss_mb_pid,
    percentile,
    samples_beyond,
)
from perfbench.grids import seed_store, warm_results
from perfbench.hostspeed import Probes, rescale
from perfbench.loadgen import Record, Request, http_sender, lag_p95_ms, run_open_loop
from perfbench.settings import (
    CONNECTIONS,
    LATENCY_LIMIT_MS,
    LIGHT_RPS,
    LIGHT_SHARE,
    LOADED_RPS,
    SETUP_REPEATS,
)

#: Rounds per run; each starts its own server, which is one set-up.
ROUNDS = SETUP_REPEATS

#: Hot keys per run, drawn from the warm keys.
HOT_KEYS = 8
#: Kind of request in each slot of a repeating 20-slot cycle: 3 hot,
#: 15 warm and 2 cold.  A fixed cycle spaces cold requests evenly, so the
#: seed changes which keys are asked for but not how requests queue.
#: Warm keys are most of the traffic, so the light phase's median falls
#: inside the disk tier's latency rather than between two tiers, and cold
#: requests are about a tenth, so a phase's p95 falls near the middle of
#: the simulated answers' latencies rather than at either edge.
CYCLE = tuple(
    "cold" if slot in (9, 19) else "hot" if slot in (0, 7, 14) else "warm"
    for slot in range(20)
)
#: Every n-th hot and every n-th cold request is sent as an overlapping
#: pair (the same request twice at the same due time).
HOT_PAIR_EVERY = 3
COLD_PAIR_EVERY = 5
#: Simulated window of a cold config (ns).  A 3 us sp.D run (about 2,000
#: events) keeps a cold answer near 25 ms, so the fixed batch linger is a
#: large share of it and the tail moves less with the host's speed; the
#: simulator core itself is measured by ``cold_sweep``.
COLD_WINDOW_NS = 3_000.0
#: Cold keys re-simulated locally when the seed has no recorded digests.
COLD_SAMPLE = 12


def cold_config(seed: int, index: int):
    """The ``index``-th unique cold config of a run."""
    from repro.harness.experiment import ExperimentConfig

    return ExperimentConfig(
        workload="sp.D", scale="small", window_ns=COLD_WINDOW_NS,
        seed=seed * 100_000 + index,
    )


def _body(config) -> bytes:
    from repro.harness.io import config_to_dict

    return json.dumps({"config": config_to_dict(config)}).encode("utf-8")


Round = Tuple[List[Request], List[Request]]


def build_schedule(seed: int, results: Dict, seconds: float,
                   rounds: int = ROUNDS) -> Tuple[List[Round], Dict]:
    """Seeded ``(light, loaded)`` phases of each round plus ``{cold key: config}``.

    A round lasts ``seconds / rounds``, of which ``LIGHT_SHARE`` is light.
    """
    rng = random.Random(f"serve:{seed}")
    warm_keys = sorted(results)
    hot_keys = rng.sample(warm_keys, HOT_KEYS)
    cold: Dict[str, object] = {}
    counts = {"hot": 0, "warm": 0, "cold": 0}
    light_s = seconds / rounds * LIGHT_SHARE
    loaded_s = seconds / rounds - light_s
    schedule: List[Round] = []
    for _ in range(rounds):
        phases = []
        for phase, rate, phase_s in (("light", LIGHT_RPS, light_s),
                                     ("loaded", LOADED_RPS, loaded_s)):
            requests: List[Request] = []
            for slot in range(max(1, round(rate * phase_s))):
                kind = CYCLE[slot % len(CYCLE)]
                counts[kind] += 1
                if kind == "cold":
                    config = cold_config(seed, len(cold))
                    key = config.cache_key()
                    cold[key] = config
                    pair = counts[kind] % COLD_PAIR_EVERY == 0
                else:
                    key = rng.choice(hot_keys if kind == "hot" else warm_keys)
                    config = results[key].config
                    pair = kind == "hot" and counts[kind] % HOT_PAIR_EVERY == 0
                request = Request(slot / rate, _body(config), kind, key, phase)
                requests += [request, request] if pair else [request]
            phases.append(requests)
        schedule.append((phases[0], phases[1]))
    return schedule, cold


# ----------------------------------------------------------------------
# The server
# ----------------------------------------------------------------------
class ServerProcess:
    """``repro-mnet serve`` in a subprocess, stopped with SIGTERM."""

    def __init__(self, store_dir: Path, log: Path) -> None:
        self.log = log
        self._log_fh = open(log, "w")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--jobs", "1", "--cache-dir", str(store_dir)],
            cwd=str(ROOT), env=env_with_source(),
            stdout=self._log_fh, stderr=subprocess.STDOUT,
        )
        self.port = 0

    def wait_ready(self, timeout: float = 60.0) -> None:
        """Block until ``/v1/healthz`` answers 200."""
        deadline = time.monotonic() + timeout
        while not self.port:
            match = re.search(r"listening on http://127\.0\.0\.1:(\d+)",
                              self.log.read_text())
            if match:
                self.port = int(match.group(1))
            elif self.proc.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError(f"server did not start: {self.log.read_text()}")
            else:
                time.sleep(0.002)
        while True:
            try:
                with urllib.request.urlopen(self.url("/v1/healthz"), timeout=5) as r:
                    if r.status == 200:
                        return
            except OSError:
                pass
            if self.proc.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError(f"server never became healthy: {self.log.read_text()}")
            time.sleep(0.002)

    def url(self, path: str) -> str:
        return f"http://127.0.0.1:{self.port}{path}"

    def stats(self) -> Dict:
        with urllib.request.urlopen(self.url("/v1/stats"), timeout=30) as r:
            return json.loads(r.read())

    def stop(self) -> None:
        """SIGTERM (graceful drain), then wait; kill if it will not exit."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log_fh.close()


def _start(seed: int, index: int, probes: Probes) -> Tuple[float, ServerProcess, Tuple]:
    """Seed a fresh store copy and start a server on it; ``(seconds, server,
    warm)``, the seconds rescaled by the probes taken before and after."""
    from repro.store import JsonDirStore

    before = probes.take()
    start = time.perf_counter()
    warm = warm_results(seed)
    store_dir = fresh_dir(f"serve/store{index}")
    seed_store(JsonDirStore(store_dir), warm[2])
    server = ServerProcess(store_dir, WORK_DIR / "serve" / f"server{index}.log")
    try:
        server.wait_ready()
    except BaseException:
        server.stop()
        raise
    elapsed = time.perf_counter() - start
    return rescale(elapsed, [before, probes.take()]), server, warm


class InProcessServer:
    """The same service hosted in this process, so span wrappers see it."""

    def __init__(self, store_dir: Path) -> None:
        from repro.harness.executor import make_executor
        from repro.serve import ExperimentService, ServiceSettings
        from repro.serve.http import ExperimentServer
        from repro.store import make_store

        self.service = ExperimentService(
            executor=make_executor(1), disk_cache=make_store("json", store_dir),
            settings=ServiceSettings(),
        )
        self.httpd = ExperimentServer(("127.0.0.1", 0), self.service)
        self.port = self.httpd.port
        self.service.start()
        self._thread = threading.Thread(target=self.httpd.serve_forever,
                                        name="bench-serve", daemon=True)
        self._thread.start()

    def stop(self) -> None:
        self.service.drain(timeout=60)
        self.httpd.shutdown()
        self._thread.join(timeout=60)
        self.httpd.server_close()


# ----------------------------------------------------------------------
# Checking and reducing
# ----------------------------------------------------------------------
def expected_payloads(results: Dict) -> Dict[str, Dict]:
    """The JSON form of each seeded result, as ``/v1/run`` returns it."""
    from repro.harness.io import result_to_cache_dict

    return {k: json.loads(json.dumps(result_to_cache_dict(r))) for k, r in results.items()}


def check_records(records: List[Record], expected: Dict[str, Dict],
                  first: Dict[str, Dict], report: Report) -> List[bool]:
    """Count failures; returns per-record correctness (same order)."""
    ok: List[bool] = []
    report.count(len(records))
    for record in records:
        request, payload = record.request, record.payload
        problem = None
        if record.status != 200 or payload is None:
            problem = f"HTTP {record.status} {record.error or (payload or {}).get('error')}"
        elif payload.get("approximate"):
            problem = "approximate answer"
        else:
            result = payload.get("result")
            want = expected.get(request.key)
            if want is None:
                want = first.setdefault(request.key, result)
            if result != want:
                problem = "result differs from the expected payload"
        if problem is not None:
            report.fail(f"{request.phase}/{request.kind} {request.key}: {problem}")
        ok.append(problem is None)
    return ok


def verify_cold(seed: int, first: Dict[str, Optional[Dict]], cold: Dict,
                report: Report) -> None:
    """Check cold answers: recorded digests where the seed has them, else
    a seeded sample re-simulated locally with ``run_experiment``."""
    from repro.harness.experiment import run_experiment
    from repro.harness.io import result_to_cache_dict

    reference = load_reference().get(f"serve_mixed:{seed}", {})
    recorded = sorted(k for k in first if k in reference)
    others = sorted(k for k in first if k not in reference)
    sample = random.Random(f"verify:{seed}").sample(others, min(COLD_SAMPLE, len(others)))
    report.count(len(recorded) + len(sample))
    for key in recorded + sample:
        if key in reference:
            want = reference[key]
        else:
            want = payload_digest(result_to_cache_dict(run_experiment(cold[key])))
        got = payload_digest(first[key]) if first[key] is not None else None
        if got != want:
            report.fail(f"cold {key}: digest {got} != {want}")


def phase_figures(records: List[Record], ok: List[bool]) -> Dict[str, float]:
    """One round's figures for one phase."""
    latencies = [r.latency_ms for r in records]
    good = sum(1 for r, fine in zip(records, ok) if fine and r.latency_ms <= LATENCY_LIMIT_MS)
    return {
        "p50_ms": statistics.median(latencies),
        "p95_ms": percentile(latencies, 0.95),
        "p95_beyond": samples_beyond(len(latencies), 0.95),
        # Per second of the phase as it ran: from its first due time (0)
        # to its last response, so a server that falls behind loses goodput.
        "goodput_rps": good / max(r.done for r in records),
        "service_s": service_s(records),
        "requests": len(records),
    }


def drive(port: int, light: List[Request], loaded: List[Request]) -> Tuple[List, List]:
    """Run one round's two phases against ``port``; ``(light, loaded)`` records."""
    connect = http_sender("127.0.0.1", port)
    return (run_open_loop(light, connect, CONNECTIONS),
            run_open_loop(loaded, connect, CONNECTIONS))


def sum_stats(rounds: List[Dict]) -> Dict[str, float]:
    """The ``/v1/stats`` counters this benchmark reads, summed over rounds."""
    out: Dict[str, float] = {}
    for stats in rounds:
        for name, value in (
            ("memory", stats["tiers"]["memory"]),
            ("disk", stats["tiers"]["disk"]),
            ("simulated", stats["tiers"]["simulated"]),
            ("requests", stats["requests_total"]),
            ("coalesced", stats["dedup_coalesced"]),
            ("batches", stats["batches"]),
            ("rejected", stats["rejected_queue_full"] + stats["rejected_draining"]
             + stats["rejected_breaker_open"]),
            ("writes", stats["disk_cache"]["writes"]),
        ):
            out[name] = out.get(name, 0) + value
    return out


def service_s(records: List[Record]) -> float:
    """Seconds the server spent answering ``records``, summed over requests."""
    return sum(r.done - r.sent for r in records)


def _tiers(records: List[Record], tier: str) -> List[float]:
    return [r.latency_ms for r in records
            if r.payload is not None and r.payload.get("tier") == tier]


def run(seed: int, seconds: float, trace: bool, report: Report) -> None:
    """Measure the workload and fill ``report``."""
    probes = Probes()
    setups: List[float] = []
    rounds: List[Round] = []
    stats: List[Dict] = []
    rss: List[float] = []
    schedule: Optional[List[Round]] = None
    for index in range(ROUNDS):
        elapsed, server, warm = _start(seed, index, probes)
        try:
            setups.append(elapsed)
            if schedule is None:
                results = warm[2]
                schedule, cold = build_schedule(seed, results, seconds)
            rounds.append(drive(server.port, *schedule[index]))
            stats.append(server.stats())
            rss.append(peak_rss_mb_pid(server.proc.pid) or 0.0)
        finally:
            server.stop()

    expected = expected_payloads(results)
    first: Dict[str, Dict] = {}
    ok = [(check_records(light, expected, first, report),
           check_records(loaded, expected, first, report)) for light, loaded in rounds]
    verify_cold(seed, {k: first.get(k) for k in cold}, cold, report)
    everything = [r for light, loaded in rounds for r in light + loaded]
    report.add("setup_s", statistics.median(setups), samples=len(setups))
    if trace:
        _traced(seed, results, schedule, cold, everything, sum_stats(stats), report)
        return
    figures = {"light": [], "loaded": []}
    for (light, loaded), (ok_light, ok_loaded) in zip(rounds, ok):
        figures["light"].append(phase_figures(light, ok_light))
        figures["loaded"].append(phase_figures(loaded, ok_loaded))
    for phase, per_round in figures.items():
        for name in ("p50_ms", "p95_ms", "goodput_rps", "service_s"):
            unit = report.units.get(name) or "s"
            report.add(f"{phase}.{name}", statistics.median(f[name] for f in per_round),
                       unit, len(per_round))
        report.add(f"{phase}.p95_beyond", min(f["p95_beyond"] for f in per_round), "count")
        report.add(f"{phase}.requests", sum(f["requests"] for f in per_round), "count")
    # Latencies are gated from the light phase: its median is the disk
    # tier's cost and its p95 the middle of the simulated answers.  The
    # loaded phase's tail also carries queueing behind simulations, which
    # amplifies the host's run-to-run speed changes beyond any usable
    # bound, so it is reported in the table.  The loaded phase is gated
    # through its summed service time (send to response, every request),
    # which the server alone decides; its goodput at two thirds of
    # saturation stays near the offered rate unless the server collapses.
    for name, phase, metric in (("wall_s", "loaded", "service_s"),
                                ("p50_ms", "light", "p50_ms"),
                                ("p95_ms", "light", "p95_ms"),
                                ("goodput_rps", "loaded", "goodput_rps")):
        report.add(name, report.metrics[f"{phase}.{metric}"][0], samples=ROUNDS)
    report.add("host.speed", probes.speed(), "ratio", len(probes.samples))
    report.add("peak_rss_mb", statistics.median(rss), samples=len(rss))
    report.add("ok_ratio", 1.0 - report.failed_ratio, samples=report.attempted)
    report.add("loadgen.lag_ms", lag_p95_ms(everything), "ms", len(everything))
    report.add("cold_keys", len(cold), "count")
    for tier in ("memory", "disk", "simulated"):
        report.add(f"serve.{tier}.count", len(_tiers(everything, tier)), "count")


def _serve_layers(records: List[Record], stats: Dict, report: Report) -> None:
    """Client-side tier latencies and ``/v1/stats`` ratios (untraced run)."""
    for tier in ("memory", "disk", "simulated"):
        values = _tiers(records, tier)
        if values:
            report.add(f"serve.{tier}.p50_ms", statistics.median(values), samples=len(values))
    simulated = _tiers(records, "simulated")
    if simulated:
        report.add("serve.simulated.p95_ms", percentile(simulated, 0.95),
                   samples=len(simulated))
    served = stats["memory"] + stats["disk"] + stats["simulated"]
    report.add("serve.memory_hit_ratio", stats["memory"] / served if served else 0.0)
    report.add("serve.disk_hit_ratio", stats["disk"] / served if served else 0.0)
    requests = stats["requests"]
    report.add("serve.dedup_ratio", stats["coalesced"] / requests if requests else 0.0)
    report.add("serve.batch_size",
               stats["simulated"] / stats["batches"] if stats["batches"] else 0.0)
    report.add("serve.rejected", stats["rejected"])
    report.add("loadgen.lag_ms", lag_p95_ms(records), samples=len(records))


def _traced(seed: int, results: Dict, schedule: List[Round], cold: Dict,
            untraced: List[Record], stats: Dict, report: Report) -> None:
    """The same rounds against servers hosted in this process, traced."""
    from repro.store import JsonDirStore

    from perfbench.tracing import Tracing

    _serve_layers(untraced, stats, report)
    tracing = Tracing(executor_layer="serve.executor")
    traced: List[Record] = []
    wall_t = 0.0
    hits = misses = 0
    for index, (light, loaded) in enumerate(schedule):
        store_dir = fresh_dir(f"serve/traced{index}")
        seed_store(JsonDirStore(store_dir), results)
        server = InProcessServer(store_dir)
        try:
            with tracing:
                start = time.perf_counter()
                light_rec, loaded_rec = drive(server.port, light, loaded)
                wall_t += time.perf_counter() - start
        finally:
            server.stop()
        traced += light_rec + loaded_rec
        hits += server.service.disk_cache.hits
        misses += server.service.disk_cache.misses
    first: Dict[str, Dict] = {}
    check_records(traced, expected_payloads(results), first, report)
    untraced_first = {r.request.key: r.payload.get("result") for r in reversed(untraced)
                      if r.request.kind == "cold" and r.payload}
    for key in cold:
        traced_answer, untraced_answer = first.get(key), untraced_first.get(key)
        if (traced_answer is None or untraced_answer is None
                or payload_digest(traced_answer) != payload_digest(untraced_answer)):
            report.fail(f"cold {key}: traced answer differs from untraced answer")
    layers = tracing.layers(wall_t)
    events = sum(p["events_processed"] for p in untraced_first.values() if p)
    if layers["sim.events"] != events:
        report.fail(f"traced events {layers['sim.events']} != untraced {events}")
    if layers["store.put.calls"] != stats["writes"]:
        report.fail(f"traced puts {layers['store.put.calls']} != untraced {stats['writes']}")
    report.add_all(layers)
    report.add("store.get.keys", hits + misses)
    report.add("store.hit_ratio", hits / (hits + misses) if hits + misses else 0.0)
    report.add("traced_wall_s", wall_t)
    report.add("trace_overhead", service_s(traced) / service_s(untraced))
    tracing.write(OUT_DIR / f"trace-serve_mixed-seed{seed}.json", wall_t, layers)
