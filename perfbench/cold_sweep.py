"""Workload ``cold_sweep``: a stratified figure-suite sample, simulated cold.

Each repetition builds a fresh ``SweepRunner`` over a fresh default
(JSON) store and runs a whole grid through ``run_all`` with a serial
executor, so every unique config simulates once and is written once.
Repetitions cycle through the grids of the run's traffic seeds
(``grids.cold_seeds``).  Outputs are checked against digests recorded
for the seed (when the seed has them) and against the first run of the
same grid.

Timed figures are rescaled to the reference host speed
(``hostspeed.py``): a probe runs before each grid's first simulation and
after every result callback, and each simulation's time is rescaled by
the mean of the two probes around it.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from perfbench.common import (
    OUT_DIR,
    Report,
    fresh_dir,
    load_reference,
    payload_digest,
    peak_rss_mb_self,
    percentile,
    samples_beyond,
    time_import,
)
from perfbench.grids import cold_grid, cold_seeds
from perfbench.hostspeed import Probes, rescale
from perfbench.settings import SETUP_REPEATS

IMPORTS = ("repro.harness.sweep", "repro.harness.figures", "repro.store")


def _setup(seed: int, probes: Probes) -> float:
    """Import in a fresh interpreter, generate the grids, open a fresh store;
    the host seconds, rescaled by the probes taken before and after."""
    from repro.store import make_store

    before = probes.take()
    start = time.perf_counter()
    time_import(IMPORTS)
    for traffic_seed in cold_seeds(seed):
        cold_grid(traffic_seed)
    make_store("json", fresh_dir("cold/setup"))
    elapsed = time.perf_counter() - start
    return rescale(elapsed, [before, probes.take()])


def timed_executor(probes: Optional[Probes] = None):
    """A ``SerialExecutor`` that times each simulation on this benchmark's clock.

    Each entry of ``times_s`` runs from the end of the previous result
    callback (or the start of ``run_many``) to the end of this one, so it
    covers the simulation, the sweep's store write and the executor glue
    in between.  With ``probes``, a host-speed probe runs before the
    first simulation and after each callback, outside those intervals,
    and ``around_s`` holds the mean of the two probes around each one.
    """
    from repro.harness.executor import SerialExecutor

    @dataclass(frozen=True)
    class TimedExecutor(SerialExecutor):
        times_s: List[float] = field(default_factory=list, compare=False, repr=False)
        around_s: List[float] = field(default_factory=list, compare=False, repr=False)

        def run_many(self, configs, on_result=None):
            before = probes.take() if probes is not None else 0.0
            last = time.perf_counter()

            def timed(index, config, outcome):
                nonlocal before, last
                if on_result is not None:
                    on_result(index, config, outcome)
                self.times_s.append(time.perf_counter() - last)
                if probes is not None:
                    after = probes.take()
                    self.around_s.append((before + after) / 2)
                    before = after
                last = time.perf_counter()

            return super().run_many(configs, on_result=timed)

    return TimedExecutor()


def _grid(requests: List, probes: Optional[Probes] = None):
    """One cold pass: ``(wall_s, runner, store, outcomes)``; ``wall_s``
    leaves out the time of the probes taken during the pass."""
    from repro.harness.sweep import SweepRunner
    from repro.store import make_store

    store = make_store("json", fresh_dir("cold/store"))
    runner = SweepRunner(executor=timed_executor(probes), disk_cache=store)
    taken = len(probes.samples) if probes is not None else 0
    start = time.perf_counter()
    outcomes = runner.run_all(requests)
    wall = time.perf_counter() - start
    if probes is not None:
        wall -= sum(probes.samples[taken:])
    return wall, runner, store, outcomes


def check_outcomes(requests: List, outcomes: List, store,
                   expected: Dict[str, str], report: Report) -> Dict[str, str]:
    """Count each request whose result is missing, failed or wrong.

    A request is correct when it produced a result whose payload digest
    (host time left out) equals ``expected`` for its key (when known)
    and the store returns the same payload for it.  Returns the
    digests seen, by cache key.
    """
    from repro.harness.executor import FailedResult
    from repro.harness.io import result_to_cache_dict

    seen: Dict[str, str] = {}
    stored: Dict[str, str] = {}
    report.count(len(requests))
    for config, outcome in zip(requests, outcomes):
        key = config.cache_key()
        if isinstance(outcome, FailedResult):
            report.fail(f"{key}: {outcome.describe()}")
            continue
        digest = seen.get(key)
        if digest is None:
            digest = seen[key] = payload_digest(result_to_cache_dict(outcome))
            back = store.get(config)
            stored[key] = (
                payload_digest(result_to_cache_dict(back)) if back is not None else ""
            )
        want = expected.get(key)
        if want is not None and digest != want:
            report.fail(f"{key}: digest {digest} != reference {want}")
        elif stored[key] != digest:
            report.fail(f"{key}: stored payload differs from the returned one")
    if len(outcomes) != len(requests):
        report.fail("run_all returned the wrong number of outcomes")
    return seen


def run(seed: int, seconds: float, trace: bool, report: Report) -> None:
    """Measure the workload and fill ``report``."""
    probes = Probes()
    setups = [_setup(seed, probes) for _ in range(SETUP_REPEATS)]
    requests, sizes = cold_grid(seed)
    grids = [requests] + [cold_grid(s)[0] for s in cold_seeds(seed)[1:]]
    unique = len({c.cache_key() for c in requests})
    expected = dict(load_reference().get(f"cold_sweep:{seed}", {}))
    report.add("setup_s", statistics.median(setups), samples=len(setups))
    for label, size in sizes.items():
        report.add(f"grid.{label}", size, "count")
    if trace:
        _traced(seed, requests, unique, expected, report)
        return

    walls: List[float] = []
    host_walls: List[float] = []
    sims_ms: List[float] = []
    host_sims_ms: List[float] = []
    own_ms: List[float] = []
    events: List[int] = []
    deadline = time.perf_counter() + seconds
    while len(walls) < len(grids) or time.perf_counter() < deadline:
        grid = grids[len(walls) % len(grids)]
        wall, runner, store, outcomes = _grid(grid, probes)
        failed_before = report.failed
        digests = check_outcomes(grid, outcomes, store, expected, report)
        executor = runner.executor
        times_s = executor.times_s
        want = len({c.cache_key() for c in grid})
        if runner.runs != want or len(times_s) != want:
            report.fail(f"{runner.runs} simulations ({len(times_s)} timed) "
                        f"for {want} unique configs")
        if report.failed == failed_before:
            for key, digest in digests.items():
                expected.setdefault(key, digest)
        scaled = [rescale(t, [p]) for t, p in zip(times_s, executor.around_s)]
        # The grid's time outside the timed simulations (the store probe
        # before them, the outcome list after) is small; it takes the
        # simulations' average rescaling.
        walls.append(wall * sum(scaled) / sum(times_s))
        host_walls.append(wall)
        sims_ms += [t * 1000.0 for t in scaled]
        host_sims_ms += [t * 1000.0 for t in times_s]
        own_ms += [r.wall_time_s * 1000.0 for r in runner.cache.values()]
        events.append(sum(r.events_processed for r in runner.cache.values()))
    report.add("wall_s", statistics.median(walls), samples=len(walls))
    report.add("p50_ms", statistics.median(sims_ms), samples=len(sims_ms))
    report.add("p95_ms", percentile(sims_ms, 0.95), samples=len(sims_ms))
    report.add("p95_beyond", samples_beyond(len(sims_ms), 0.95), "count")
    report.add("goodput_rps", (report.attempted - report.failed) / sum(walls),
               samples=len(walls))
    # Host time as measured, before rescaling, and the program's own
    # per-run timer (``ExperimentResult.wall_time_s``): table only.
    report.add("host.wall_s", statistics.median(host_walls), "s", len(host_walls))
    report.add("host.p50_ms", statistics.median(host_sims_ms), "ms", len(host_sims_ms))
    report.add("host.speed", probes.speed(), "ratio", len(probes.samples))
    report.add("result_wall.p50_ms", statistics.median(own_ms), "ms", len(own_ms))
    report.add("peak_rss_mb", peak_rss_mb_self())
    report.add("ok_ratio", 1.0 - report.failed_ratio, samples=report.attempted)
    report.add("grid.requests", len(requests), "count")
    report.add("grid.unique", unique, "count")
    report.add("grid.traffic_seeds", len(grids), "count")
    report.add("grid.sim_events", statistics.fmean(events), "count", len(events))


def _traced(seed: int, requests: List, unique: int, expected: Dict[str, str],
            report: Report) -> None:
    from perfbench.tracing import Tracing

    wall_u, runner_u, store_u, outcomes_u = _grid(requests)
    digests_u = check_outcomes(requests, outcomes_u, store_u, expected, report)
    with Tracing(executor_layer="harness.executor") as tracing:
        wall_t, _runner, store_t, outcomes_t = _grid(requests)
    keys_probed = store_t.hits + store_t.misses
    hit_ratio = store_t.hits / keys_probed if keys_probed else 0.0
    digests_t = check_outcomes(requests, outcomes_t, store_t, expected, report)
    if digests_t != digests_u:
        report.fail("traced results differ from untraced results")
    layers = tracing.layers(wall_t)
    events_u = sum(r.events_processed for r in runner_u.cache.values())
    epochs_u = sum(r.epochs for r in runner_u.cache.values())
    if layers["sim.events"] != events_u:
        report.fail(f"traced events {layers['sim.events']} != untraced {events_u}")
    if layers["core.policy.epochs"] != epochs_u:
        report.fail(f"traced epochs {layers['core.policy.epochs']} != untraced {epochs_u}")
    if layers["store.put.calls"] != store_u.writes:
        report.fail(f"traced puts {layers['store.put.calls']} != untraced {store_u.writes}")
    report.add_all(layers)
    report.add("harness.sweep.unique_ratio", unique / len(requests))
    report.add("store.get.keys", keys_probed)
    report.add("store.hit_ratio", hit_ratio)
    report.add("traced_wall_s", wall_t)
    report.add("trace_overhead", wall_t / wall_u)
    report.add("untraced_wall_s", wall_u, "s")
    tracing.write(OUT_DIR / f"trace-cold_sweep-seed{seed}.json", wall_t, layers)
