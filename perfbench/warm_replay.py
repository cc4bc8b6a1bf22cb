"""Workload ``warm_replay``: the whole figure suite, replayed from a warm store.

Set-up writes one seeded entry per unique key of the 13 default figure
grids into a fresh JSON store and migrates it with
``migrate_json_to_sqlite``.  Each pass then regenerates every figure
the way ``repro-mnet figure NAME --store BACKEND`` does -- a fresh
``SweepRunner`` and store per figure, a ``run_all`` prefetch of the
figure's grid, then the figure function -- first on the JSON store,
then on the SQLite one.  No simulation may run, and every figure's rows
must match the rows computed from the seeded results directly.

Rows are compared to a few units in the last place, and the rows that
are not bit-identical are counted separately (``<backend>.rows_inexact``):
on the commit that introduced the benchmark both stores return every
stored value exactly (checked per key after the timed passes), but the
SQLite store hands back the ``watts`` dict in sorted key order and both
stores return link hours sorted, so sums over them can differ in the
last bit from sums over the seeded objects.

Timed figures are rescaled to the reference host speed
(``hostspeed.py``): a probe runs before each pass and after each
backend phase, and a phase's times are rescaled by the mean of the two
probes around it.
"""

from __future__ import annotations

import statistics
import time
from typing import Dict, List, Tuple

from perfbench.common import (
    OUT_DIR,
    Report,
    fresh_dir,
    peak_rss_mb_self,
    percentile,
    rows_match,
    samples_beyond,
    time_import,
)
from perfbench.grids import seed_store, warm_results
from perfbench.hostspeed import Probes, rescale
from perfbench.settings import SETUP_REPEATS

IMPORTS = ("repro.harness.sweep", "repro.harness.figures", "repro.store")

#: Figure name -> figure function in ``repro.harness.figures``.
FIGURE_FUNCTIONS = {
    "fig5": "fig5_power_breakdown",
    "fig6": "fig6_modules_traversed",
    "fig8": "fig8_idle_io_fraction",
    "fig9": "fig9_utilization",
    "fig11": "fig11_unaware_power",
    "fig12": "fig12_unaware_performance",
    "fig13": "fig13_link_hours",
    "fig15": "fig15_aware_vs_unaware",
    "fig16": "fig16_per_workload_savings",
    "fig17": "fig17_aware_performance",
    "fig18": "fig18_dvfs_sensitivity",
    "sec7": "sec7_static_comparison",
    "hetero-depth": "hetero_depth",
}

BACKENDS = ("json", "sqlite")


def build_warm_store(seed: int, name: str):
    """Seed a JSON store, migrate it to SQLite; ``(settings, requests, results, root)``."""
    from repro.store import JsonDirStore, SqliteStore, migrate_json_to_sqlite

    settings, requests, results = warm_results(seed)
    root = fresh_dir(name)
    seed_store(JsonDirStore(root / "json"), results)
    sqlite = SqliteStore(root / "results.sqlite")
    report = migrate_json_to_sqlite(JsonDirStore(root / "json"), sqlite)
    sqlite.close()
    if not report.ok or report.migrated != len(results):
        raise RuntimeError("warm store migration did not verify: "
                           + "; ".join(report.summary_lines()))
    return settings, requests, results, root


def open_store(backend: str, root):
    from repro.store import make_store

    return make_store(backend, root / "json" if backend == "json" else root)


def _setup(seed: int, probes: Probes):
    """Import in a fresh interpreter and build the warm store;
    ``(seconds rescaled by the probes before and after, built)``."""
    before = probes.take()
    start = time.perf_counter()
    time_import(IMPORTS)
    built = build_warm_store(seed, "warm/store")
    elapsed = time.perf_counter() - start
    return rescale(elapsed, [before, probes.take()]), built


def expected_rows(settings, requests: Dict[str, List], results: Dict) -> Dict:
    """Each figure's rows computed straight from the seeded results."""
    import repro.harness.figures as F
    from repro.harness.sweep import SweepRunner

    out = {}
    for name, fn in FIGURE_FUNCTIONS.items():
        runner = SweepRunner(cache=dict(results))
        runner.run_all(requests[name])
        out[name] = getattr(F, fn)(runner, settings)
        if runner.runs:
            raise RuntimeError(f"{name}: reference rows needed a simulation")
    return out


def replay_phase(backend: str, root, settings, requests, expected,
                 report: Report, figure_ms: List[float]) -> Tuple[float, Dict]:
    """One regeneration of every figure on ``backend``; ``(wall_s, counters)``."""
    import repro.harness.figures as F
    from repro.harness.executor import SerialExecutor
    from repro.harness.sweep import SweepRunner

    counters = {"hits": 0, "misses": 0, "requests": 0, "runs": 0, "inexact": 0}
    start = time.perf_counter()
    for name, fn in FIGURE_FUNCTIONS.items():
        began = time.perf_counter()
        store = open_store(backend, root)
        runner = SweepRunner(executor=SerialExecutor(), disk_cache=store)
        runner.run_all(requests[name])
        rows = getattr(F, fn)(runner, settings)
        figure_ms.append((time.perf_counter() - began) * 1000.0)
        report.count(1)
        if runner.runs or runner.failures:
            report.fail(f"{backend}/{name}: {runner.runs} simulations ran")
        elif not rows_match(rows, expected[name]):
            report.fail(f"{backend}/{name}: rows differ from the seeded results")
        elif rows != expected[name]:
            counters["inexact"] += 1
        counters["hits"] += store.hits
        counters["misses"] += store.misses
        counters["requests"] += len(requests[name])
        counters["runs"] += runner.runs
        close = getattr(store, "close", None)
        if close is not None:
            close()
    return time.perf_counter() - start, counters


def verify_payloads(root, results: Dict, report: Report) -> None:
    """Every seeded entry reads back from both stores with identical values."""
    from repro.harness.io import result_to_cache_dict

    for backend in BACKENDS:
        store = open_store(backend, root)
        found = store.get_many(r.config for r in results.values())
        report.count(len(results))
        for key, result in results.items():
            got = found.get(key)
            if got is None or result_to_cache_dict(got) != result_to_cache_dict(result):
                report.fail(f"{backend}: stored payload of {key} differs from the seed")
        close = getattr(store, "close", None)
        if close is not None:
            close()


def run(seed: int, seconds: float, trace: bool, report: Report) -> None:
    """Measure the workload and fill ``report``."""
    probes = Probes()
    setups: List[float] = []
    for _ in range(SETUP_REPEATS):
        built = None  # only one set-up's data is alive at a time
        elapsed, built = _setup(seed, probes)
        setups.append(elapsed)
    report.add("setup_s", statistics.median(setups), samples=len(setups))
    settings, requests, results, root = built
    expected = expected_rows(settings, requests, results)
    report.add("suite.requests", sum(len(r) for r in requests.values()), "count")
    report.add("suite.unique_keys", len(results), "count")
    if trace:
        _traced(seed, settings, requests, expected, root, report)
        return

    walls: Dict[str, List[float]] = {b: [] for b in BACKENDS}
    host_walls: Dict[str, List[float]] = {b: [] for b in BACKENDS}
    inexact: Dict[str, int] = {}
    figure_ms: List[float] = []
    runs = 0
    deadline = time.perf_counter() + seconds
    while len(walls["json"]) < 2 or time.perf_counter() < deadline:
        before = probes.take()
        for backend in BACKENDS:
            phase_ms: List[float] = []
            wall, counters = replay_phase(backend, root, settings, requests,
                                          expected, report, phase_ms)
            after = probes.take()
            scale = rescale(1.0, [before, after])
            before = after
            walls[backend].append(wall * scale)
            host_walls[backend].append(wall)
            figure_ms += [ms * scale for ms in phase_ms]
            runs += counters["runs"]
            inexact[backend] = counters["inexact"]
    verify_payloads(root, results, report)
    passes = [j + s for j, s in zip(walls["json"], walls["sqlite"])]
    report.add("wall_s", statistics.median(passes), samples=len(passes))
    for backend in BACKENDS:
        report.add(f"{backend}.wall_s", statistics.median(walls[backend]), "s",
                   samples=len(walls[backend]))
        report.add(f"host.{backend}.wall_s", statistics.median(host_walls[backend]),
                   "s", samples=len(host_walls[backend]))
        report.add(f"{backend}.rows_inexact", inexact[backend], "count")
    report.add("host.speed", probes.speed(), "ratio", len(probes.samples))
    report.add("p50_ms", statistics.median(figure_ms), samples=len(figure_ms))
    report.add("p95_ms", percentile(figure_ms, 0.95), samples=len(figure_ms))
    report.add("p95_beyond", samples_beyond(len(figure_ms), 0.95), "count")
    figures_ok = len(figure_ms) - report.failed
    report.add("goodput_rps", max(0, figures_ok) / sum(passes), samples=len(passes))
    report.add("peak_rss_mb", peak_rss_mb_self())
    report.add("ok_ratio", 1.0 - report.failed_ratio, samples=report.attempted)
    report.add("runs", runs, "count")


def _traced(seed: int, settings, requests, expected, root, report: Report) -> None:
    from perfbench.tracing import Tracing

    passes = 3
    figure_ms: List[float] = []
    start = time.perf_counter()
    for _ in range(passes):
        for backend in BACKENDS:
            replay_phase(backend, root, settings, requests, expected, report, figure_ms)
    wall_u = time.perf_counter() - start
    totals = {"hits": 0, "misses": 0, "requests": 0, "runs": 0}
    with Tracing(executor_layer="harness.executor") as tracing:
        start = time.perf_counter()
        for _ in range(passes):
            for backend in BACKENDS:
                _wall, counters = replay_phase(backend, root, settings, requests,
                                               expected, report, figure_ms)
                for key in totals:
                    totals[key] += counters[key]
        wall_t = time.perf_counter() - start
    layers = tracing.layers(wall_t)
    if totals["runs"] or layers["sim.events"]:
        report.fail(f"{totals['runs']} simulations during the traced replay")
    report.add_all(layers)
    probed = totals["hits"] + totals["misses"]
    unique = sum(len({c.cache_key() for c in grid}) for grid in requests.values())
    report.add("harness.sweep.unique_ratio", unique / sum(len(g) for g in requests.values()))
    report.add("store.get.keys", probed)
    report.add("store.hit_ratio", totals["hits"] / probed if probed else 0.0)
    report.add("traced_wall_s", wall_t)
    report.add("trace_overhead", wall_t / wall_u)
    report.add("untraced_wall_s", wall_u, "s")
    tracing.write(OUT_DIR / f"trace-warm_replay-seed{seed}.json", wall_t, layers)
