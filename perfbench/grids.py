"""Seeded inputs: the cold grid, the figure suite and the warm store's entries.

Everything here is a pure function of the benchmark seed, so the same
seed always yields the same configs, the same stored payloads and the
same request schedule.
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence, Tuple

#: Shortened simulated window and epoch of the cold grid (ns).  Five
#: policy epochs per run keeps the managed configs' epoch work visible.
COLD_WINDOW_NS = 20_000.0
COLD_EPOCH_NS = 4_000.0

#: Traffic seeds per cold_sweep run.  A run cycles its grids through
#: this many seeds drawn from the benchmark seed: the big-scale is.D and
#: lu.D configs' event counts move by up to 11 % from one traffic seed to
#: the next, and a run that averages four draws moves about half as much.
COLD_SEEDS = 4

#: Networks of at most four modules are identical under these three
#: topologies (same event counts), so the seed may pick among them
#: without changing the grid's cost.
SMALL_TOPOLOGIES = ("star", "ternary_tree", "ddrx_like")

#: Cold-grid strata: (label, figure, field filter).  A ``topology`` of
#: ``None`` means the small-scale topology the seed drew (one per grid,
#: so the mixB baseline serves both policies and both alphas).  Every
#: managed point also runs its full-power baseline, as in the suite.
COLD_STRATA: Tuple[Tuple[str, str, Dict], ...] = (
    ("fp.small.mixB", "fig11",
     dict(workload="mixB", scale="small", topology=None, mechanism="FP")),
    ("unaware.vwl_roo.small.mixB", "fig11",
     dict(workload="mixB", scale="small", topology=None, mechanism="VWL+ROO",
          policy="unaware")),
    ("aware.vwl_roo.small.mixB", "fig17",
     dict(workload="mixB", scale="small", topology=None, mechanism="VWL+ROO",
          policy="aware", alpha=0.05)),
    ("unaware.roo.small.spD", "fig11",
     dict(workload="sp.D", scale="small", topology=None, mechanism="ROO",
          policy="unaware", alpha=0.05)),
    ("aware.vwl.big.spD", "fig16",
     dict(workload="sp.D", scale="big", topology="daisychain", mechanism="VWL",
          policy="aware")),
    ("unaware.dvfs.big.isD", "fig18",
     dict(workload="is.D", scale="big", topology="star", mechanism="DVFS",
          policy="unaware")),
    ("aware.dvfs.big.isD", "fig18",
     dict(workload="is.D", scale="big", topology="star", mechanism="DVFS",
          policy="aware")),
    ("aware.roo20.big.spD", "fig18",
     dict(workload="sp.D", scale="big", topology="ternary_tree", mechanism="ROO",
          policy="aware", wake_ns=20.0)),
    ("static.vwl.big.luD", "sec7",
     dict(workload="lu.D", topology="ddrx_like", policy="static")),
)


def _matches(config, fields: Dict, topology: str) -> bool:
    for name, want in fields.items():
        if name == "topology" and want is None:
            want = topology
        if getattr(config, name) != want:
            return False
    return True


def cold_seeds(seed: int) -> List[int]:
    """Traffic seeds of a cold_sweep run: ``seed``, then seeds drawn from it."""
    rng = random.Random(f"cold-seeds:{seed}")
    return [seed] + [rng.randrange(1, 2**31) for _ in range(COLD_SEEDS - 1)]


def cold_grid(seed: int) -> Tuple[List, Dict[str, int]]:
    """The cold-sweep request list for ``seed`` and its size per stratum.

    Requests are taken verbatim from the figure suite's own config
    enumerators (shortened window), filtered by :data:`COLD_STRATA`;
    the list keeps duplicates, as the figure grids do.
    """
    from repro.harness.figures import RunSettings, figure_configs

    settings = RunSettings(seed=seed, window_ns=COLD_WINDOW_NS, epoch_ns=COLD_EPOCH_NS)
    topology = random.Random(f"cold:{seed}").choice(SMALL_TOPOLOGIES)
    requests: List = []
    sizes: Dict[str, int] = {}
    for label, figure, fields in COLD_STRATA:
        chosen = [c for c in figure_configs(figure, settings)
                  if _matches(c, fields, topology)]
        if not chosen:
            raise RuntimeError(f"cold stratum {label} matched no config")
        managed = [c for c in chosen if c.policy != "none"]
        chosen += [c.baseline() for c in managed]
        sizes[label] = len(chosen)
        requests += chosen
    return requests, sizes


def suite_settings(seed: int):
    """The default figure suite's settings with the benchmark seed."""
    from repro.harness.figures import RunSettings

    return RunSettings(seed=seed)


def suite_requests(settings) -> Dict[str, List]:
    """Every figure grid of the default suite: ``{figure: [configs]}``."""
    from repro.harness.figures import FIGURE_CONFIGS, figure_configs

    return {name: figure_configs(name, settings) for name in FIGURE_CONFIGS}


def unique_configs(requests: Sequence) -> Dict[str, object]:
    """``{cache_key: config}``, preferring configs that ask for link hours."""
    out: Dict[str, object] = {}
    for config in requests:
        key = config.cache_key()
        held = out.get(key)
        if held is None or (config.collect_link_hours and not held.collect_link_hours):
            out[key] = config
    return out


def synthetic_result(config, seed: int, key: str):
    """A seeded, well-formed result for ``config`` (no simulation).

    The warm store only has to hold payloads of the real shape: the
    replay and the serve disk tier read, decode and reduce them, and
    never simulate.  Values are drawn from ``seed`` and the key, so a
    seed always writes the same store.
    """
    from repro.harness.experiment import ExperimentResult
    from repro.harness.metrics import UTILIZATION_BUCKETS
    from repro.power.accounting import PowerBreakdown

    rng = random.Random(f"result:{seed}:{key}")
    modules = 4 if config.scale == "small" else rng.randint(9, 34)
    watts = {
        cat: rng.uniform(0.2, 6.0)
        for cat in ("idle_io", "active_io", "logic_leak", "logic_dyn",
                    "dram_leak", "dram_dyn")
    }
    link_hours = None
    if config.collect_link_hours:
        link_hours = {
            (label, width): rng.uniform(0.0, 1e-3)
            for label, _lo, _hi in UTILIZATION_BUCKETS
            for width in range(4)
        }
    reads = rng.randint(2000, 40000)
    return ExperimentResult(
        config=config,
        num_modules=modules,
        breakdown=PowerBreakdown(watts=watts),
        throughput_per_s=rng.uniform(1e8, 2e9),
        avg_read_latency_ns=rng.uniform(40.0, 400.0),
        max_read_latency_ns=rng.uniform(400.0, 4000.0),
        channel_utilization=rng.uniform(0.0, 0.9),
        link_utilization=rng.uniform(0.0, 0.5),
        avg_modules_traversed=rng.uniform(1.0, float(modules)),
        completed_reads=reads,
        completed_writes=reads // rng.randint(2, 6),
        violations=rng.randint(0, 3) if config.policy != "none" else 0,
        epochs=rng.randint(5, 25) if config.policy != "none" else 0,
        link_hours=link_hours,
        events_processed=rng.randint(10**5, 10**7),
        wall_time_s=rng.uniform(0.05, 5.0),
    )


def warm_results(seed: int) -> Tuple[object, Dict[str, List], Dict[str, object]]:
    """``(settings, {figure: requests}, {key: result})`` for the warm store."""
    settings = suite_settings(seed)
    requests = suite_requests(settings)
    every = [c for grid in requests.values() for c in grid]
    results = {
        key: synthetic_result(config, seed, key)
        for key, config in unique_configs(every).items()
    }
    return settings, requests, results


def seed_store(store, results: Dict[str, object]) -> None:
    """Write every warm entry through the store's public ``put``."""
    for result in results.values():
        store.put(result.config, result)
