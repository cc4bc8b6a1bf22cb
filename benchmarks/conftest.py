"""Shared fixtures for the figure-reproduction benchmarks.

A single session-scoped :class:`SweepRunner` caches every simulation so
runs shared between figures (full-power baselines, the unaware grid)
simulate exactly once per pytest session.  It is additionally backed by
the shared persistent JSON result store, so baselines survive *across*
sessions -- re-running the suite (or mixing it with ``repro-mnet
figure`` invocations) only simulates what the cache has never seen.

Environment knobs:

* ``REPRO_BENCH_NO_CACHE=1`` -- in-memory caching only (every session
  starts cold);
* ``REPRO_CACHE_DIR=...`` -- relocate the persistent cache;
* ``REPRO_BENCH_JOBS=N`` -- run cache misses over N worker processes.

Each benchmark prints its table/series and also writes it to
``results/<artifact>.txt`` so the output survives pytest's capture.

Scale: the default settings simulate a 4-workload subset over 500 us
windows; set ``REPRO_BENCH_FULL=1`` for all 14 workloads over 1 ms
(slower, closer to the paper's grids).
"""

from __future__ import annotations

import os
import pathlib

import pytest

from repro.harness.executor import make_executor
from repro.harness.figures import RunSettings
from repro.harness.sweep import SweepRunner
from repro.store import make_store

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"


@pytest.fixture(scope="session")
def runner() -> SweepRunner:
    disk = None
    if os.environ.get("REPRO_BENCH_NO_CACHE", "0") != "1":
        disk = make_store("json")  # $REPRO_CACHE_DIR or ~/.cache/repro-mnet
    jobs = int(os.environ.get("REPRO_BENCH_JOBS", "1"))
    return SweepRunner(executor=make_executor(jobs), disk_cache=disk)


@pytest.fixture(scope="session")
def settings() -> RunSettings:
    return RunSettings.from_env()


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def emit(results_dir: pathlib.Path, name: str, text: str) -> None:
    """Print a result table and persist it under results/."""
    print()
    print(text)
    (results_dir / f"{name}.txt").write_text(text + "\n")


@pytest.fixture(scope="session")
def emit_result(results_dir):
    def _emit(name: str, text: str) -> None:
        emit(results_dir, name, text)

    return _emit
