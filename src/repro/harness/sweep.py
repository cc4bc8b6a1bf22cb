"""Parameter sweeps with layered result caching and pluggable execution.

The paper's figures reuse the same runs heavily (every managed run is
compared against the matching full-power baseline; Figure 15 compares
aware against unaware on identical grids).  :class:`SweepRunner` caches
:class:`ExperimentResult` objects by
:meth:`~repro.harness.experiment.ExperimentConfig.cache_key` in two
layers -- an in-process dict and an optional persistent disk tier
shared across invocations (any :class:`~repro.store.base.ResultStore`
backend, which answers a whole chunk's probe with one ``get_many``
batch) -- and delegates cache misses to an
:class:`~repro.harness.executor.Executor` (serial by default; pass a
:class:`~repro.harness.executor.ParallelExecutor` to run batches on
several worker processes at once).

Because the cache key excludes observability-only fields, a run
collected with link-hours can stand in for the plain run; the converse
is handled by re-simulating when the caller asked for link-hours a
cached result does not carry.  Configs with a ``trace_path`` or
``metrics_path`` always re-simulate: their value is the side-effect
file, which no cached result can produce.  Every lookup goes through
:meth:`SweepRunner.run_all`; :meth:`SweepRunner.run` is a batch of one.

Hardening: executors report per-config failures as structured
:class:`~repro.harness.executor.FailedResult` objects instead of
raising, and the runner keeps the batch going -- failures are collected
in :attr:`SweepRunner.failures` (and surfaced as entries in the
:meth:`SweepRunner.run_all` output), never cached, and never silently
retried within a process.  Attach a
:class:`~repro.harness.journal.SweepJournal` to checkpoint every
outcome as it lands, so a killed sweep resumes from where it died.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.harness.executor import (
    Executor,
    ExperimentOutcome,
    FailedResult,
    SerialExecutor,
)
from repro.harness.experiment import ExperimentConfig, ExperimentResult
from repro.harness.journal import SweepJournal
from repro.harness.metrics import performance_degradation, power_reduction
from repro.store.base import ResultStore

__all__ = ["SweepRunner", "ExperimentFailedError", "grid_configs"]


class ExperimentFailedError(RuntimeError):
    """A single-experiment request could not produce a result.

    Raised by :meth:`SweepRunner.run` and :meth:`SweepRunner.results`
    (:meth:`SweepRunner.run_all` returns the :class:`FailedResult`
    in-slot instead).  ``failure`` carries the
    structured record: error kind, message, attempt count, config.
    """

    def __init__(self, failure: FailedResult) -> None:
        super().__init__(failure.describe())
        self.failure = failure


def grid_configs(
    base: ExperimentConfig,
    workloads: Sequence[str] = (),
    topologies: Sequence[str] = (),
    scales: Sequence[str] = (),
    mechanisms: Sequence[str] = (),
    policies: Sequence[str] = (),
    alphas: Sequence[float] = (),
) -> List[ExperimentConfig]:
    """Cartesian product of the given axes over ``base``.

    Empty axes keep the base config's value.
    """
    axes = {
        "workload": list(workloads) or [base.workload],
        "topology": list(topologies) or [base.topology],
        "scale": list(scales) or [base.scale],
        "mechanism": list(mechanisms) or [base.mechanism],
        "policy": list(policies) or [base.policy],
        "alpha": list(alphas) or [base.alpha],
    }
    keys = list(axes)
    out = []
    for combo in itertools.product(*(axes[k] for k in keys)):
        out.append(base.replace(**dict(zip(keys, combo))))
    return out


@dataclass
class SweepRunner:
    """Runs experiments, memoizing results by config cache key.

    Counters: ``runs`` counts actual simulations; ``memory_hits`` /
    ``disk_hits`` / ``journal_hits`` count lookups served by each
    layer, as if the requests had come one at a time (see
    :meth:`run_all`); ``sim_wall_time_s`` accumulates the wall time of
    the simulations this runner executed (not of cache hits).

    Failed experiments land in :attr:`failures` keyed by cache key and
    are *not* retried by later lookups in the same runner (the failure
    was already retried to its budget inside the executor).
    """

    executor: Executor = field(default_factory=SerialExecutor)
    disk_cache: Optional[ResultStore] = None
    journal: Optional[SweepJournal] = None
    cache: Dict[str, ExperimentResult] = field(default_factory=dict)
    failures: Dict[str, FailedResult] = field(default_factory=dict)
    runs: int = 0
    memory_hits: int = 0
    disk_hits: int = 0
    journal_hits: int = 0
    traced_runs: int = 0
    sim_wall_time_s: float = 0.0

    def attach_journal(self, journal: SweepJournal) -> None:
        """Wire a journal in: replayed results seed the memory cache
        (counted as ``journal_hits``); every subsequent outcome is
        checkpointed as it lands."""
        self.journal = journal
        for key, result in journal.results.items():
            if key not in self.cache:
                self.cache[key] = result
                self.journal_hits += 1

    @staticmethod
    def _traced(config: ExperimentConfig) -> bool:
        """Must this config actually simulate (not hit a cache)?

        True for configs that produce trace/metrics files as a side
        effect, and for audited configs -- a cached result cannot be
        invariant-checked after the fact.
        """
        return (
            config.trace_path is not None
            or config.metrics_path is not None
            or bool(config.audit)
        )

    @staticmethod
    def _satisfies(result: ExperimentResult, config: ExperimentConfig) -> bool:
        """Does a cached result carry everything ``config`` asked for?

        The cache key only covers simulation-affecting fields, so a hit
        may have been collected with different observability flags; a
        result without link-hours cannot serve a caller that wants them.
        """
        return result.link_hours is not None or not config.collect_link_hours

    def _record(self, config: ExperimentConfig, outcome: ExperimentOutcome) -> None:
        """Keep a fresh outcome: a result in every tier, a failure in
        :attr:`failures` (and the journal, either way)."""
        key = config.cache_key()
        if isinstance(outcome, FailedResult):
            self.failures[key] = outcome
            if self.journal is not None:
                self.journal.record_failed(key, outcome)
            return
        self.cache[key] = outcome
        if self.disk_cache is not None:
            self.disk_cache.put(config, outcome)
        if self.journal is not None:
            self.journal.record_done(key, outcome)
        self.runs += 1
        self.sim_wall_time_s += outcome.wall_time_s

    def run(self, config: ExperimentConfig) -> ExperimentResult:
        """Run (or fetch) one experiment: :meth:`results` of ``[config]``.

        Raises :class:`ExperimentFailedError` when the experiment fails
        (after the executor's own retry budget); batch callers should
        prefer :meth:`run_all`, which reports failures in-slot instead
        of raising.
        """
        return self.results([config])[0]

    def results(self, configs: Iterable[ExperimentConfig]) -> List[ExperimentResult]:
        """:meth:`run_all`, raising :class:`ExperimentFailedError` for
        the first failed config once the whole batch has run."""
        out: List[ExperimentResult] = []
        for outcome in self.run_all(configs):
            if isinstance(outcome, FailedResult):
                raise ExperimentFailedError(outcome)
            out.append(outcome)
        return out

    def run_all(
        self, configs: Iterable[ExperimentConfig]
    ) -> List[ExperimentOutcome]:
        """Run every config; returns outcomes in input order.

        Cache misses are deduplicated by cache key, probed in the disk
        tier with one ``get_many``, and handed to the executor as one
        batch, so a :class:`ParallelExecutor` overlaps them across
        worker processes.  A config whose simulation fails yields its
        structured :class:`FailedResult` in-slot (never raises, never
        aborts the rest of the batch); when a journal is attached,
        every outcome is checkpointed the moment it resolves, not at
        batch end.

        Traced configs (``trace_path``/``metrics_path``/``audit`` set)
        bypass every cache -- only an actual simulation writes the
        trace file -- and simulate once per request, one at a time,
        after the batch; their results are still stored, so later
        untraced requests hit the cache.

        Counters read as if the requests had come one at a time: per
        key fetched or simulated here, the first request counts as a
        disk hit or a run, and every other answered request as a
        memory hit.
        """
        configs = list(configs)
        keys = [config.cache_key() for config in configs]
        pending: Dict[str, ExperimentConfig] = {}
        for config, key in zip(configs, keys):
            if self._traced(config) or key in self.failures:
                continue
            cached = self.cache.get(key)
            if cached is not None and self._satisfies(cached, config):
                continue
            previous = pending.get(key)
            # When two requests alias to one simulation, run the one
            # with the richer observability so it satisfies both.
            if previous is None or (
                config.collect_link_hours and not previous.collect_link_hours
            ):
                pending[key] = config
        found: Dict[str, ExperimentResult] = {}
        if self.disk_cache is not None and pending:
            # The whole chunk in one probe: one query on the SQLite
            # backend instead of N stat/open/parse round-trips.
            found = self.disk_cache.get_many(pending.values())
        missing: List[ExperimentConfig] = []
        for key, config in pending.items():
            result = found.get(key)
            if result is not None and self._satisfies(result, config):
                self.disk_hits += 1
                self.cache[key] = result
            else:
                missing.append(config)
        if missing:
            # Stream each outcome into the cache/journal as it lands
            # (completion order), so killing the process mid-batch
            # loses at most the in-flight experiments.
            self.executor.run_many(
                missing,
                on_result=lambda _index, config, outcome: self._record(config, outcome),
            )
        first = set(pending)
        answers: List[ExperimentOutcome] = []
        for config, key in zip(configs, keys):
            if self._traced(config):
                continue
            failure = self.failures.get(key)
            if failure is not None:
                answers.append(failure)
                continue
            result = self.cache[key]
            if key in first:
                first.discard(key)
            else:
                self.memory_hits += 1
            if self.journal is not None:
                self.journal.record_done(key, result)
            answers.append(result)
        untraced = iter(answers)
        return [
            self._simulate_traced(config) if self._traced(config) else next(untraced)
            for config in configs
        ]

    def _simulate_traced(self, config: ExperimentConfig) -> ExperimentOutcome:
        outcome = self.executor.run(config)
        self._record(config, outcome)
        if not isinstance(outcome, FailedResult):
            self.traced_runs += 1
        return outcome

    # ------------------------------------------------------------------
    # Paired comparisons
    # ------------------------------------------------------------------
    def run_with_baseline(
        self, config: ExperimentConfig
    ) -> Tuple[ExperimentResult, ExperimentResult]:
        """(managed result, matching full-power baseline result)."""
        managed, baseline = self.results([config, config.baseline()])
        return managed, baseline

    def power_reduction_vs_baseline(self, config: ExperimentConfig) -> float:
        """Network power saved vs. the full-power run (fraction)."""
        managed, baseline = self.run_with_baseline(config)
        return power_reduction(baseline.network_power_w, managed.network_power_w)

    def io_power_reduction_vs_baseline(self, config: ExperimentConfig) -> float:
        """I/O power saved vs. the full-power run (fraction)."""
        managed, baseline = self.run_with_baseline(config)
        return power_reduction(baseline.io_power_w, managed.io_power_w)

    def idle_io_power_reduction_vs_baseline(self, config: ExperimentConfig) -> float:
        """Idle-I/O power saved vs. the full-power run (fraction)."""
        managed, baseline = self.run_with_baseline(config)
        return power_reduction(
            baseline.breakdown.watts["idle_io"], managed.breakdown.watts["idle_io"]
        )

    def degradation_vs_baseline(self, config: ExperimentConfig) -> float:
        """Throughput degradation vs. the full-power run (fraction)."""
        managed, baseline = self.run_with_baseline(config)
        return performance_degradation(
            baseline.throughput_per_s, managed.throughput_per_s
        )

    def compare(
        self, config_a: ExperimentConfig, config_b: ExperimentConfig
    ) -> float:
        """Network power reduction of ``config_a`` relative to ``config_b``."""
        a, b = self.results([config_a, config_b])
        return power_reduction(b.network_power_w, a.network_power_w)
