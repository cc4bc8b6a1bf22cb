"""Single-experiment runner: one (workload, topology, mechanism, policy).

:func:`run_experiment` assembles a full simulation from an
:class:`ExperimentConfig` -- topology sized to the workload footprint,
mechanism, management policy, closed-loop traffic -- runs it for the
configured window, and returns an :class:`ExperimentResult` with every
quantity the paper's figures need.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.core.mechanisms import canonical_mechanism
from repro.core.overrides import canonical_override_spec
from repro.core.policy import EPOCH_NS, POLICIES, POLICY_NAMES
from repro.harness.builder import SimulationBuilder
from repro.harness.metrics import (
    avg_link_utilization,
    avg_modules_traversed,
    channel_utilization,
)
from repro.power.accounting import PowerBreakdown
from repro.workloads.mapping import MAPPINGS

__all__ = [
    "ExperimentConfig",
    "ExperimentResult",
    "run_experiment",
    "POLICY_NAMES",
    "OBSERVABILITY_FIELDS",
]

#: Config fields that only control what is *observed*, not what is
#: simulated.  They are excluded from :meth:`ExperimentConfig.cache_key`
#: so a run collected with extra observability can stand in for the
#: plain run (and vice versa, subject to the sufficiency check in
#: :class:`~repro.harness.sweep.SweepRunner`).
OBSERVABILITY_FIELDS: Tuple[str, ...] = (
    "collect_link_hours",
    "trace_path",
    "trace_format",
    "trace_categories",
    "metrics_path",
    "audit",
)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce one simulation run."""

    workload: str
    topology: str = "daisychain"
    scale: str = "small"
    mechanism: str = "FP"
    policy: str = "none"
    alpha: float = 0.05
    window_ns: float = 500_000.0
    epoch_ns: float = EPOCH_NS
    seed: int = 1
    wake_ns: float = 14.0
    mapping: str = "contiguous"
    #: Per-link mechanism override spec (``""`` keeps the network
    #: homogeneous).  A comma-separated clause list parsed by
    #: :func:`repro.core.overrides.parse_mechanism_overrides`, e.g.
    #: ``"depth>=3:ROO+VWL,link:m2-up:FP"``; later clauses win.
    #: Canonicalized on construction and *included* in :meth:`cache_key`
    #: when non-empty (overrides change what is simulated); the empty
    #: spec is excluded so homogeneous configs keep their historical
    #: keys.
    mechanism_overrides: str = ""
    #: Fault-injection spec (``""`` disables faults entirely).  A
    #: comma-separated ``key=value`` list parsed by
    #: :func:`repro.faults.parse_fault_spec`; *included* in
    #: :meth:`cache_key` because faults change what is simulated.
    fault_spec: str = ""
    collect_link_hours: bool = False
    #: Observability (excluded from :meth:`cache_key`): structured trace
    #: destination/format/categories and per-epoch metrics JSON path.
    #: ``trace_categories`` is a comma list (see
    #: :func:`repro.obs.parse_categories`); empty string means defaults.
    trace_path: Optional[str] = None
    trace_format: str = "jsonl"
    trace_categories: str = ""
    metrics_path: Optional[str] = None
    #: Runtime invariant auditing (excluded from :meth:`cache_key` --
    #: auditing observes, it never changes what is simulated).  ``""``
    #: is off; ``"warn"`` prints violations to stderr; ``"strict"``
    #: raises :class:`repro.validation.AuditViolationError`.  See
    #: docs/validation.md.
    audit: str = ""

    # cache_key()'s memo.  Unannotated, so not a dataclass field: it
    # stays out of ``==``, ``hash``, ``repr`` and ``asdict``.
    _cache_key = None

    def __post_init__(self) -> None:
        # Canonicalize names through the registries so "fp", "Fp", and
        # "FP" (and aliases like "ROO+VWL") are the same config and hash
        # to the same cache key everywhere.  Unknown names raise the
        # registry's uniform ValueError.
        mechanism = canonical_mechanism(self.mechanism)
        if mechanism != self.mechanism:
            object.__setattr__(self, "mechanism", mechanism)
        POLICIES.canonical(self.policy)
        mapping = MAPPINGS.canonical(self.mapping)
        if mapping != self.mapping:
            object.__setattr__(self, "mapping", mapping)
        if self.mechanism_overrides:
            overrides = canonical_override_spec(self.mechanism_overrides)
            if overrides != self.mechanism_overrides:
                object.__setattr__(self, "mechanism_overrides", overrides)
        if self.scale not in ("small", "big"):
            raise ValueError(f"scale must be 'small' or 'big', got {self.scale!r}")
        if self.window_ns <= 0:
            raise ValueError("window must be positive")
        from repro.obs import TRACE_FORMATS, parse_categories

        if self.trace_format not in TRACE_FORMATS:
            raise ValueError(
                f"unknown trace format {self.trace_format!r}; "
                f"expected one of {TRACE_FORMATS}"
            )
        if self.trace_categories:
            # Fail fast on bad category specs even when tracing is off.
            parse_categories(self.trace_categories)
        if self.audit not in ("", "warn", "strict"):
            raise ValueError(
                f"audit must be '', 'warn', or 'strict', got {self.audit!r}"
            )
        if self.fault_spec:
            # Fail fast on bad fault specs too (FaultSpecError is a
            # ValueError, matching the other validation failures here).
            from repro.faults import parse_fault_spec

            parse_fault_spec(self.fault_spec)

    def replace(self, **changes) -> "ExperimentConfig":
        """A copy of this config with the given fields replaced."""
        from dataclasses import replace as _replace

        return _replace(self, **changes)

    def baseline(self) -> "ExperimentConfig":
        """The matching full-power run (same traffic, no management).

        ``alpha`` and ``wake_ns`` are reset to the class defaults: with
        no policy there is no budget to apply and with no low-power
        mechanism there is nothing to wake, so distinct values would
        only split the cache key across identical simulations.

        ``fault_spec`` is *kept*: faults are environment, not
        management, so a faulted run's baseline sees the same faults.
        """
        return self.replace(
            mechanism="FP",
            mechanism_overrides="",
            policy="none",
            alpha=0.05,
            wake_ns=14.0,
            collect_link_hours=False,
            trace_path=None,
            metrics_path=None,
            audit="",
        )

    def cache_key(self) -> str:
        """Stable content hash of every simulation-affecting field.

        The key is shared by the in-memory sweep cache and the on-disk
        result cache so the same logical run is never simulated twice.
        Observability-only fields (:data:`OBSERVABILITY_FIELDS`) are
        excluded; field order does not matter (sorted before hashing).

        Computed once per instance: configs are frozen and
        :meth:`replace` builds a new instance, so the key cannot go
        stale.
        """
        key: Optional[str] = self._cache_key
        if key is None:
            payload = {name: getattr(self, name) for name in _KEYED_FIELDS}
            if not payload["mechanism_overrides"]:
                # Homogeneous configs hash exactly as they did before the
                # field existed, keeping pinned goldens and disk caches
                # valid.
                del payload["mechanism_overrides"]
            blob = _KEY_ENCODER.encode(payload)
            key = hashlib.sha256(blob.encode("utf-8")).hexdigest()[:24]
            object.__setattr__(self, "_cache_key", key)
        return key


#: The fields :meth:`ExperimentConfig.cache_key` hashes, sorted.
_KEYED_FIELDS: Tuple[str, ...] = tuple(
    name
    for name in sorted(ExperimentConfig.__dataclass_fields__)
    if name not in OBSERVABILITY_FIELDS
)
#: The encoder ``cache_key`` has always used, built once.
_KEY_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


@dataclass
class ExperimentResult:
    """Measured outputs of one run."""

    config: ExperimentConfig
    num_modules: int
    breakdown: PowerBreakdown
    throughput_per_s: float
    avg_read_latency_ns: float
    max_read_latency_ns: float
    channel_utilization: float
    link_utilization: float
    avg_modules_traversed: float
    completed_reads: int
    completed_writes: int
    violations: int = 0
    epochs: int = 0
    #: Structured trace events emitted (0 when tracing is disabled).
    trace_events: int = 0
    #: Fault injection (all 0 when ``fault_spec`` is empty): CRC
    #: retransmissions across all links, the flits they re-sent, the
    #: wire time spent on retry turnaround + replays, delayed DRAM
    #: accesses, and the number of scheduled fault windows.
    link_retries: int = 0
    retry_flits: int = 0
    retry_time_ns: float = 0.0
    vault_stalls: int = 0
    fault_events: int = 0
    link_hours: Optional[Dict[Tuple[str, int], float]] = None
    #: Run instrumentation: simulator events executed (deterministic)
    #: and wall-clock seconds spent building + running the simulation
    #: (machine-dependent; excluded from the flat result row).
    events_processed: int = 0
    wall_time_s: float = 0.0

    @property
    def power_per_hmc_w(self) -> float:
        """Average power per HMC (Figure 5 / 11 y-axis)."""
        return self.breakdown.total_w

    @property
    def network_power_w(self) -> float:
        """Total network power."""
        return self.breakdown.total_w * self.num_modules

    @property
    def io_power_w(self) -> float:
        """I/O power per HMC."""
        return self.breakdown.io_w

    @property
    def idle_io_fraction(self) -> float:
        """Idle I/O as a fraction of total network power (Figure 8)."""
        return self.breakdown.idle_io_fraction


def run_experiment(config: ExperimentConfig, policy_factory=None) -> ExperimentResult:
    """Build, run, and measure one experiment.

    ``policy_factory``, if given, overrides ``config.policy``: it is
    called as ``policy_factory(network, alpha, epoch_ns)`` and must
    return an object with a ``start()`` method (used by the ablation
    benchmarks to run modified network-aware variants).

    Assembly lives in :class:`~repro.harness.builder.SimulationBuilder`;
    this function runs the assembled simulation and measures it.
    """
    simulation = SimulationBuilder(config, policy_factory).build()
    simulation.run()

    sim = simulation.sim
    network = simulation.network
    policy = simulation.policy
    fault_plan = simulation.fault_plan

    trace_events = 0
    if simulation.tracer is not None:
        tracer = simulation.tracer
        tracer.emit(
            config.window_ns,
            "meta",
            "trace.end",
            events=tracer.events_emitted,
            sim_events=sim.events_processed,
        )
        trace_events = tracer.events_emitted
        tracer.close()
    if simulation.metrics is not None:
        simulation.metrics.write_json(config.metrics_path)

    link_retries = 0
    retry_flits = 0
    retry_time_ns = 0.0
    vault_stalls = 0
    fault_events = 0
    if fault_plan is not None:
        fault_events = len(fault_plan.events)
        for link in network.all_links():
            link_retries += link.retries
            retry_flits += link.retry_flits
            retry_time_ns += link.retry_time_ns
        if network.vault_faults is not None:
            vault_stalls = network.vault_faults.stalls

    breakdown = PowerBreakdown.from_ledgers(
        (m.ledger for m in network.modules),
        config.window_ns,
        simulation.topology.num_modules,
    )
    result = ExperimentResult(
        config=config,
        num_modules=simulation.topology.num_modules,
        breakdown=breakdown,
        throughput_per_s=simulation.workload.throughput_per_s(config.window_ns),
        avg_read_latency_ns=network.avg_read_latency_ns,
        max_read_latency_ns=network.max_read_latency_ns,
        channel_utilization=channel_utilization(network, config.window_ns),
        link_utilization=avg_link_utilization(network, config.window_ns),
        avg_modules_traversed=avg_modules_traversed(network),
        completed_reads=network.completed_reads,
        completed_writes=network.completed_writes,
        violations=getattr(policy, "violations", 0),
        epochs=getattr(policy, "epochs_run", 0),
        trace_events=trace_events,
        link_retries=link_retries,
        retry_flits=retry_flits,
        retry_time_ns=retry_time_ns,
        vault_stalls=vault_stalls,
        fault_events=fault_events,
        link_hours=(
            simulation.collector.hours if simulation.collector is not None else None
        ),
        events_processed=sim.events_processed,
        wall_time_s=time.perf_counter() - simulation.build_started,
    )
    if config.audit:
        # Imported lazily: unaudited runs (the common case, and every
        # hot perf path) never pay for the validation package.
        from repro.validation.audit import finalize_audit

        finalize_audit(simulation, result=result, mode=config.audit)
    return result
