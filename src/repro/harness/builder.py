"""Simulation assembly: one composition pipeline for every harness.

Historically :func:`repro.harness.experiment.run_experiment`, the
multichannel runner, the perf scenarios, and the CLI trace command each
wired topology -> network -> workload -> policy -> faults -> observers
by hand, and every new cross-cutting concern (fault injection, tracing,
per-link mechanism overrides) had to be threaded through each copy.
:class:`SimulationBuilder` is now the only place that ordering lives:

    sabotage -> profile -> mapping -> topology -> mechanism ->
    link overrides -> network -> faults -> policy -> observability ->
    workload

``build()`` returns a :class:`Simulation` bundle exposing every
assembled part, so callers that only need a subset (a bench driving the
network directly, the trace recorder) still go through the same
pipeline and stay bit-identical to the full harness.  Partial consumers
that have no :class:`ExperimentConfig` at all (synthetic mappings,
hand-rolled traffic) use :func:`build_network`, the shared low-level
network assembly step.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional

from repro.core.mechanisms import MechanismConfig, make_mechanism
from repro.core.overrides import LinkMechanism, resolve_link_mechanisms
from repro.core.policy import ManagementPolicy, make_policy
from repro.dram.timing import DEFAULT_TIMING, DramTiming
from repro.network.network import MemoryNetwork
from repro.network.topology import Topology, build_topology
from repro.power.hmc_power import DEFAULT_POWER_MODEL, HmcPowerModel
from repro.sim.engine import Simulator
from repro.workloads.generator import ClosedLoopWorkload
from repro.workloads.mapping import make_mapping
from repro.workloads.profiles import WorkloadProfile, get_profile

if TYPE_CHECKING:  # import-cycle-free type hints only
    from repro.harness.experiment import ExperimentConfig

__all__ = ["Simulation", "SimulationBuilder", "build_network"]


def build_network(
    topology: Topology,
    mechanism: MechanismConfig,
    mapping: Any,
    sim: Optional[Simulator] = None,
    power_model: HmcPowerModel = DEFAULT_POWER_MODEL,
    timing: DramTiming = DEFAULT_TIMING,
    roo_enabled: bool = True,
    link_mechanisms: Optional[Dict[str, MechanismConfig]] = None,
) -> MemoryNetwork:
    """Assemble a :class:`MemoryNetwork` (creating a simulator if needed).

    The shared network-assembly step for callers without a full
    :class:`ExperimentConfig` -- benches and tools that inject traffic
    by hand.  The simulator is reachable as ``network.sim``.
    """
    return MemoryNetwork(
        sim if sim is not None else Simulator(),
        topology,
        mechanism,
        mapping,
        power_model=power_model,
        timing=timing,
        roo_enabled=roo_enabled,
        link_mechanisms=link_mechanisms,
    )


@dataclass
class Simulation:
    """An assembled simulation, ready to run once.

    Every part the pipeline produced is exposed so measurement code can
    read counters after :meth:`run` without re-deriving anything.
    Optional stages leave ``None`` in their slot.
    """

    config: "ExperimentConfig"
    profile: WorkloadProfile
    mapping: Any
    topology: Topology
    mechanism: MechanismConfig
    #: Resolved per-link overrides (empty for homogeneous networks).
    link_mechanisms: Dict[str, LinkMechanism]
    sim: Simulator
    network: MemoryNetwork
    fault_plan: Optional[Any] = None
    policy: Optional[Any] = None
    collector: Optional[Any] = None
    tracer: Optional[Any] = None
    metrics: Optional[Any] = None
    #: Per-epoch invariant auditor (``config.audit`` non-empty and a
    #: managed policy); end-of-run audit happens either way.
    auditor: Optional[Any] = None
    workload: Optional[ClosedLoopWorkload] = None
    #: Wall-clock instant assembly started (for run instrumentation).
    build_started: float = field(default_factory=time.perf_counter)

    def run(self) -> None:
        """Start every part, run the configured window, finalize energy."""
        self.network.start()
        if self.policy is not None:
            self.policy.start()
        if self.workload is not None:
            self.workload.start()
        self.sim.run(until=self.config.window_ns)
        self.network.finalize(self.config.window_ns)


class SimulationBuilder:
    """Builds a :class:`Simulation` from an :class:`ExperimentConfig`.

    Chainable ``with_*`` overrides swap individual parts (a custom
    policy factory for ablations, a pre-built mapping for benches)
    without disturbing the rest of the pipeline; ``without_*`` toggles
    skip optional stages entirely.
    """

    def __init__(self, config: "ExperimentConfig") -> None:
        self.config = config
        self._policy_factory: Optional[Callable] = None
        self._power_model: HmcPowerModel = DEFAULT_POWER_MODEL
        self._timing: DramTiming = DEFAULT_TIMING
        self._faults = True
        self._observability = True
        self._workload = True

    # ------------------------------------------------------------------
    # Chainable configuration
    # ------------------------------------------------------------------
    def with_policy_factory(self, factory: Optional[Callable]) -> "SimulationBuilder":
        """Override ``config.policy``: called as ``factory(network, alpha,
        epoch_ns)`` and must return an object with ``start()``."""
        self._policy_factory = factory
        return self

    def with_power_model(self, model: HmcPowerModel) -> "SimulationBuilder":
        """Substitute a custom power model (default: ``DEFAULT_POWER_MODEL``)."""
        self._power_model = model
        return self

    def with_timing(self, timing: DramTiming) -> "SimulationBuilder":
        """Substitute custom DRAM timing parameters."""
        self._timing = timing
        return self

    def without_faults(self) -> "SimulationBuilder":
        """Skip the fault-injection stage even if the config requests faults."""
        self._faults = False
        return self

    def without_observability(self) -> "SimulationBuilder":
        """Skip tracing/metrics/audit wiring (bare simulation only)."""
        self._observability = False
        return self

    def without_workload(self) -> "SimulationBuilder":
        """Build the network and policy but attach no traffic generator."""
        self._workload = False
        return self

    # ------------------------------------------------------------------
    # Assembly
    # ------------------------------------------------------------------
    def build(self) -> Simulation:
        """Run every stage in order and return the assembled bundle."""
        started = time.perf_counter()
        config = self.config

        fault_spec = None
        if self._faults and config.fault_spec:
            from repro.faults import execute_sabotage, parse_fault_spec

            fault_spec = parse_fault_spec(config.fault_spec)
            # Chaos directives (crash/die/hang) fire before any build
            # work: they exist to exercise the hardened executors.
            execute_sabotage(fault_spec)

        profile = get_profile(config.workload)
        mapping = make_mapping(config.mapping, profile.footprint_gb, config.scale)
        topology = build_topology(config.topology, mapping.num_modules)
        mechanism = make_mechanism(config.mechanism, wake_ns=config.wake_ns)
        link_mechanisms = resolve_link_mechanisms(
            config.mechanism_overrides, topology, mechanism, wake_ns=config.wake_ns
        )

        sim = Simulator()
        network = build_network(
            topology,
            mechanism,
            mapping,
            sim=sim,
            power_model=self._power_model,
            timing=self._timing,
            link_mechanisms={
                name: lm.mechanism for name, lm in link_mechanisms.items()
            },
        )

        simulation = Simulation(
            config=config,
            profile=profile,
            mapping=mapping,
            topology=topology,
            mechanism=mechanism,
            link_mechanisms=link_mechanisms,
            sim=sim,
            network=network,
            build_started=started,
        )

        if fault_spec is not None:
            from repro.faults import FaultInjector, build_plan

            fault_plan = build_plan(
                fault_spec,
                [link.name for link in network.all_links()],
                topology.num_modules,
                config.window_ns,
            )
            simulation.fault_plan = fault_plan
            if fault_plan.events:
                FaultInjector(fault_plan).install(network)

        if self._policy_factory is not None:
            simulation.policy = self._policy_factory(
                network, config.alpha, config.epoch_ns
            )
        else:
            simulation.policy = make_policy(
                config.policy, network, config.alpha, config.epoch_ns
            )
        if not self._policy_observes(simulation.policy):
            # Only an epoch loop reads the links' epoch counters.
            for link in network.all_links():
                link.epoch_counters = False

        if self._observability:
            self._build_observability(simulation)

        if self._workload:
            simulation.workload = ClosedLoopWorkload(
                network, profile, stop_ns=config.window_ns, seed=config.seed
            )
        return simulation

    # ------------------------------------------------------------------
    def _build_observability(self, simulation: Simulation) -> None:
        """Wire link-hour collection, tracing, and epoch metrics."""
        config = simulation.config
        policy = simulation.policy
        observers: List[Callable] = []

        if config.collect_link_hours and self._policy_observes(policy):
            from repro.harness.metrics import LinkHourCollector

            simulation.collector = LinkHourCollector()
            observers.append(simulation.collector)

        if config.audit and self._policy_observes(policy):
            from repro.validation.audit import EpochAuditor

            simulation.auditor = EpochAuditor(simulation)
            observers.append(simulation.auditor)

        if config.trace_path is not None or config.metrics_path is not None:
            from repro.obs import (
                EpochLinkMetrics,
                MetricsRegistry,
                Tracer,
                install_tracer,
                make_sink,
                parse_categories,
            )

            if config.trace_path is not None:
                tracer = Tracer(
                    make_sink(config.trace_path, config.trace_format),
                    parse_categories(config.trace_categories or None),
                )
                tracer.emit(
                    0.0,
                    "meta",
                    "trace.begin",
                    workload=config.workload,
                    topology=config.topology,
                    mechanism=config.mechanism,
                    policy=config.policy,
                    alpha=config.alpha,
                    window_ns=config.window_ns,
                    epoch_ns=config.epoch_ns,
                    seed=config.seed,
                    modules=simulation.topology.num_modules,
                )
                install_tracer(
                    tracer,
                    sim=simulation.sim,
                    network=simulation.network,
                    policy=policy,
                )
                if simulation.fault_plan is not None and tracer.wants("fault"):
                    tracer.emit(
                        0.0,
                        "fault",
                        "fault.plan",
                        spec=config.fault_spec,
                        events=len(simulation.fault_plan.events),
                        **simulation.fault_plan.summary(),
                    )
                simulation.tracer = tracer
            if config.metrics_path is not None:
                simulation.metrics = MetricsRegistry()
                observers.append(EpochLinkMetrics(simulation.metrics, simulation.sim))

        if observers and policy is not None:
            if len(observers) == 1:
                policy.epoch_observer = observers[0]
            else:

                def _fanout(links, epoch_ns, _obs=tuple(observers)):
                    for ob in _obs:
                        ob(links, epoch_ns)

                policy.epoch_observer = _fanout

    @staticmethod
    def _policy_observes(policy: Optional[Any]) -> bool:
        """Whether ``policy`` runs an epoch loop that can feed observers."""
        return isinstance(policy, ManagementPolicy)
