"""Simulation assembly: one composition pipeline for every harness.

:class:`SimulationBuilder` is the only place the stage order lives:

    sabotage -> profile -> mapping -> topology -> mechanism ->
    link overrides -> network -> workload -> faults -> policy ->
    observability

``build()`` returns a :class:`Simulation` bundle exposing every
assembled part, so callers that read only some of it (a bench driving
the workload's address stream, the trace recorder) still go through the
same pipeline and stay bit-identical to the full harness.  Callers with
no :class:`ExperimentConfig` at all (synthetic mappings, hand-rolled
traffic) construct ``MemoryNetwork(Simulator(), ...)`` directly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional

from repro.core.mechanisms import MechanismConfig, make_mechanism
from repro.core.overrides import LinkMechanism, resolve_link_mechanisms
from repro.core.policy import ManagementPolicy, make_policy
from repro.network.network import MemoryNetwork
from repro.network.topology import Topology, build_topology
from repro.sim.engine import Simulator
from repro.workloads.generator import ClosedLoopWorkload
from repro.workloads.mapping import make_mapping
from repro.workloads.profiles import WorkloadProfile, get_profile

if TYPE_CHECKING:  # import-cycle-free type hints only
    from repro.harness.experiment import ExperimentConfig

__all__ = ["Simulation", "SimulationBuilder"]


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
    workload: ClosedLoopWorkload
    fault_plan: Optional[Any] = None
    policy: Optional[Any] = None
    collector: Optional[Any] = None
    tracer: Optional[Any] = None
    metrics: Optional[Any] = None
    #: Per-epoch invariant auditor (``config.audit`` non-empty and a
    #: managed policy); end-of-run audit happens either way.
    auditor: Optional[Any] = None
    #: Wall-clock instant assembly started (for run instrumentation).
    build_started: float = field(default_factory=time.perf_counter)

    def run(self) -> None:
        """Start every part, run the configured window, finalize energy."""
        self.network.start()
        if self.policy is not None:
            self.policy.start()
        self.workload.start()
        self.sim.run(until=self.config.window_ns)
        self.network.finalize(self.config.window_ns)


class SimulationBuilder:
    """Builds a :class:`Simulation` from an :class:`ExperimentConfig`.

    ``policy_factory``, if given, replaces ``config.policy`` (the
    ablation benchmarks run modified network-aware variants this way):
    it is called as ``policy_factory(network, alpha, epoch_ns)`` and
    must return an object with ``start()``.
    """

    def __init__(
        self, config: "ExperimentConfig", policy_factory: Optional[Callable] = None
    ) -> None:
        self.config = config
        self.policy_factory = policy_factory

    def build(self) -> Simulation:
        """Run every stage in order and return the assembled bundle."""
        started = time.perf_counter()
        config = self.config

        fault_spec = None
        if config.fault_spec:
            from repro.faults.plan import execute_sabotage, parse_fault_spec

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
        network = MemoryNetwork(
            sim,
            topology,
            mechanism,
            mapping,
            link_mechanisms={
                name: lm.mechanism for name, lm in link_mechanisms.items()
            },
        )
        # Built before any other stage adds a read listener, so the
        # workload is always the first to hear of a completed read.
        workload = ClosedLoopWorkload(
            network, profile, stop_ns=config.window_ns, seed=config.seed
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
            workload=workload,
            build_started=started,
        )

        if fault_spec is not None:
            from repro.faults.inject import FaultInjector
            from repro.faults.plan import build_plan

            fault_plan = build_plan(
                fault_spec,
                [link.name for link in network.all_links()],
                topology.num_modules,
                config.window_ns,
            )
            simulation.fault_plan = fault_plan
            if fault_plan.events:
                FaultInjector(fault_plan).install(network)

        if self.policy_factory is not None:
            simulation.policy = self.policy_factory(
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

        self._build_observability(simulation)
        return simulation

    # ------------------------------------------------------------------
    def _build_observability(self, simulation: Simulation) -> None:
        """Wire link-hour collection, tracing, and epoch metrics."""
        config = simulation.config
        policy = simulation.policy
        # Epoch observers only exist where an epoch loop calls them.
        observers = policy.epoch_observers if self._policy_observes(policy) else None

        if config.collect_link_hours and observers is not None:
            from repro.harness.metrics import LinkHourCollector

            simulation.collector = LinkHourCollector()
            observers.append(simulation.collector)

        if config.audit and observers is not None:
            from repro.validation.audit import EpochAuditor

            simulation.auditor = EpochAuditor(simulation)
            observers.append(simulation.auditor)

        if config.trace_path is not None or config.metrics_path is not None:
            from repro.obs.metrics import EpochLinkMetrics, MetricsRegistry
            from repro.obs.sinks import make_sink
            from repro.obs.trace import Tracer, install_tracer, parse_categories

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
                if observers is not None:
                    observers.append(
                        EpochLinkMetrics(simulation.metrics, simulation.sim)
                    )

    @staticmethod
    def _policy_observes(policy: Optional[Any]) -> bool:
        """Whether ``policy`` runs an epoch loop that can feed observers."""
        return isinstance(policy, ManagementPolicy)
