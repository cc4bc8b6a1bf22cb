"""repro: a reproduction of "Understanding and Optimizing Power
Consumption in Memory Networks" (HPCA 2017).

A trace-free, closed-loop, event-driven simulator of HMC-style memory
networks with the paper's power model, circuit-level I/O power-control
mechanisms (ROO / VWL / DVFS), and both management schemes
(network-unaware, Section V; network-aware ISP, Section VI).

Quickstart::

    from repro import ExperimentConfig, run_experiment

    result = run_experiment(
        ExperimentConfig(
            workload="mixB",
            topology="ternary_tree",
            mechanism="VWL+ROO",
            policy="aware",
            alpha=0.05,
        )
    )
    print(result.breakdown.watts)

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-versus-measured record.

The names re-exported here (``__all__``) are the package's **stable v1
surface** -- the facade external code should import from: experiment
entry points (:class:`ExperimentConfig`, :func:`run_experiment`,
:class:`SweepRunner`), the result-store layer (:class:`ResultStore`,
:class:`JsonDirStore`, :class:`SqliteStore`, :func:`make_store`), and
the serve client (:class:`ServeClient`, :class:`ServeError`).
Anything importable but not listed in docs/api.md's "Stable v1
surface" section is internal and may change without notice.
"""

from repro._lazy import lazy_exports

__version__ = "1.1.0"

__all__ = [
    "__version__",
    "Simulator",
    "Topology",
    "TOPOLOGY_NAMES",
    "Radix",
    "build_topology",
    "MemoryNetwork",
    "MechanismConfig",
    "LinkModeState",
    "make_mechanism",
    "MECHANISM_NAMES",
    "NetworkUnawarePolicy",
    "NetworkAwarePolicy",
    "StaticBaselinePolicy",
    "HmcPowerModel",
    "DEFAULT_POWER_MODEL",
    "PowerBreakdown",
    "WORKLOAD_NAMES",
    "get_profile",
    "ClosedLoopWorkload",
    "ExperimentConfig",
    "ExperimentResult",
    "run_experiment",
    "RunSettings",
    "SweepRunner",
    "SimulationBuilder",
    "ResultStore",
    "JsonDirStore",
    "SqliteStore",
    "make_store",
    "ServeClient",
    "ServeError",
    "Registry",
    "Violation",
    "ValidationReport",
    "AuditViolationError",
    "validate_config",
    "run_suite",
]

#: Each public name's defining module, imported on first use.
_EXPORTS = {
    "Simulator": "repro.sim.engine",
    "Topology": "repro.network.topology",
    "TOPOLOGY_NAMES": "repro.network.topology",
    "Radix": "repro.network.topology",
    "build_topology": "repro.network.topology",
    "MemoryNetwork": "repro.network.network",
    "MechanismConfig": "repro.core.mechanisms",
    "LinkModeState": "repro.core.mechanisms",
    "make_mechanism": "repro.core.mechanisms",
    "MECHANISM_NAMES": "repro.core.mechanisms",
    "NetworkUnawarePolicy": "repro.core.unaware",
    "NetworkAwarePolicy": "repro.core.aware",
    "StaticBaselinePolicy": "repro.core.static_baseline",
    "HmcPowerModel": "repro.power.hmc_power",
    "DEFAULT_POWER_MODEL": "repro.power.hmc_power",
    "PowerBreakdown": "repro.power.accounting",
    "WORKLOAD_NAMES": "repro.workloads.profiles",
    "get_profile": "repro.workloads.profiles",
    "ClosedLoopWorkload": "repro.workloads.generator",
    "ExperimentConfig": "repro.harness.experiment",
    "ExperimentResult": "repro.harness.experiment",
    "run_experiment": "repro.harness.experiment",
    "RunSettings": "repro.harness.figures",
    "SweepRunner": "repro.harness.sweep",
    "SimulationBuilder": "repro.harness.builder",
    "ResultStore": "repro.store.base",
    "JsonDirStore": "repro.store.jsondir",
    "SqliteStore": "repro.store.sqlite",
    "make_store": "repro.store",
    "ServeClient": "repro.serve.client",
    "ServeError": "repro.serve.client",
    "Registry": "repro.registry",
    "Violation": "repro.validation.violations",
    "ValidationReport": "repro.validation.violations",
    "AuditViolationError": "repro.validation.audit",
    "validate_config": "repro.validation.suite",
    "run_suite": "repro.validation.suite",
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
