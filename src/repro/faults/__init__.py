"""Deterministic fault injection (see ``docs/resilience.md``).

Public surface:

* :func:`parse_fault_spec` / :class:`FaultSpec` -- the compact textual
  grammar carried by ``ExperimentConfig.fault_spec``;
* :func:`build_plan` / :class:`FaultPlan` / :class:`FaultEvent` -- the
  seed-deterministic schedule of fault windows;
* :class:`FaultInjector` -- attaches a plan to a built network;
* :func:`execute_sabotage` -- chaos-testing directives for the hardened
  execution harness (crash / die / hang).
"""

from repro._lazy import lazy_exports

__all__ = [
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "FaultSpecError",
    "VaultFaultTable",
    "build_plan",
    "execute_sabotage",
    "parse_fault_spec",
]

#: Each public name's defining module, imported on first use.
_EXPORTS = {
    "FaultEvent": "repro.faults.plan",
    "FaultInjector": "repro.faults.inject",
    "FaultPlan": "repro.faults.plan",
    "FaultSpec": "repro.faults.plan",
    "FaultSpecError": "repro.faults.plan",
    "VaultFaultTable": "repro.faults.inject",
    "build_plan": "repro.faults.plan",
    "execute_sabotage": "repro.faults.plan",
    "parse_fault_spec": "repro.faults.plan",
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
