"""The paper's contribution: I/O power-control mechanisms and management."""

from repro._lazy import lazy_exports

__all__ = [
    "MechanismConfig",
    "LinkModeState",
    "make_mechanism",
    "MECHANISM_NAMES",
    "OverrideError",
    "LinkMechanism",
    "resolve_link_mechanisms",
    "ManagementPolicy",
    "NetworkUnawarePolicy",
    "NetworkAwarePolicy",
    "StaticBaselinePolicy",
    "CounterBudget",
    "link_counter_bits",
    "module_counter_bits",
    "network_overhead",
]

#: Each public name's defining module, imported on first use.
_EXPORTS = {
    "MechanismConfig": "repro.core.mechanisms",
    "LinkModeState": "repro.core.mechanisms",
    "make_mechanism": "repro.core.mechanisms",
    "MECHANISM_NAMES": "repro.core.mechanisms",
    "OverrideError": "repro.core.overrides",
    "LinkMechanism": "repro.core.overrides",
    "resolve_link_mechanisms": "repro.core.overrides",
    "ManagementPolicy": "repro.core.policy",
    "NetworkUnawarePolicy": "repro.core.unaware",
    "NetworkAwarePolicy": "repro.core.aware",
    "StaticBaselinePolicy": "repro.core.static_baseline",
    "CounterBudget": "repro.core.hardware_cost",
    "link_counter_bits": "repro.core.hardware_cost",
    "module_counter_bits": "repro.core.hardware_cost",
    "network_overhead": "repro.core.hardware_cost",
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
