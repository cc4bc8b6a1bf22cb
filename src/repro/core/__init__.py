"""The paper's contribution: I/O power-control mechanisms and management."""

from repro.core.aware import NetworkAwarePolicy
from repro.core.hardware_cost import (
    CounterBudget,
    link_counter_bits,
    module_counter_bits,
    network_overhead,
)
from repro.core.mechanisms import (
    LinkModeState,
    MECHANISM_NAMES,
    MechanismConfig,
    make_mechanism,
)
from repro.core.overrides import (
    LinkMechanism,
    OverrideError,
    resolve_link_mechanisms,
)
from repro.core.policy import ManagementPolicy
from repro.core.static_baseline import StaticBaselinePolicy
from repro.core.unaware import NetworkUnawarePolicy

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
