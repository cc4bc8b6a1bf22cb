"""Memory-network substrate: packets, topologies, links, routing."""

from repro.network.links import LinkController
from repro.network.network import MemoryNetwork
from repro.network.topology import (
    Radix,
    Topology,
    TopologyError,
    TOPOLOGY_NAMES,
    build_topology,
)

__all__ = [
    "Radix",
    "Topology",
    "TopologyError",
    "TOPOLOGY_NAMES",
    "build_topology",
    "LinkController",
    "MemoryNetwork",
]
