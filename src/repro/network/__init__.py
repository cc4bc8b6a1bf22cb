"""Memory-network substrate: packets, topologies, links, routing."""

from repro._lazy import lazy_exports

__all__ = [
    "Radix",
    "Topology",
    "TopologyError",
    "TOPOLOGY_NAMES",
    "build_topology",
    "LinkController",
    "MemoryNetwork",
]

#: Each public name's defining module, imported on first use.
_EXPORTS = {
    "Radix": "repro.network.topology",
    "Topology": "repro.network.topology",
    "TopologyError": "repro.network.topology",
    "TOPOLOGY_NAMES": "repro.network.topology",
    "build_topology": "repro.network.topology",
    "LinkController": "repro.network.links",
    "MemoryNetwork": "repro.network.network",
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
