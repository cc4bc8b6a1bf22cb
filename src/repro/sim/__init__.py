"""Discrete-event simulation substrate."""

from repro._lazy import lazy_exports

__all__ = ["Simulator", "SimulationError"]

#: Each public name's defining module, imported on first use.
_EXPORTS = {
    "Simulator": "repro.sim.engine",
    "SimulationError": "repro.sim.engine",
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
