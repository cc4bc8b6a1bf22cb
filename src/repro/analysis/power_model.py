"""Closed-form power predictions for full-power networks.

Figure 5's full-power breakdown is almost entirely structural: at full
power every connected link burns constant power, leakage is constant,
and only the small dynamic terms depend on traffic.  This module
predicts the breakdown analytically from a topology and a utilization
estimate -- a cross-check for the simulator and a zero-cost design
tool ("what would a 32-cube ternary tree burn?").
"""

from __future__ import annotations

from typing import Dict

from repro.network.topology import Topology
from repro.power.hmc_power import DEFAULT_POWER_MODEL, HmcPowerModel

__all__ = [
    "predict_full_power_breakdown",
    "predict_idle_io_fraction",
    "predict_experiment_result",
]


def _connected_endpoints(topology: Topology) -> int:
    """Powered link endpoints: two per unidirectional link, two
    unidirectional links per module (its connectivity pair)."""
    return topology.num_modules * 4


def predict_full_power_breakdown(
    topology: Topology,
    avg_link_utilization: float = 0.0,
    accesses_per_ns: float = 0.0,
    model: HmcPowerModel = DEFAULT_POWER_MODEL,
) -> Dict[str, float]:
    """Predicted per-HMC power (W) by Figure 5 category at full power.

    ``avg_link_utilization`` splits constant I/O power into active and
    idle; ``accesses_per_ns`` sizes the dynamic DRAM/logic terms.
    """
    if not 0 <= avg_link_utilization <= 1:
        raise ValueError("utilization must be in [0, 1]")
    n = topology.num_modules
    endpoint_w = model.link_endpoint_w()
    io_total = _connected_endpoints(topology) * endpoint_w
    active = io_total * avg_link_utilization
    idle = io_total - active

    dram_leak = sum(model.dram_leakage_w(r) for r in topology.radix)
    logic_leak = sum(model.logic_leakage_w(r) for r in topology.radix)

    # Dynamic terms: energy per access / per flit, spread per second.
    e_acc = model.dram_energy_per_access_j()
    dram_dyn = accesses_per_ns * 1e9 * e_acc
    # Each access moves ~6 flits of traffic through ~avg_depth routers.
    e_flit = model.logic_energy_per_flit_j()
    flits_per_access = 6 * topology.avg_depth
    logic_dyn = accesses_per_ns * 1e9 * flits_per_access * e_flit

    return {
        "idle_io": idle / n,
        "active_io": active / n,
        "logic_leak": logic_leak / n,
        "logic_dyn": logic_dyn / n,
        "dram_leak": dram_leak / n,
        "dram_dyn": dram_dyn / n,
    }


def predict_experiment_result(
    config,
    avg_link_utilization: float = 0.0,
    accesses_per_ns: float = 0.0,
    model: HmcPowerModel = DEFAULT_POWER_MODEL,
):
    """Closed-form prediction shaped like an ``ExperimentResult``.

    Builds the config's topology exactly as the simulation harness
    would (workload profile → address mapping → module count) but runs
    **no simulation**: the power breakdown comes from
    :func:`predict_full_power_breakdown` and every traffic-dependent
    metric (throughput, latency, utilization, completion counters) is
    zero. The serve layer's graceful-degradation path uses this to
    answer requests when simulation capacity is unavailable; validation
    code can diff it against a real run.

    The returned object is a genuine
    :class:`~repro.harness.experiment.ExperimentResult`, so it
    serializes through the same code paths as a simulated one — the
    caller is responsible for labeling it approximate.
    """
    # Imported here: analysis must stay importable without pulling the
    # whole harness assembly pipeline in at module-import time.
    from repro.harness.experiment import ExperimentResult
    from repro.network.topology import build_topology
    from repro.power.accounting import PowerBreakdown
    from repro.workloads.mapping import make_mapping
    from repro.workloads.profiles import get_profile

    profile = get_profile(config.workload)
    mapping = make_mapping(config.mapping, profile.footprint_gb, config.scale)
    topology = build_topology(config.topology, mapping.num_modules)
    watts = predict_full_power_breakdown(
        topology, avg_link_utilization, accesses_per_ns, model
    )
    return ExperimentResult(
        config=config,
        num_modules=topology.num_modules,
        breakdown=PowerBreakdown(watts=watts),
        throughput_per_s=0.0,
        avg_read_latency_ns=0.0,
        max_read_latency_ns=0.0,
        channel_utilization=avg_link_utilization,
        link_utilization=avg_link_utilization,
        avg_modules_traversed=topology.avg_depth,
        completed_reads=0,
        completed_writes=0,
    )


def predict_idle_io_fraction(
    topology: Topology,
    avg_link_utilization: float = 0.1,
    accesses_per_ns: float = 0.1,
    model: HmcPowerModel = DEFAULT_POWER_MODEL,
) -> float:
    """Predicted idle-I/O share of total network power (Figure 8)."""
    watts = predict_full_power_breakdown(
        topology, avg_link_utilization, accesses_per_ns, model
    )
    total = sum(watts.values())
    return watts["idle_io"] / total if total else 0.0
