"""Pipelined router model (Section III-B).

Each HMC's logic die routes packets between its links and its vaults
through a pipelined router clocked at the minimum single-flit transfer
time of the evaluated links (0.64 ns) with a four-cycle latency.
"""

from __future__ import annotations

from repro.core.mechanisms import FLIT_TIME_FULL_NS

__all__ = ["ROUTER_CLOCK_NS", "ROUTER_PIPELINE_CYCLES", "ROUTER_LATENCY_NS"]

#: Router clock period: one flit slot on a full-width link.
ROUTER_CLOCK_NS: float = FLIT_TIME_FULL_NS
#: Pipeline depth of the router.
ROUTER_PIPELINE_CYCLES: int = 4
#: Per-traversal router latency.
ROUTER_LATENCY_NS: float = ROUTER_CLOCK_NS * ROUTER_PIPELINE_CYCLES
