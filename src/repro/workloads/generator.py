"""Closed-loop synthetic workload injection.

This replaces the paper's GEM5 full-system front end (see DESIGN.md).
Each workload profile drives ``streams`` request streams (one per core)
against the memory network in *batch-closed-loop* fashion:

* a stream issues a batch of ``mlp`` accesses back to back (its MSHRs'
  worth of overlapping misses), waits until every read in the batch has
  returned, thinks, and repeats.  Memory latency therefore feeds
  directly into throughput -- exactly the coupling that makes
  "performance degradation vs. full power" a measurable quantity;
* think times are calibrated so the *full-power* run approaches the
  profile's target channel utilization;
* ON/OFF bursting (``duty``) inserts long gaps that create the idle
  intervals rapid-on/off exploits;
* addresses come from the profile's Figure 4 CDF via inverse-transform
  sampling, with short sequential runs for spatial locality.

Each stream owns an independent deterministic RNG, so the *sequence* of
addresses and read/write choices is identical across policies -- only
the timing moves.  That makes completed-accesses-per-second directly
comparable between a policy run and its full-power baseline.
"""

from __future__ import annotations

import math
import random
from typing import List

from repro.core.mechanisms import (
    CHANNEL_BYTES_PER_NS,
    FLIT_TIME_FULL_NS,
    SERDES_FULL_NS,
)
from repro.network.network import MemoryNetwork
from repro.network.packets import LINE_BYTES, Packet
from repro.network.router import ROUTER_LATENCY_NS
from repro.units import GB
from repro.workloads.profiles import WorkloadProfile

__all__ = ["ClosedLoopWorkload", "estimate_full_power_latency_ns"]

#: Mean OFF-phase gap inserted between bursts, nanoseconds.
_BURST_SCALE_NS: float = 8000.0


def estimate_full_power_latency_ns(
    network: MemoryNetwork, profile: WorkloadProfile
) -> float:
    """Rough full-power round-trip latency for think-time calibration.

    30 ns DRAM plus per-hop request (SERDES + router + 1 flit) and
    response (SERDES + router + 5 flits) costs, weighted by how much of
    the profile's traffic each module receives, plus a mild queueing
    allowance that grows with the target channel utilization.
    """
    topo = network.topology
    mapping = network.mapping
    n = topo.num_modules
    if mapping.interleaved:
        probs = [1.0 / n] * n
    else:
        gran_gb = mapping.granularity_bytes / GB
        probs = []
        for i in range(n):
            lo = profile.access_fraction_below(i * gran_gb)
            hi = profile.access_fraction_below((i + 1) * gran_gb)
            probs.append(max(0.0, hi - lo))
        total = sum(probs)
        probs = [p / total for p in probs] if total > 0 else [1.0 / n] * n
    exp_depth = sum(p * topo.depth(i) for i, p in enumerate(probs))
    per_hop_req = SERDES_FULL_NS + ROUTER_LATENCY_NS + FLIT_TIME_FULL_NS
    per_hop_resp = SERDES_FULL_NS + ROUTER_LATENCY_NS + 5 * FLIT_TIME_FULL_NS
    base = 30.0 + exp_depth * (per_hop_req + per_hop_resp)
    return base * (1.0 + profile.channel_util)


class ClosedLoopWorkload:
    """Drives a :class:`MemoryNetwork` with one profile's traffic."""

    def __init__(
        self,
        network: MemoryNetwork,
        profile: WorkloadProfile,
        stop_ns: float,
        seed: int = 1,
    ) -> None:
        self.network = network
        self.profile = profile
        self.stop_ns = stop_ns
        self.seed = seed
        self.sim = network.sim

        rf = profile.read_fraction
        bytes_per_access = rf * (16 + 80) + (1 - rf) * 80
        #: Target aggregate access rate (accesses per ns) hitting the
        #: profile's channel utilization at full power.
        self.target_rate = (
            profile.channel_util * 2 * CHANNEL_BYTES_PER_NS / bytes_per_access
        )
        latency = estimate_full_power_latency_ns(network, profile)
        #: Mean gap between one stream's batches so that
        #: mlp / (gap + latency) * streams = target_rate.
        gap_target = max(
            0.0, profile.mlp * profile.streams / self.target_rate - latency
        )
        self.think_on_ns = profile.duty * gap_target
        self.off_mean_ns = (
            _BURST_SCALE_NS * (1 - profile.duty) / profile.duty
            if profile.duty < 1.0
            else 0.0
        )
        #: Probability a batch is followed by an OFF gap, sized so OFF
        #: time averages (1 - duty) of the total gap budget.
        if self.off_mean_ns > 0:
            self.off_prob = min(
                1.0, (1 - profile.duty) * gap_target / self.off_mean_ns
            )
        else:
            self.off_prob = 0.0

        footprint_lines = int(profile.footprint_gb * GB) // LINE_BYTES
        self._footprint_bytes = footprint_lines * LINE_BYTES

        s = profile.streams
        self._rng: List[random.Random] = [
            random.Random(seed * 1_000_003 + i) for i in range(s)
        ]
        self._outstanding = [0] * s
        self._run_left = [0] * s
        self._cur_addr = [0] * s
        self.issued = 0

        network.read_listeners.append(self._on_read_complete)

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Stagger the streams' first batches across one gap window."""
        window = max(1.0, self.think_on_ns + 100.0)
        for s in range(self.profile.streams):
            delay = self._rng[s].uniform(0.0, window)
            self.sim.schedule(delay, self._make_batch(s))

    def _make_batch(self, s: int):
        return lambda: self._issue_batch(s)

    # ------------------------------------------------------------------
    def _next_address(self, s: int) -> int:
        rng = self._rng[s]
        if self._run_left[s] <= 0:
            gb = self.profile.sample_address_gb(rng.random())
            addr = int(gb * GB) // LINE_BYTES * LINE_BYTES
            addr = min(addr, self._footprint_bytes - LINE_BYTES)
            self._cur_addr[s] = addr
            p = 1.0 / max(1.0, self.profile.run_length)
            if p >= 1.0:
                self._run_left[s] = 1
            else:
                u = max(rng.random(), 1e-12)
                self._run_left[s] = max(1, int(math.ceil(math.log(u) / math.log(1 - p))))
        else:
            addr = self._cur_addr[s] + LINE_BYTES
            if addr >= self._footprint_bytes:
                addr = 0
            self._cur_addr[s] = addr
        self._run_left[s] -= 1
        return self._cur_addr[s]

    def _issue_batch(self, s: int) -> None:
        now = self.sim.now
        if now >= self.stop_ns:
            return
        rng_random = self._rng[s].random
        read_fraction = self.profile.read_fraction
        next_address = self._next_address
        network = self.network
        reads = 0
        for _ in range(self.profile.mlp):
            address = next_address(s)
            if rng_random() < read_fraction:
                reads += 1
                network.inject_read(address, now, stream=s)
            else:
                network.inject_write(address, now, stream=s)
        self.issued += self.profile.mlp
        if reads:
            self._outstanding[s] = reads
        else:
            # All-write batch: nothing to wait on, think and go again.
            self._schedule_next_batch(s)

    def _schedule_next_batch(self, s: int) -> None:
        rng = self._rng[s]
        gap = (
            rng.expovariate(1.0 / self.think_on_ns)
            if self.think_on_ns > 0
            else 0.0
        )
        if self.off_prob > 0 and rng.random() < self.off_prob:
            gap += rng.expovariate(1.0 / self.off_mean_ns)
        self.sim.schedule(gap, self._make_batch(s))

    def _on_read_complete(self, pkt: Packet, now: float) -> None:
        s = pkt.stream
        self._outstanding[s] -= 1
        if self._outstanding[s] == 0 and now < self.stop_ns:
            self._schedule_next_batch(s)

    # ------------------------------------------------------------------
    @property
    def completed_accesses(self) -> int:
        """Reads and writes finished so far (the throughput numerator)."""
        return self.network.completed_reads + self.network.completed_writes

    def throughput_per_s(self, window_ns: float) -> float:
        """Completed memory accesses per second over ``window_ns``."""
        if window_ns <= 0:
            return 0.0
        return self.completed_accesses / (window_ns * 1e-9)
