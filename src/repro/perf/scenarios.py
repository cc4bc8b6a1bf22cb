"""The named benchmark scenarios behind ``repro-mnet bench``.

Each scenario exercises one layer of the simulator (plus two end-to-end
pipeline benches) with fixed seeds and returns a deterministic
fingerprint of its results, so the harness can verify that repeated
runs -- and optimized implementations -- compute bit-identical answers.

Scenario inputs are deliberately synthetic-but-representative: the link
bench drives a realistic burst/idle arrival pattern through one
controller, the vault bench mixes reads and writes across banks, and
the end-to-end benches run the exact configurations the fig5/fig9
reproductions simulate.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Iterator, Tuple

from repro.perf.harness import register
from repro.perf.report import CALIBRATION_BENCH

__all__ = ["fingerprint"]


def fingerprint(*parts: object) -> str:
    """Stable short digest of a tuple of result values.

    Floats are digested via ``repr`` so any bit-level change in a
    computed quantity changes the fingerprint.
    """
    blob = "|".join(repr(p) for p in parts)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def _lcg(seed: int) -> Iterator[int]:
    """Deterministic 63-bit linear congruential stream."""
    state = seed & 0x7FFFFFFFFFFFFFFF
    while True:
        state = (state * 6364136223846793005 + 1442695040888963407) & 0x7FFFFFFFFFFFFFFF
        yield state


# ----------------------------------------------------------------------
# calibration -- the machine-speed yardstick (never gated itself)
# ----------------------------------------------------------------------
@register(
    CALIBRATION_BENCH,
    "fixed pure-Python workload measuring host single-thread speed",
    repeats=5,
    quick_repeats=3,
)
def _calibration(quick: bool) -> Callable[[], Tuple[int, str]]:
    n = 400_000 if quick else 1_500_000

    def work() -> Tuple[int, str]:
        total = 0
        x = 0.5
        for i in range(n):
            total = (total + i * 2654435761) & 0xFFFFFFFF
            x = x * 0.9999997 + 1e-7
        return n, fingerprint(total, x)

    return work


# ----------------------------------------------------------------------
# engine -- raw event-dispatch throughput
# ----------------------------------------------------------------------
@register("engine_dispatch", "Simulator event-dispatch loop throughput")
def _engine_dispatch(quick: bool) -> Callable[[], Tuple[int, str]]:
    chains = 16
    per_chain = 2_000 if quick else 12_000

    def work() -> Tuple[int, str]:
        from repro.sim.engine import Simulator

        sim = Simulator()
        fired = [0] * chains

        def make(c: int, step: float) -> Callable[[], None]:
            def tick() -> None:
                fired[c] += 1
                if fired[c] < per_chain:
                    sim.schedule(step, tick)

            return tick

        for c in range(chains):
            sim.schedule(0.1 + 0.01 * c, make(c, 0.7 + 0.013 * c))
        sim.run()
        return sim.events_processed, fingerprint(sim.now, tuple(fired))

    return work


# ----------------------------------------------------------------------
# links -- one controller's queue/power state machine
# ----------------------------------------------------------------------
@register("link_state_machine", "LinkController enqueue/transmit/sleep/wake path")
def _link_state_machine(quick: bool) -> Callable[[], Tuple[int, str]]:
    packets = 3_000 if quick else 15_000

    def work() -> Tuple[int, str]:
        from repro.core.mechanisms import make_mechanism
        from repro.network.direction import LinkDir
        from repro.network.links import LinkController
        from repro.network.packets import Packet, PacketKind
        from repro.power.accounting import EnergyLedger
        from repro.sim.engine import Simulator

        sim = Simulator()
        mech = make_mechanism("VWL+ROO")
        link = LinkController(
            sim,
            name="bench",
            direction=LinkDir.REQUEST,
            src=-1,
            dst=0,
            mech=mech,
            endpoint_w=1.6,
            ledger_src=EnergyLedger(),
            ledger_dst=EnergyLedger(),
        )
        link.start(0.0)

        rng = _lcg(42)
        t = 5.0
        kinds = (PacketKind.READ_REQ, PacketKind.WRITE_REQ)
        for i in range(packets):
            r = next(rng)
            # Burst of 1-4 packets, then a gap; every 16th gap is long
            # enough (>2 us) to cross ROO idleness thresholds and force
            # a power-off / wakeup cycle.
            burst = 1 + (r & 3)
            for b in range(burst):
                pkt = Packet(
                    kind=kinds[(r >> (2 + b)) & 1],
                    address=(r >> 7) % (1 << 30),
                    dest=0,
                )
                sim.schedule_at(t + 0.01 * b, _enq(link, pkt, sim))
            t += 2500.0 if i % 16 == 15 else 20.0 + (r >> 33) % 180
        sim.run()
        link.accrue(sim.now)
        return sim.events_processed, fingerprint(
            link.flits_tx,
            link.packets_tx,
            link.wakeups,
            link.busy_time_ns,
            link.off_time_ns,
            link.ledger_src.idle_io_j,
            link.ledger_src.active_io_j,
        )

    return work


def _enq(link, pkt, sim) -> Callable[[], None]:
    return lambda: link.enqueue(pkt, sim.now)


@register(
    "faulted_link_retry",
    "LinkController transmit path under CRC retries and fault windows",
)
def _faulted_link_retry(quick: bool) -> Callable[[], Tuple[int, str]]:
    packets = 3_000 if quick else 15_000

    def work() -> Tuple[int, str]:
        from repro.core.mechanisms import make_mechanism
        from repro.network.direction import LinkDir
        from repro.network.links import LinkController, LinkFaultState
        from repro.network.packets import Packet, PacketKind
        from repro.power.accounting import EnergyLedger
        from repro.sim.engine import Simulator

        sim = Simulator()
        link = LinkController(
            sim,
            name="bench",
            direction=LinkDir.REQUEST,
            src=-1,
            dst=0,
            mech=make_mechanism("VWL+ROO"),
            endpoint_w=1.6,
            ledger_src=EnergyLedger(),
            ledger_dst=EnergyLedger(),
        )
        # Same arrival pattern as link_state_machine, but the link runs
        # through rolling CRC-error windows (plus one down and one
        # degraded window), exercising the retry/retransmission path.
        link.faults = LinkFaultState(
            seed=77,
            crc=[(float(s), float(s) + 60_000.0, 0.2)
                 for s in range(0, 1_000_000, 100_000)],
            down=[(40_000.0, 44_000.0)],
            degrade=[(200_000.0, 260_000.0, 2.0)],
            retry_ns=48.0,
        )
        link.start(0.0)

        rng = _lcg(42)
        t = 5.0
        kinds = (PacketKind.READ_REQ, PacketKind.WRITE_REQ)
        for i in range(packets):
            r = next(rng)
            burst = 1 + (r & 3)
            for b in range(burst):
                pkt = Packet(
                    kind=kinds[(r >> (2 + b)) & 1],
                    address=(r >> 7) % (1 << 30),
                    dest=0,
                )
                sim.schedule_at(t + 0.01 * b, _enq(link, pkt, sim))
            t += 2500.0 if i % 16 == 15 else 20.0 + (r >> 33) % 180
        sim.run()
        link.accrue(sim.now)
        return sim.events_processed, fingerprint(
            link.flits_tx,
            link.packets_tx,
            link.retries,
            link.retry_flits,
            link.retry_time_ns,
            link.faults.draws,
            link.faults.crc_errors,
            link.faults.down_blocks,
            link.faults.degraded_tx,
            link.ledger_src.active_io_j,
        )

    return work


# ----------------------------------------------------------------------
# network/router -- multi-hop packet forwarding
# ----------------------------------------------------------------------
class _RoundRobinMapping:
    """Minimal address->module mapping for a standalone network bench."""

    def __init__(self, num_modules: int) -> None:
        self.num_modules = num_modules
        self.interleaved = True
        self.granularity_bytes = 64

    def module_of(self, address: int) -> int:
        return (address // 64) % self.num_modules


@register("network_hop", "router/link forwarding across a daisy chain")
def _network_hop(quick: bool) -> Callable[[], Tuple[int, str]]:
    reads = 1_500 if quick else 8_000
    modules = 8

    def work() -> Tuple[int, str]:
        from repro.core.mechanisms import make_mechanism
        from repro.network.network import MemoryNetwork
        from repro.network.topology import build_topology
        from repro.sim.engine import Simulator

        sim = Simulator()
        network = MemoryNetwork(
            sim,
            build_topology("daisychain", modules),
            make_mechanism("FP"),
            _RoundRobinMapping(modules),
        )
        network.start()
        rng = _lcg(7)
        t = 1.0
        for _ in range(reads):
            r = next(rng)
            network.inject_read((r >> 5) % (1 << 28), t)
            if r & 7 == 0:
                network.inject_write((r >> 9) % (1 << 28), t)
            t += 2.0 + (r & 31)
        sim.run()
        return sim.events_processed, fingerprint(
            network.completed_reads,
            network.completed_writes,
            network.sum_read_latency_ns,
            network.max_read_latency_ns,
            network.sum_traversals,
        )

    return work


# ----------------------------------------------------------------------
# dram -- vault timing model
# ----------------------------------------------------------------------
@register("dram_vault", "VaultSet close-page access scheduling")
def _dram_vault(quick: bool) -> Callable[[], Tuple[int, str]]:
    accesses = 20_000 if quick else 120_000

    def work() -> Tuple[int, str]:
        from repro.dram.timing import DEFAULT_TIMING
        from repro.dram.vault import VaultSet

        vaults = VaultSet(DEFAULT_TIMING)
        rng = _lcg(1234)
        now = 0.0
        acc_ready = 0.0
        for i in range(accesses):
            r = next(rng)
            address = (r >> 4) % (1 << 32)
            access = vaults.access(now, address, is_read=(i & 3) != 3)
            acc_ready += access.data_ready
            now += 0.5 + (r & 15) * 0.25
        return accesses, fingerprint(
            vaults.reads, vaults.writes, acc_ready, vaults.busy_fraction(now)
        )

    return work


# ----------------------------------------------------------------------
# workloads -- closed-loop address-stream generation
# ----------------------------------------------------------------------
@register("workload_generation", "profile-driven address stream generation")
def _workload_generation(quick: bool) -> Callable[[], Tuple[int, str]]:
    per_stream = 2_000 if quick else 12_000

    def work() -> Tuple[int, str]:
        from repro.harness.builder import SimulationBuilder
        from repro.harness.experiment import ExperimentConfig

        simulation = SimulationBuilder(
            ExperimentConfig(workload="mixB", window_ns=1.0, seed=9)
        ).build()
        wl = simulation.workload
        profile = simulation.profile
        total = 0
        count = 0
        for s in range(min(4, profile.streams)):
            for _ in range(per_stream):
                total = (total + wl._next_address(s)) & 0xFFFFFFFFFFFF
                count += 1
        return count, fingerprint(total)

    return work


# ----------------------------------------------------------------------
# end-to-end -- the fig5 / fig9 pipeline configurations
# ----------------------------------------------------------------------
def _e2e(config_kwargs: dict) -> Tuple[int, str]:
    from repro.harness.experiment import ExperimentConfig, run_experiment
    from repro.harness.io import result_to_cache_dict

    result = run_experiment(ExperimentConfig(**config_kwargs))
    payload = result_to_cache_dict(result)
    payload.pop("wall_time_s", None)  # machine-dependent
    return result.events_processed, fingerprint(sorted(payload.items()))


@register(
    "e2e_fig5",
    "cold fig5 pipeline run (mixB / daisychain / small / FP)",
    repeats=3,
    quick_repeats=2,
)
def _e2e_fig5(quick: bool) -> Callable[[], Tuple[int, str]]:
    kwargs = dict(
        workload="mixB",
        topology="daisychain",
        scale="small",
        mechanism="FP",
        policy="none",
        window_ns=60_000.0 if quick else 400_000.0,
        epoch_ns=20_000.0,
        seed=1,
    )
    return lambda: _e2e(kwargs)


@register(
    "e2e_fig5_audit",
    "fig5-shaped managed run with strict invariant auditing on "
    "(mixB / daisychain / small / VWL+ROO / unaware / --audit)",
    repeats=3,
    quick_repeats=2,
)
def _e2e_fig5_audit(quick: bool) -> Callable[[], Tuple[int, str]]:
    # Mirrors e2e_fig5's shape but managed (so the per-epoch auditor
    # actually runs) and audited: tracks what --audit=strict costs
    # end-to-end.  The unaudited hot path is gated by e2e_fig5 itself
    # -- auditing must stay zero-overhead when off.
    kwargs = dict(
        workload="mixB",
        topology="daisychain",
        scale="small",
        mechanism="VWL+ROO",
        policy="unaware",
        alpha=0.05,
        window_ns=60_000.0 if quick else 400_000.0,
        epoch_ns=20_000.0,
        seed=1,
        audit="strict",
    )
    return lambda: _e2e(kwargs)


@register(
    "e2e_fig9",
    "cold fig9 pipeline run (sp.D / star / big / FP)",
    repeats=3,
    quick_repeats=2,
)
def _e2e_fig9(quick: bool) -> Callable[[], Tuple[int, str]]:
    kwargs = dict(
        workload="sp.D",
        topology="star",
        scale="big",
        mechanism="FP",
        policy="none",
        window_ns=40_000.0 if quick else 200_000.0,
        epoch_ns=20_000.0,
        seed=1,
    )
    return lambda: _e2e(kwargs)


@register(
    "e2e_hetero",
    "heterogeneous per-depth override pipeline run "
    "(mixB / daisychain / aware, depth-staged VWL+ROO)",
    repeats=3,
    quick_repeats=2,
)
def _e2e_hetero(quick: bool) -> Callable[[], Tuple[int, str]]:
    kwargs = dict(
        workload="mixB",
        topology="daisychain",
        scale="small",
        mechanism="FP",
        mechanism_overrides="depth>=2:VWL+ROO,link:m0-up:FP",
        policy="aware",
        alpha=0.05,
        window_ns=60_000.0 if quick else 400_000.0,
        epoch_ns=20_000.0,
        seed=1,
    )
    return lambda: _e2e(kwargs)

# ----------------------------------------------------------------------
# result store -- the warm-sweep bulk-lookup path
# ----------------------------------------------------------------------
@register(
    "store_bulk_lookup",
    "warm sweep probe over both store backends: per-key JSON reads "
    "plus one SqliteStore.get_many batch",
    repeats=3,
    quick_repeats=2,
)
def _store_bulk_lookup(quick: bool) -> Callable[[], Tuple[int, str]]:
    # Seeding both backends is factory work (untimed); work() measures
    # the lookup path a warm SweepRunner actually takes -- the sqlite
    # batch answers the same probes in one IN-query instead of n file
    # opens, which is the layer's headline win.
    import tempfile
    from pathlib import Path

    from repro.harness.experiment import ExperimentConfig, ExperimentResult
    from repro.power.accounting import PowerBreakdown
    from repro.store.jsondir import JsonDirStore
    from repro.store.sqlite import SqliteStore

    n = 80 if quick else 200
    tmp = tempfile.TemporaryDirectory(prefix="repro-bench-store-")
    root = Path(tmp.name)
    base = ExperimentConfig(
        workload="mixB", window_ns=30_000.0, epoch_ns=10_000.0
    )
    entries = []
    for i in range(n):
        config = base.replace(seed=5_000 + i)
        result = ExperimentResult(
            config=config,
            num_modules=16,
            breakdown=PowerBreakdown(watts={
                "idle_io": 2.0 + i * 1e-3,
                "active_io": 1.0,
                "logic_leak": 0.5,
                "logic_dyn": 0.5,
                "dram_leak": 0.5,
                "dram_dyn": 0.5,
            }),
            throughput_per_s=1e9 + i,
            avg_read_latency_ns=100.0 + i,
            max_read_latency_ns=500.0,
            channel_utilization=0.5,
            link_utilization=0.1,
            avg_modules_traversed=2.0,
            completed_reads=10_000 + i,
            completed_writes=500,
            events_processed=1_234 + i,
            wall_time_s=0.0,
        )
        entries.append((config, result))
    json_store = JsonDirStore(root / "json")
    sqlite_store = SqliteStore(root / "results.sqlite")
    json_store.put_many(entries)
    sqlite_store.put_many(entries)
    configs = [config for config, _ in entries]

    def work() -> Tuple[int, str]:
        _hold = tmp  # keep the seeded temp dir alive across the run
        per_key = {c.cache_key(): json_store.get(c) for c in configs}
        bulk = sqlite_store.get_many(configs)
        marks = tuple(
            (key, per_key[key].completed_reads, bulk[key].completed_reads)
            for key in sorted(bulk)
        )
        return 2 * n, fingerprint(len(per_key), len(bulk), marks)

    return work
