"""Integration tests: full network assembly, routing, DRAM hand-off."""

import pytest

from repro.core.mechanisms import LinkModeState, make_mechanism
from repro.network import MemoryNetwork, build_topology
from repro.sim import Simulator
from repro.workloads.mapping import AddressMapping

GB = 1024**3


def make_network(topology="daisychain", n=3, mechanism="FP", slice_gb=4, **kwargs):
    sim = Simulator()
    topo = build_topology(topology, n)
    mapping = AddressMapping(num_modules=n, granularity_bytes=slice_gb * GB)
    net = MemoryNetwork(sim, topo, make_mechanism(mechanism), mapping, **kwargs)
    return sim, net


class TestReadPath:
    def test_read_to_root_module_completes(self):
        sim, net = make_network()
        done = []
        net.read_listeners.append(lambda pkt, now: done.append((pkt, now)))
        net.start()
        net.inject_read(0x1000, 0.0)
        sim.run()
        assert len(done) == 1
        assert net.completed_reads == 1

    def test_read_latency_composition_single_hop(self):
        sim, net = make_network(n=1)
        net.start()
        net.inject_read(0, 0.0)
        sim.run()
        # req: 0.64 tx + 3.2 serdes + 2.56 router; DRAM 30;
        # resp: 3.2 tx + 3.2 serdes (no router at the processor side).
        expected = (0.64 + 3.2 + 2.56) + 30.0 + (5 * 0.64 + 3.2)
        assert net.avg_read_latency_ns == pytest.approx(expected, rel=1e-6)

    def test_deeper_modules_take_longer(self):
        sim, net = make_network(n=3)
        latencies = {}

        def complete(pkt, now):
            latencies[pkt.src] = now - pkt.issue_time

        net.read_listeners.append(complete)
        net.start()
        net.inject_read(0 * 4 * GB, 0.0)
        sim.run()
        net.inject_read(2 * 4 * GB, sim.now)
        sim.run()
        assert latencies[2] > latencies[0]

    def test_per_hop_latency_increment(self):
        # Each extra hop costs router + serdes + tx on both directions.
        sim, net = make_network(n=4)
        latencies = {}
        net.read_listeners.append(lambda pkt, now: latencies.setdefault(
            pkt.src, now - pkt.issue_time
        ))
        net.start()
        t = 0.0
        for i in range(4):
            net.inject_read(i * 4 * GB, t)
            sim.run()
            t = sim.now + 1000.0
        hop_costs = [latencies[i + 1] - latencies[i] for i in range(3)]
        assert all(c == pytest.approx(hop_costs[0], rel=1e-6) for c in hop_costs)
        req_hop = 0.64 + 3.2 + 2.56
        resp_hop = 5 * 0.64 + 3.2 + 2.56
        assert hop_costs[0] == pytest.approx(req_hop + resp_hop, rel=1e-6)


class TestWritePath:
    def test_write_completes_without_response(self):
        sim, net = make_network()
        net.start()
        net.inject_write(0x40, 0.0)
        sim.run()
        assert net.completed_writes == 1
        assert net.completed_reads == 0
        # No response packet crossed the response link.
        assert net.channel_resp.packets_tx == 0


class TestConservation:
    def test_all_injected_reads_complete(self):
        sim, net = make_network(topology="star", n=7)
        net.start()
        import random

        rng = random.Random(7)
        for i in range(200):
            addr = rng.randrange(0, 7 * 4 * GB, 64)
            net.inject_read(addr, float(i) * 3.0)
        sim.run()
        assert net.completed_reads == 200

    def test_outstanding_counters_return_to_zero(self):
        sim, net = make_network(topology="ternary_tree", n=5)
        net.start()
        for i in range(50):
            net.inject_read((i % 5) * 4 * GB, float(i))
        sim.run()
        assert all(m.outstanding_subtree_reads == 0 for m in net.modules)

    def test_mixed_traffic_conservation(self):
        sim, net = make_network(topology="ddrx_like", n=6)
        net.start()
        import random

        rng = random.Random(3)
        reads = writes = 0
        for i in range(300):
            addr = rng.randrange(0, 6 * 4 * GB, 64)
            if rng.random() < 0.7:
                net.inject_read(addr, float(i) * 2.0)
                reads += 1
            else:
                net.inject_write(addr, float(i) * 2.0)
                writes += 1
        sim.run()
        assert net.completed_reads == reads
        assert net.completed_writes == writes


class TestRouting:
    def test_traffic_only_crosses_path_links(self):
        sim, net = make_network(topology="ternary_tree", n=4)
        net.start()
        net.inject_read(1 * 4 * GB, 0.0)  # module 1, child of root
        sim.run()
        # Links to modules 2 and 3 never transmit.
        assert net.modules[2].req_in.packets_tx == 0
        assert net.modules[3].req_in.packets_tx == 0
        assert net.modules[1].req_in.packets_tx == 1
        assert net.modules[1].resp_out.packets_tx == 1

    def test_traversal_counter(self):
        sim, net = make_network(n=3)
        net.start()
        net.inject_read(2 * 4 * GB, 0.0)  # depth 3: counts 6
        net.inject_write(0, 0.0)  # depth 1: counts 1
        sim.run()
        assert net.sum_traversals == 7


class TestDramIntegration:
    def test_dram_read_counted(self):
        sim, net = make_network()
        net.start()
        net.inject_read(0, 0.0)
        sim.run()
        assert net.modules[0].dram_reads == 1
        assert net.modules[0].ep_dram_reads == 1

    def test_vault_contention_extends_latency(self):
        sim, net = make_network(n=1)
        net.start()
        # Same line address: same vault and bank every time.
        for i in range(8):
            net.inject_read(0, 0.0)
        sim.run()
        # Eight same-bank reads serialize on the 33 ns row cycle.
        assert net.max_read_latency_ns > 7 * 33.0

    def test_dram_dynamic_energy_charged(self):
        sim, net = make_network()
        net.start()
        net.inject_read(0, 0.0)
        sim.run()
        assert net.modules[0].ledger.dram_dyn_j > 0

    def test_logic_dynamic_energy_charged_along_path(self):
        sim, net = make_network(n=3)
        net.start()
        net.inject_read(2 * 4 * GB, 0.0)
        sim.run()
        # Request passed through routers 0, 1, 2; responses back through
        # 1 and 0. Every module on the path burned router energy.
        for m in range(3):
            assert net.modules[m].ledger.logic_dyn_j > 0


class TestResponseWakeChain:
    def test_module_mode_wakes_destination_response_link(self):
        sim, net = make_network(n=3, mechanism="ROO")
        net.response_wake_mode = "module"
        net.start()
        for m in net.modules:
            m.resp_out.set_mode(LinkModeState(0, 3), 0.0)
            m.req_in.set_mode(LinkModeState(0, 3), 0.0)
        sim.run(until=5000.0)
        assert net.modules[2].resp_out.is_off
        net.inject_read(2 * 4 * GB, sim.now)
        sim.run()
        assert net.completed_reads == 1

    def test_path_mode_wakes_whole_response_path(self):
        sim, net = make_network(n=3, mechanism="ROO")
        net.response_wake_mode = "path"
        net.aware_sleep_gating = True
        net.start()
        for m in net.modules:
            m.resp_out.set_mode(LinkModeState(0, 3), 0.0)
            m.req_in.set_mode(LinkModeState(0, 3), 0.0)
        sim.run(until=5000.0)
        wakeups_before = [m.resp_out.wakeups for m in net.modules]
        net.inject_read(2 * 4 * GB, sim.now)
        sim.run()
        wakeups_after = [m.resp_out.wakeups for m in net.modules]
        # All three response links along the path woke.
        assert all(a > b for a, b in zip(wakeups_after, wakeups_before))

    def test_path_wake_hides_most_latency(self):
        def run(mode):
            sim, net = make_network(n=3, mechanism="ROO")
            net.response_wake_mode = mode
            net.start()
            for m in net.modules:
                m.resp_out.set_mode(LinkModeState(0, 3), 0.0)
            sim.run(until=5000.0)
            net.inject_read(2 * 4 * GB, sim.now)
            sim.run()
            return net.avg_read_latency_ns

        assert run("path") < run("module")

    def test_sleep_gating_keeps_links_awake_during_reads(self):
        sim, net = make_network(n=3, mechanism="ROO")
        net.response_wake_mode = "path"
        net.aware_sleep_gating = True
        net.start()
        for m in net.modules:
            m.resp_out.set_mode(LinkModeState(0, 3), 0.0)
        net.start()
        net.inject_read(2 * 4 * GB, 0.0)
        # While the read is in flight, no response link on the path may
        # power off even though the 32 ns idleness threshold passes.
        sim.run(until=25.0)
        assert not net.modules[0].resp_out.is_off


class TestFinalize:
    def test_leakage_charged_for_window(self):
        sim, net = make_network(n=2)
        net.start()
        sim.run(until=1e6)
        net.finalize(1e6)
        for m in net.modules:
            assert m.ledger.dram_leak_j > 0
            assert m.ledger.logic_leak_j > 0

    def test_all_links_listed(self):
        _sim, net = make_network(topology="ternary_tree", n=5)
        assert len(net.all_links()) == 10  # req + resp per module
