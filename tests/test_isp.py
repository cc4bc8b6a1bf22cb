"""Focused tests for Iterative Slowdown Propagation internals."""

import pytest

from repro.core.aware import NetworkAwarePolicy
from repro.core.mechanisms import LinkModeState, make_mechanism
from repro.network import MemoryNetwork, build_topology
from repro.network.links import LinkDir
from repro.sim import Simulator
from repro.workloads.mapping import AddressMapping

GB = 1024**3


def make_policy(topology="daisychain", n=4, mechanism="VWL", alpha=0.05):
    sim = Simulator()
    topo = build_topology(topology, n)
    mapping = AddressMapping(num_modules=n, granularity_bytes=GB)
    net = MemoryNetwork(sim, topo, make_mechanism(mechanism), mapping)
    policy = NetworkAwarePolicy(net, alpha=alpha, epoch_ns=10_000.0)
    net.start()
    policy.start()
    return sim, net, policy


def drive_traffic(sim, net, reads_per_module):
    """Inject a fixed number of reads per module and drain them."""
    t = 0.0
    for module, count in enumerate(reads_per_module):
        for i in range(count):
            net.inject_read(module * GB + (i * 64) % GB, t)
            t += 5.0
    sim.run(until=max(t + 2000.0, 9000.0))


class TestPrepare:
    def test_all_width_links_are_src_candidates(self):
        sim, net, policy = make_policy(mechanism="VWL")
        policy._prepare_isp()
        for link in net.all_links():
            assert link.isp_src  # width scaling available everywhere
            assert link.ams == 0.0
            assert link.isp_sel == LinkModeState(0, None)

    def test_roo_only_excludes_response_links(self):
        sim, net, policy = make_policy(mechanism="ROO")
        policy._prepare_isp()
        for m in net.modules:
            assert m.req_in.isp_src
            assert not m.resp_out.isp_src

    def test_response_candidates_pin_lowest_threshold(self):
        sim, net, policy = make_policy(mechanism="VWL+ROO")
        policy._prepare_isp()
        for m in net.modules:
            for cand in policy._cands[m.resp_out]:
                assert cand[0].roo_index == 3


class TestGather:
    def test_dsrc_counts_subtree_srcs(self):
        sim, net, policy = make_policy(topology="daisychain", n=4)
        policy._prepare_isp()
        policy._gather()
        # Chain of 4: the head's request link has 3 downstream SRCs.
        assert net.modules[0].req_in.isp_dsrc == 3
        assert net.modules[2].req_in.isp_dsrc == 1
        assert net.modules[3].req_in.isp_dsrc == 0

    def test_dsrc_on_tree(self):
        sim, net, policy = make_policy(topology="ternary_tree", n=4)
        policy._prepare_isp()
        policy._gather()
        assert net.modules[0].req_in.isp_dsrc == 3
        for child in (1, 2, 3):
            assert net.modules[child].req_in.isp_dsrc == 0

    def test_enforce_raises_upstream_power(self):
        sim, net, policy = make_policy(topology="daisychain", n=2)
        policy._prepare_isp()
        up = net.modules[0].req_in
        down = net.modules[1].req_in
        up.isp_sel = LinkModeState(3, None)  # 1-lane upstream
        down.isp_sel = LinkModeState(1, None)  # 8-lane downstream
        policy._gather()
        assert up.isp_sel.width_index <= down.isp_sel.width_index

    def test_enforce_never_touches_downstream(self):
        sim, net, policy = make_policy(topology="daisychain", n=2)
        policy._prepare_isp()
        down = net.modules[1].req_in
        down.isp_sel = LinkModeState(2, None)
        policy._gather()
        assert down.isp_sel.width_index == 2


class TestScatter:
    def test_budget_distributes_to_idle_links(self):
        sim, net, policy = make_policy(topology="daisychain", n=4)
        # Traffic only to module 0: links to 1..3 are idle.
        drive_traffic(sim, net, [300, 0, 0, 0])
        policy._prepare_isp()
        policy._gather()
        pools = {LinkDir.REQUEST: 10_000.0, LinkDir.RESPONSE: 10_000.0}
        policy._scatter(pools)
        # Idle links (zero FLO) select the lowest-power mode.
        assert net.modules[2].req_in.isp_sel.width_index == 3
        assert net.modules[3].resp_out.isp_sel.width_index == 3

    def test_negative_budget_keeps_full_power(self):
        sim, net, policy = make_policy(topology="daisychain", n=3)
        drive_traffic(sim, net, [100, 100, 100])
        policy._prepare_isp()
        policy._gather()
        pools = {LinkDir.REQUEST: -1e6, LinkDir.RESPONSE: -1e6}
        policy._scatter(pools)
        assert any(m.req_in.ep_reads > 0 for m in net.modules)
        for m in net.modules:
            # Busy links with negative budgets cannot leave full power.
            if m.req_in.ep_reads > 0:
                assert m.req_in.isp_sel.width_index == 0

    def test_src_flag_clears_at_lowest_mode(self):
        sim, net, policy = make_policy(topology="daisychain", n=2)
        policy._prepare_isp()
        policy._gather()
        policy._scatter({LinkDir.REQUEST: 1e9, LinkDir.RESPONSE: 1e9})
        # With an enormous budget every link hits the lowest mode and
        # stops being a slowdown-receiving candidate.
        for link in net.all_links():
            assert link.isp_sel.width_index == 3
            assert not link.isp_src

    def test_next_lower_lookup(self):
        sim, net, policy = make_policy()
        policy._prepare_isp()
        link = net.modules[0].req_in
        cands = policy._cands[link]
        first = cands[0][0]
        nxt = policy._next_lower(cands, first)
        assert nxt is cands[1]
        last = cands[-1][0]
        assert policy._next_lower(cands, last) is None


class TestDiscountedTotals:
    def test_no_traffic_zero_totals(self):
        sim, net, policy = make_policy()
        sim.run(until=1000.0)
        fel, overhead = policy._discounted_epoch_totals()
        assert fel == 0.0
        assert overhead == pytest.approx(0.0)

    def test_fel_counts_dram_term(self):
        sim, net, policy = make_policy(n=1)
        drive_traffic(sim, net, [10])
        fel, _ = policy._discounted_epoch_totals()
        # At least the DRAM term: 10 reads x 30 ns.
        assert fel >= 10 * 30.0

    def test_discount_never_inflates_overhead(self):
        sim, net, policy = make_policy(topology="daisychain", n=3)
        drive_traffic(sim, net, [200, 200, 200])
        fel, discounted = policy._discounted_epoch_totals()
        # Compare with the undiscounted recursion (QF = 0 everywhere).
        from repro.core.ams import module_fel_ael

        raw = sum(
            module_fel_ael(m, policy.dram_read_latency_ns)[1]
            - module_fel_ael(m, policy.dram_read_latency_ns)[0]
            for m in net.modules
        )
        assert discounted <= raw + 1e-6


class TestFullAssignment:
    def test_assignment_covers_every_link(self):
        sim, net, policy = make_policy(topology="star", n=7, mechanism="VWL+ROO")
        drive_traffic(sim, net, [100, 50, 20, 10, 0, 0, 0])
        assignments = policy._assign_budgets()
        assert set(assignments) == set(net.all_links())
        for link, (ams, state) in assignments.items():
            assert state is not None
            assert 0 <= state.width_index < 4

    def test_grant_pool_nonnegative(self):
        sim, net, policy = make_policy(topology="star", n=7)
        drive_traffic(sim, net, [100, 0, 0, 0, 0, 0, 0])
        policy._assign_budgets()
        assert policy._grant_pool >= 0.0
        assert policy._grant_unit == pytest.approx(policy._grant_pool / 16, abs=1e-6) \
            or policy._grant_pool == 0.0

    def test_monotone_after_assignment(self):
        sim, net, policy = make_policy(topology="daisychain", n=5, mechanism="VWL")
        drive_traffic(sim, net, [500, 200, 80, 10, 0])
        policy._assign_budgets()
        topo = net.topology
        for m in range(topo.num_modules):
            for c in topo.children[m]:
                assert (
                    net.modules[m].req_in.isp_sel.width_index
                    <= net.modules[c].req_in.isp_sel.width_index
                )
                assert (
                    net.modules[m].resp_out.isp_sel.width_index
                    <= net.modules[c].resp_out.isp_sel.width_index
                )
