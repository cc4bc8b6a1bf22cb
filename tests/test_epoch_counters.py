"""Link hot path: epoch counters only under an epoch policy, one bound
completion callback per link.

The per-arrival counters (delay monitors, idle histogram, wake sampling,
QD/QF) and the per-read FEL/violation step exist for the epoch loop of
the unaware and aware policies.  ``SimulationBuilder`` switches them off
for ``none`` and ``static`` runs; these tests pin where they stay on and
that switching them off changes no result.
"""

import pytest

from repro.core.aware import NetworkAwarePolicy
from repro.harness.builder import SimulationBuilder
from repro.harness.experiment import ExperimentConfig, run_experiment
from repro.harness.io import result_to_cache_dict
from repro.network.links import LinkController

from tests.test_links import make_link, read_req

FAST = dict(workload="mixB", topology="daisychain", scale="small",
            window_ns=20_000.0, epoch_ns=4_000.0)


def _counting(simulation):
    return {link.epoch_counters for link in simulation.network.all_links()}


@pytest.mark.parametrize("policy, mechanism, counting", [
    ("none", "FP", False),
    ("none", "VWL+ROO", False),
    ("static", "VWL", False),
    ("unaware", "VWL+ROO", True),
    ("aware", "VWL+ROO", True),
])
def test_builder_keeps_counters_only_for_epoch_policies(policy, mechanism, counting):
    config = ExperimentConfig(**FAST, mechanism=mechanism, policy=policy)
    assert _counting(SimulationBuilder(config).build()) == {counting}


def test_policy_factory_ablation_keeps_counters():
    config = ExperimentConfig(**FAST, mechanism="VWL+ROO", policy="aware")
    simulation = SimulationBuilder(
        config,
        policy_factory=lambda net, alpha, epoch: NetworkAwarePolicy(
            net, alpha, epoch, enable_grant_pool=False
        ),
    ).build()
    assert isinstance(simulation.policy, NetworkAwarePolicy)
    assert not simulation.policy.enable_grant_pool
    assert _counting(simulation) == {True}


@pytest.mark.parametrize("policy, mechanism, mapping", [
    ("none", "FP", "contiguous"),
    ("none", "VWL+ROO", "contiguous"),
    ("static", "VWL", "interleaved"),
])
def test_skipping_counters_changes_no_result(monkeypatch, policy, mechanism, mapping):
    config = ExperimentConfig(
        **FAST, mechanism=mechanism, policy=policy, mapping=mapping
    )

    def payload():
        out = result_to_cache_dict(run_experiment(config))
        out.pop("wall_time_s")
        return out

    skipped = payload()
    built = []
    original = SimulationBuilder.build

    def counting_build(self):
        simulation = original(self)
        for link in simulation.network.all_links():
            link.epoch_counters = True
        built.append(simulation)
        return simulation

    monkeypatch.setattr(SimulationBuilder, "build", counting_build)
    counted = payload()
    assert any(link.ep_reads for link in built[0].network.all_links())
    assert counted == skipped


def test_transmission_pushes_the_links_one_bound_finish_tx():
    sim, link, delivered = make_link()
    finish = link._finish_cb
    assert finish.__self__ is link
    assert finish.__func__ is LinkController._finish_tx
    assert finish.__qualname__.startswith("LinkController.")
    callbacks = []
    for t in (0.0, 50.0):
        sim.schedule_at(t, lambda: link.enqueue(read_req(), sim.now))
        sim.run(until=t + 0.1)
        callbacks.append(sim._queue[0][2])
    sim.run()
    assert all(cb is finish for cb in callbacks)
    assert len(delivered) == 2


def test_crc_retries_under_a_fault_plan_deliver_each_read_once():
    config = ExperimentConfig(
        **FAST, mechanism="FP", fault_spec="seed=3,crc=0.6,crc_bursts=4,burst_ns=5000"
    )
    simulation = SimulationBuilder(config).build()
    network = simulation.network
    completed = []
    network.read_listeners.append(lambda pkt, now: completed.append(pkt.pkt_id))
    simulation.run()
    retries = sum(link.retries for link in network.all_links())
    assert retries > 0
    assert completed
    assert len(completed) == len(set(completed)) == network.completed_reads
