"""SimulationBuilder: one way to assemble a simulation.

The builder's only inputs are an ``ExperimentConfig`` and an optional
policy factory.  Every build attaches the closed-loop workload, which
is the network's first read listener; anything appended after the build
observes reads without changing the run.
"""

import dataclasses
import inspect
import json

import pytest

from repro.harness.builder import SimulationBuilder
from repro.harness.experiment import ExperimentConfig, run_experiment
from repro.harness.stats import LatencyTracker
from repro.network.network import MemoryNetwork
from repro.obs.metrics import EpochLinkMetrics

FAST = dict(workload="mixB", topology="daisychain", scale="small",
            window_ns=20_000.0, epoch_ns=4_000.0)


def test_builder_takes_a_config_and_a_policy_factory_only():
    switches = [
        name for name in dir(SimulationBuilder)
        if name.startswith(("with_", "without_"))
    ]
    assert switches == []
    params = inspect.signature(SimulationBuilder).parameters
    assert list(params) == ["config", "policy_factory"]
    assert params["policy_factory"].default is None


def test_network_takes_no_roo_switch():
    assert "roo_enabled" not in inspect.signature(MemoryNetwork).parameters
    config = ExperimentConfig(**FAST, mechanism="VWL+ROO")
    network = SimulationBuilder(config).build().network
    assert all(link.roo_enabled == link.mech.has_roo for link in network.all_links())


def test_every_build_attaches_the_workload_as_first_read_listener():
    simulation = SimulationBuilder(ExperimentConfig(**FAST)).build()
    assert simulation.network.read_listeners == [
        simulation.workload._on_read_complete
    ]


def _snapshot(simulation):
    network = simulation.network
    return (
        simulation.sim.events_processed,
        network.injected_reads,
        network.injected_writes,
        network.completed_reads,
        network.completed_writes,
        network.sum_read_latency_ns,
        network.max_read_latency_ns,
        network.sum_traversals,
        [dataclasses.astuple(module.ledger) for module in network.modules],
        [(link.packets_tx, link.flits_tx) for link in network.all_links()],
    )


@pytest.mark.parametrize("mechanism, policy", [
    ("FP", "none"),
    ("VWL+ROO", "aware"),
])
def test_listener_attached_after_build_sees_every_read_and_changes_nothing(
    mechanism, policy
):
    config = ExperimentConfig(**FAST, mechanism=mechanism, policy=policy)
    bare = SimulationBuilder(config).build()
    bare.run()

    tracked = SimulationBuilder(config).build()
    tracker = LatencyTracker(tracked.network)
    tracked.run()

    network = tracked.network
    assert network.completed_reads > 0
    assert tracker.count == network.completed_reads
    assert tracker.max_ns == network.max_read_latency_ns
    assert _snapshot(tracked) == _snapshot(bare)


def test_managed_policy_calls_each_epoch_observer_once_per_epoch(tmp_path):
    config = ExperimentConfig(
        **FAST, mechanism="VWL", policy="aware", collect_link_hours=True,
        audit="strict", metrics_path=str(tmp_path / "m.json"),
    )
    simulation = SimulationBuilder(config).build()
    collector, auditor, bridge = simulation.policy.epoch_observers
    assert collector is simulation.collector
    assert auditor is simulation.auditor
    assert isinstance(bridge, EpochLinkMetrics)
    assert bridge.registry is simulation.metrics

    simulation.run()
    epochs = simulation.policy.epochs_run
    assert epochs > 0
    assert collector.total_ns > 0
    assert auditor.epoch == epochs
    assert len(simulation.metrics.epochs) == epochs
    assert simulation.metrics.counter("epochs").value == epochs


@pytest.mark.parametrize("policy", ["static", "none"])
def test_unmanaged_run_writes_metrics_without_epochs(tmp_path, policy):
    path = tmp_path / "m.json"
    config = ExperimentConfig(
        **FAST, mechanism="VWL", policy=policy, metrics_path=str(path)
    )
    run_experiment(config)
    assert json.loads(path.read_text())["epochs"] == []
