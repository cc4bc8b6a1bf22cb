"""Tests for streaming latency statistics."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mechanisms import make_mechanism
from repro.harness.stats import LatencyTracker, summarize
from repro.network import MemoryNetwork, build_topology
from repro.sim import Simulator
from repro.workloads.mapping import AddressMapping

GB = 1024**3


def make_tracker(reservoir_size=4096):
    sim = Simulator()
    topo = build_topology("daisychain", 2)
    mapping = AddressMapping(num_modules=2, granularity_bytes=4 * GB)
    net = MemoryNetwork(sim, topo, make_mechanism("FP"), mapping)
    net.start()
    tracker = LatencyTracker(net, reservoir_size=reservoir_size)
    return sim, net, tracker


class TestStreamingMoments:
    def test_exact_mean_and_std(self):
        _sim, _net, tracker = make_tracker()
        values = [10.0, 20.0, 30.0, 40.0]
        for v in values:
            tracker.observe(v)
        assert tracker.mean_ns == pytest.approx(25.0)
        expected_std = math.sqrt(sum((v - 25) ** 2 for v in values) / 4)
        assert tracker.std_ns == pytest.approx(expected_std)
        assert tracker.max_ns == 40.0
        assert tracker.min_ns == 10.0

    def test_empty_tracker(self):
        _sim, _net, tracker = make_tracker()
        assert tracker.mean_ns == 0.0
        assert tracker.std_ns == 0.0
        assert tracker.summary()["count"] == 0.0

    def test_single_sample(self):
        _sim, _net, tracker = make_tracker()
        tracker.observe(42.0)
        assert tracker.percentile(50) == 42.0
        assert tracker.std_ns == 0.0


class TestPercentiles:
    def test_exact_when_under_reservoir(self):
        _sim, _net, tracker = make_tracker()
        for v in range(1, 101):
            tracker.observe(float(v))
        assert tracker.percentile(0) == 1.0
        assert tracker.percentile(100) == 100.0
        assert tracker.percentile(50) == pytest.approx(50.5)

    def test_reservoir_approximation_reasonable(self):
        _sim, _net, tracker = make_tracker(reservoir_size=512)
        rng = random.Random(1)
        for _ in range(20_000):
            tracker.observe(rng.uniform(0, 1000))
        assert tracker.percentile(50) == pytest.approx(500, abs=80)
        assert tracker.percentile(95) == pytest.approx(950, abs=60)

    def test_invalid_percentile(self):
        _sim, _net, tracker = make_tracker()
        with pytest.raises(ValueError):
            tracker.percentile(101)

    def test_invalid_reservoir(self):
        with pytest.raises(ValueError):
            make_tracker(reservoir_size=0)


class TestNetworkIntegration:
    def test_tracks_read_completions(self):
        sim, net, tracker = make_tracker()
        for i in range(10):
            net.inject_read(i * 64, float(i) * 100)
        sim.run()
        assert tracker.count == 10
        assert tracker.mean_ns == pytest.approx(net.avg_read_latency_ns)
        assert tracker.max_ns == pytest.approx(net.max_read_latency_ns)

    def test_coexists_with_workload_callback(self):
        sim, net, tracker = make_tracker()
        seen = []
        net.read_listeners.append(lambda pkt, now: seen.append(pkt.pkt_id))
        net.inject_read(0, 0.0)
        sim.run()
        assert len(seen) == 1 and tracker.count == 1

    def test_summary_keys(self):
        _sim, _net, tracker = make_tracker()
        tracker.observe(5.0)
        summary = tracker.summary()
        assert set(summary) == {
            "count", "mean_ns", "std_ns", "p50_ns", "p95_ns", "p99_ns", "max_ns",
        }


class TestSummarize:
    def test_empty(self):
        assert summarize([])["count"] == 0.0

    def test_basic(self):
        s = summarize([1.0, 3.0])
        assert s["mean"] == 2.0
        assert s["min"] == 1.0 and s["max"] == 3.0
        assert s["std"] == pytest.approx(1.0)


@settings(max_examples=30, deadline=None)
@given(values=st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=200))
def test_streaming_mean_matches_batch(values):
    _sim, _net, tracker = make_tracker()
    for v in values:
        tracker.observe(v)
    assert tracker.mean_ns == pytest.approx(sum(values) / len(values), rel=1e-9, abs=1e-6)
    assert tracker.max_ns == max(values)
