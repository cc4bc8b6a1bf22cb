"""Tests of the benchmark's own logic (no server, no simulation).

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))
sys.path.insert(1, str(ROOT / "src"))

from perfbench.common import (  # noqa: E402
    Report,
    percentile,
    rows_match,
    samples_beyond,
    valid_name,
)
from perfbench.hostspeed import PROBE_REF_S, kernel, make_chase, rescale  # noqa: E402
from perfbench.loadgen import Record, Request, lag_p95_ms, run_open_loop  # noqa: E402
from perfbench.cold_sweep import timed_executor  # noqa: E402
from perfbench.serve_mixed import check_records, service_s  # noqa: E402
from perfbench.tracing import LAYER_METRICS, SpanRecorder, event_frame  # noqa: E402


class FakeClock:
    """A clock that only moves when something sleeps or works."""

    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += seconds


# -- the tail-percentile rule -------------------------------------------
def test_p95_needs_200_samples_for_10_beyond():
    assert samples_beyond(200, 0.95) == 10
    assert samples_beyond(199, 0.95) == 9
    assert min(n for n in range(1, 500) if samples_beyond(n, 0.95) >= 10) == 200
    assert min(n for n in range(1, 500) if samples_beyond(n, 0.50) >= 10) == 20


def test_nearest_rank_percentile():
    values = list(range(1, 201))
    assert percentile(values, 0.95) == 190
    assert percentile(values, 0.50) == 100
    assert percentile([7.0], 0.95) == 7.0


# -- due-time latency and generator lag ---------------------------------
def test_latency_counts_from_due_time_and_lag_from_send():
    clock = FakeClock()
    service_s_each = 0.025

    def connect():
        def send(_request):
            clock.sleep(service_s_each)
            return 200, {"tier": "memory"}
        return send

    requests = [Request(due, b"{}", "hot", f"k{i}", "light")
                for i, due in enumerate((0.0, 0.01, 0.02))]
    records = run_open_loop(requests, connect, 1, clock=clock, sleep=clock.sleep)
    assert [round(r.latency_ms, 6) for r in records] == [25.0, 40.0, 55.0]
    assert [round(r.lag_ms, 6) for r in records] == [0.0, 15.0, 30.0]
    assert round(lag_p95_ms(records), 6) == 30.0
    # The server's share: send to response, without the generator's lag.
    assert round(service_s(records), 9) == round(3 * service_s_each, 9)


def test_generator_waits_for_due_time_when_idle():
    clock = FakeClock()

    def connect():
        def send(_request):
            clock.sleep(0.001)
            return 200, {}
        return send

    records = run_open_loop([Request(0.5, b"{}", "hot", "k", "light")], connect, 1,
                            clock=clock, sleep=clock.sleep)
    assert round(records[0].sent, 9) == 0.5
    assert round(records[0].latency_ms, 6) == 1.0
    assert records[0].lag_ms == 0.0


# -- per-simulation time on the benchmark's clock -------------------------
def test_timed_executor_charges_each_result_callback_to_its_run(monkeypatch):
    executor = timed_executor()
    monkeypatch.setattr(type(executor), "_run_one", lambda _self, config: config)
    seen = []

    def on_result(index, _config, _outcome):
        seen.append(index)
        time.sleep(0.01)  # stands in for the sweep's store write

    assert executor.run_many(["a", "b", "c"], on_result=on_result) == ["a", "b", "c"]
    assert seen == [0, 1, 2]
    assert len(executor.times_s) == 3
    assert all(t >= 0.01 for t in executor.times_s)


class StubProbes:
    """Probes that take a known, slow time and report preset values."""

    def __init__(self, values) -> None:
        self.values = list(values)
        self.samples = []

    def take(self) -> float:
        time.sleep(0.05)
        self.samples.append(self.values.pop(0))
        return self.samples[-1]


def test_timed_executor_probes_between_runs_outside_the_timed_intervals(monkeypatch):
    probes = StubProbes([1.0, 3.0, 5.0, 7.0])
    executor = timed_executor(probes)
    monkeypatch.setattr(type(executor), "_run_one", lambda _self, config: config)
    executor.run_many(["a", "b", "c"], on_result=lambda *_args: time.sleep(0.01))
    assert probes.samples == [1.0, 3.0, 5.0, 7.0]
    assert executor.around_s == [2.0, 4.0, 6.0]
    assert all(0.01 <= t < 0.05 for t in executor.times_s)


# -- host-speed rescaling --------------------------------------------------
def test_rescale_reads_host_time_at_the_reference_speed():
    assert rescale(3.0, [PROBE_REF_S]) == 3.0
    # A host twice as slow as the reference: the unit took twice as long.
    assert abs(rescale(3.0, [2 * PROBE_REF_S]) - 1.5) < 1e-12
    assert abs(rescale(3.0, [PROBE_REF_S, 3 * PROBE_REF_S]) - 1.5) < 1e-12


def test_probe_kernel_is_a_fixed_amount_of_work():
    chase = make_chase(1000)
    assert kernel(chase) == kernel(chase) == kernel(make_chase(1000))
    assert kernel(chase, 100, 10) != kernel(chase, 200, 10)


# -- self time = span minus children -------------------------------------
def test_self_time_subtracts_child_spans():
    clock = FakeClock()
    rec = SpanRecorder(clock=clock)
    clock.now = 0.0
    rec.enter("A")
    clock.now = 1.0
    rec.enter("B")
    clock.now = 3.0
    rec.exit()
    clock.now = 4.0
    rec.enter("C")
    clock.now = 5.0
    rec.exit()
    clock.now = 10.0
    rec.exit()
    totals = rec.totals()
    assert totals["A"] == (1, 10.0, 7.0)
    assert totals["B"] == (1, 2.0, 2.0)
    assert totals["C"] == (1, 1.0, 1.0)


def test_event_frames_end_at_next_event_and_at_span_exit():
    clock = FakeClock()
    rec = SpanRecorder(clock=clock)
    clock.now = 0.0
    rec.enter("Simulator.run")
    clock.now = 1.0
    rec.event("ev.links")
    clock.now = 2.0
    rec.enter("VaultSet.access")
    clock.now = 2.5
    rec.exit()
    clock.now = 4.0
    rec.event("ev.router")
    clock.now = 6.0
    rec.exit()
    totals = rec.totals()
    assert totals["ev.links"] == (1, 3.0, 2.5)
    assert totals["VaultSet.access"] == (1, 0.5, 0.5)
    assert totals["ev.router"] == (1, 2.0, 2.0)
    assert totals["Simulator.run"] == (1, 6.0, 1.0)


def test_callbacks_map_to_layers_by_owning_class():
    assert event_frame("LinkController.try_start.<locals>.<lambda>") == "ev.links"
    assert event_frame("MemoryNetwork._at_destination.<locals>.<lambda>") == "ev.router"
    assert event_frame("ClosedLoopWorkload._make_batch.<locals>.<lambda>") == "ev.generator"
    assert event_frame("ManagementPolicy._epoch_tick") == "ev.policy"
    assert event_frame("FaultInjector.fire") == "ev.other"


# -- metric names --------------------------------------------------------
def test_metric_name_pattern():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    workloads = [w["name"] for w in spec["workloads"]]
    assert len(set(declared)) == len(declared)
    assert len(set(workloads)) == len(workloads)
    layer_names = [f"{layer}.self_s" for layer in LAYER_METRICS]
    assert all(valid_name(n) for n in declared + workloads + layer_names)
    for bad in ("", "has space", ".leading", "a/b", "x" * 65, "p95%"):
        assert not valid_name(bad)


def test_declared_layer_metrics_are_reported():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"] for m in spec["per_layer"]}
    assert {f"{layer}.self_s" for layer in LAYER_METRICS} <= declared


# -- wrong outputs count as failures ---------------------------------------
def _record(key, status, payload, kind="warm"):
    request = Request(0.0, b"{}", kind, key, "loaded")
    return Record(request, 0.0, 0.001, status, payload)


def test_wrong_serve_output_is_counted_as_failed():
    expected = {"k1": {"x": 1.0}, "k2": {"x": 2.0}}
    records = [
        _record("k1", 200, {"tier": "memory", "result": {"x": 1.0}}),
        _record("k2", 200, {"tier": "disk", "result": {"x": 2.5}}),
        _record("k1", 200, {"approximate": True, "result": {"x": 1.0}}),
        _record("k2", 429, {"error": "queue full"}),
        _record("c1", 200, {"tier": "simulated", "result": {"y": 1}}, "cold"),
        _record("c1", 200, {"tier": "memory", "result": {"y": 2}}, "cold"),
    ]
    report = Report()
    ok = check_records(records, expected, {}, report)
    assert ok == [True, False, False, False, True, False]
    assert report.attempted == 6
    assert report.failed == 4
    assert report.failed_ratio == 4 / 6


def test_rows_match_tolerates_last_bits_only():
    assert rows_match([("a", 0.1 + 0.2)], [("a", 0.3)])
    assert not rows_match([("a", 0.3001)], [("a", 0.3)])
    assert not rows_match({"x": 1.0}, {"y": 1.0})
    assert not rows_match(("a", 1), ["a", 1])


def test_result_line_holds_exactly_the_declared_metrics():
    report = Report({"wall_s": "s", "p50_ms": "ms"})
    report.add("wall_s", 1.5)
    report.add("p50_ms", 2.0)
    report.add("extra", 3.0, "count")
    report.count(4, 1)
    line = json.loads(report.result_line(["wall_s", "p50_ms"]))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is False
    assert (line["attempted"], line["failed"]) == (4, 1)
    assert line["metrics"] == {"wall_s": {"value": 1.5, "unit": "s"},
                               "p50_ms": {"value": 2.0, "unit": "ms"}}
