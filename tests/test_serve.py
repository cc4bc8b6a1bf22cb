"""Experiment service tests: tiering, single-flight dedup, batching,
backpressure/admission codes, graceful drain, and the HTTP API
(endpoints, error mapping, /stats accounting, and the /v1 keys the
benchmark and the smoke scripts read)."""

import errno
import json
import socket
import sqlite3
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.harness.diskcache import DiskCache
from repro.harness.executor import Executor, FailedResult
from repro.harness.experiment import ExperimentConfig, ExperimentResult
from repro.harness.journal import SweepJournal
from repro.harness.report import render_run_summary
from repro.power.accounting import PowerBreakdown
from repro.serve import (
    DrainingError,
    ExperimentServer,
    ExperimentService,
    LruResultCache,
    QueueFullError,
    ServiceSettings,
)

FAST = dict(window_ns=20_000.0, epoch_ns=5_000.0)

WATTS = {
    "idle_io": 2.0, "active_io": 1.0, "logic_leak": 0.5,
    "logic_dyn": 0.5, "dram_leak": 0.5, "dram_dyn": 0.5,
}


def fake_result(config: ExperimentConfig) -> ExperimentResult:
    """A structurally valid result without running a simulation."""
    return ExperimentResult(
        config=config,
        num_modules=16,
        breakdown=PowerBreakdown(watts=dict(WATTS)),
        throughput_per_s=1e9 + config.seed,
        avg_read_latency_ns=100.0,
        max_read_latency_ns=500.0,
        channel_utilization=0.5,
        link_utilization=0.1,
        avg_modules_traversed=2.0,
        completed_reads=1000,
        completed_writes=500,
        events_processed=1234,
        wall_time_s=0.01,
    )


class GateExecutor(Executor):
    """Fake executor: blocks each batch on a gate, counts calls."""

    jobs = 1

    def __init__(self, hold: bool = False, fail: bool = False) -> None:
        self.gate = threading.Event()
        if not hold:
            self.gate.set()
        self.fail = fail
        self.batches = []
        self.simulated = 0

    def run_many(self, configs, on_result=None):
        """Resolve every config with a fake result (or failure)."""
        configs = list(configs)
        self.batches.append(len(configs))
        assert self.gate.wait(20), "gate never opened"
        out = []
        for i, config in enumerate(configs):
            self.simulated += 1
            if self.fail:
                outcome = FailedResult(
                    config=config, error_type="error", message="boom"
                )
            else:
                outcome = fake_result(config)
            if on_result is not None:
                on_result(i, config, outcome)
            out.append(outcome)
        return out


class PoolGateExecutor(GateExecutor):
    """A GateExecutor that reports two workers, as a process pool would."""

    jobs = 2


def make_service(tmp_path=None, executor=None, **settings) -> ExperimentService:
    settings.setdefault("batch_window_s", 0.005)
    return ExperimentService(
        executor=executor or GateExecutor(),
        disk_cache=DiskCache(tmp_path) if tmp_path is not None else None,
        settings=ServiceSettings(**settings),
    ).start()


@pytest.fixture()
def cfg():
    return ExperimentConfig(workload="mixB", **FAST)


class TestLruResultCache:
    def test_hit_miss_and_eviction_accounting(self, cfg):
        lru = LruResultCache(capacity=2)
        assert lru.get("a") is None and lru.misses == 1
        ra, rb, rc = (fake_result(cfg.replace(seed=i)) for i in (1, 2, 3))
        lru.put("a", ra)
        lru.put("b", rb)
        assert lru.get("a") is ra  # refreshes recency: b is now LRU
        lru.put("c", rc)
        assert lru.evictions == 1
        assert lru.get("b") is None  # b was evicted, not a
        assert lru.get("a") is ra and lru.get("c") is rc
        assert lru.stats()["size"] == 2

    def test_capacity_zero_disables_the_tier(self, cfg):
        lru = LruResultCache(capacity=0)
        lru.put("a", fake_result(cfg))
        assert lru.get("a") is None
        assert len(lru) == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            LruResultCache(capacity=-1)


class TestSingleFlight:
    def test_n_concurrent_identical_requests_one_simulation(self, cfg):
        executor = GateExecutor(hold=True)
        service = make_service(executor=executor)
        tickets = [service.submit(cfg) for _ in range(6)]
        assert len({id(t) for t in tickets}) == 1  # one shared flight
        executor.gate.set()
        assert tickets[0].wait(10)
        assert executor.simulated == 1
        stats = service.stats()
        assert stats["tiers"]["simulated"] == 1
        assert stats["dedup_coalesced"] == 5
        assert stats["requests_total"] == 6
        assert service.drain(timeout=5)

    def test_distinct_configs_do_not_coalesce(self, cfg):
        executor = GateExecutor()
        service = make_service(executor=executor)
        a = service.execute(cfg, timeout=10)
        b = service.execute(cfg.replace(seed=2), timeout=10)
        assert a is not b
        assert executor.simulated == 2
        assert service.stats()["dedup_coalesced"] == 0
        assert service.drain(timeout=5)

    def test_concurrent_submitters_lose_no_update(self, cfg):
        """Memory tier, breakers and counters share the service
        condition: hammer them from more threads than cores with a
        short switch interval and check that every count adds up."""
        import sys

        executor = GateExecutor()
        service = make_service(executor=executor, queue_limit=0,
                               batch_window_s=0.0)
        configs = [cfg.replace(seed=i) for i in range(24)]
        threads, per_thread = 8, 150

        def hammer(offset: int) -> None:
            for i in range(per_thread):
                ticket = service.submit(configs[(offset * 7 + i) % len(configs)])
                assert ticket.wait(20)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=hammer, args=(k,))
                       for k in range(threads)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=60)
            assert not any(w.is_alive() for w in workers)
        finally:
            sys.setswitchinterval(interval)
        stats = service.stats()
        total = threads * per_thread
        tiers = stats["tiers"]
        assert stats["requests_total"] == total
        assert (tiers["memory"] + tiers["disk"] + tiers["simulated"]
                + stats["dedup_coalesced"]) == total
        lru = stats["memory_cache"]
        assert lru["hits"] == tiers["memory"]
        assert lru["hits"] + lru["misses"] == total - stats["dedup_coalesced"]
        assert lru["inserts"] == tiers["simulated"] == executor.simulated
        assert stats["in_flight"] == 0 and stats["queue_depth"] == 0
        assert service.drain(timeout=10)


class TestTiering:
    def test_simulate_then_memory_hit(self, cfg):
        service = make_service()
        first = service.execute(cfg, timeout=10)
        again = service.execute(cfg, timeout=10)
        assert first.tier == "simulated"
        assert again.tier == "memory"
        assert again.result is first.result
        stats = service.stats()
        assert stats["tiers"]["memory"] == 1
        assert stats["tiers"]["hit_ratio"]["memory"] == 0.5
        assert service.drain(timeout=5)

    def test_disk_hit_populates_memory(self, tmp_path, cfg):
        disk = DiskCache(tmp_path)
        disk.put(cfg, fake_result(cfg))
        executor = GateExecutor()
        service = ExperimentService(
            executor=executor, disk_cache=disk,
            settings=ServiceSettings(batch_window_s=0.005),
        ).start()
        first = service.execute(cfg, timeout=10)
        assert first.tier == "disk"
        assert executor.simulated == 0
        assert service.execute(cfg, timeout=10).tier == "memory"
        assert service.stats()["disk_cache"]["hits"] == 1
        assert service.drain(timeout=5)

    def test_simulated_result_written_to_disk(self, tmp_path, cfg):
        service = make_service(tmp_path=tmp_path)
        service.execute(cfg, timeout=10)
        assert service.disk_cache.writes == 1
        assert len(service.disk_cache) == 1
        assert service.drain(timeout=5)

    def test_lru_eviction_visible_in_stats(self, cfg):
        service = make_service(memory_entries=1)
        service.execute(cfg, timeout=10)
        service.execute(cfg.replace(seed=2), timeout=10)
        stats = service.stats()
        assert stats["memory_cache"]["evictions"] == 1
        assert stats["memory_cache"]["size"] == 1
        # The evicted config re-simulates; the resident one is a hit.
        assert service.execute(cfg.replace(seed=2), timeout=10).tier == "memory"
        assert service.execute(cfg, timeout=10).tier == "simulated"
        assert service.drain(timeout=5)


class TestBatching:
    def test_queued_misses_coalesce_into_one_executor_batch(self, cfg):
        executor = PoolGateExecutor(hold=True)
        service = make_service(executor=executor, batch_window_s=0.05)
        tickets = [service.submit(cfg.replace(seed=i)) for i in range(4)]
        executor.gate.set()
        for t in tickets:
            assert t.wait(10)
        # One linger window collected all four distinct misses.
        assert executor.batches and max(executor.batches) >= 2
        assert sum(executor.batches) == 4
        assert service.stats()["batches"] == len(executor.batches)
        assert service.drain(timeout=5)

    def test_batch_max_splits_oversized_batches(self, cfg):
        executor = GateExecutor(hold=True)
        service = make_service(executor=executor, batch_max=2,
                               batch_window_s=0.05)
        tickets = [service.submit(cfg.replace(seed=i)) for i in range(5)]
        executor.gate.set()
        for t in tickets:
            assert t.wait(10)
        assert max(executor.batches) <= 2
        assert service.drain(timeout=5)

    def test_serial_executor_dispatches_without_the_window(self, cfg):
        """One worker runs a batch config by config, so the dispatcher
        takes a lone miss at once instead of lingering for company."""
        executor = GateExecutor()
        service = make_service(executor=executor, batch_window_s=5.0)
        ticket = service.execute(cfg, timeout=2)
        assert ticket.tier == "simulated" and executor.batches == [1]
        metrics = service.metrics()
        assert metrics["quantiles"]["serve.queue_wait_ms"]["p95"] < 5000.0
        assert metrics["histograms"]["serve.queue_wait_ms"]["total"] == 1
        assert metrics["histograms"]["serve.executor_ms"]["total"] == 1
        # An immediate dispatch waits well under a millisecond, and the
        # histogram must be fine enough to show it.
        for seed in range(2, 22):
            assert service.execute(cfg.replace(seed=seed), timeout=2).tier == "simulated"
        quantiles = service.metrics()["quantiles"]["serve.queue_wait_ms"]
        assert quantiles["p50"] < 1.0
        assert service.drain(timeout=5)

    def test_pool_linger_ends_once_batch_max_is_queued(self, cfg):
        executor = PoolGateExecutor()
        service = make_service(executor=executor, batch_max=2,
                               batch_window_s=5.0)
        start = time.monotonic()
        tickets = [service.submit(cfg.replace(seed=i)) for i in (1, 2)]
        assert all(t.wait(2) for t in tickets)
        assert time.monotonic() - start < 2.5
        assert executor.batches == [2]
        assert service.drain(timeout=5)

    def test_pool_linger_ends_when_drain_begins(self, cfg):
        executor = PoolGateExecutor()
        service = make_service(executor=executor, batch_window_s=5.0)
        ticket = service.submit(cfg)
        time.sleep(0.2)  # the dispatcher is lingering by now
        service.begin_drain()
        assert ticket.wait(2) and ticket.result is not None
        assert service.drain(timeout=5)


class TestBackpressure:
    def test_queue_full_rejects_with_429_semantics(self, cfg):
        executor = GateExecutor(hold=True)
        service = make_service(executor=executor, queue_limit=1)
        admitted = service.submit(cfg)
        deadline = time.monotonic() + 5
        while service.stats()["in_flight"] == 0 and time.monotonic() < deadline:
            time.sleep(0.005)  # wait for dispatch so outstanding == 1
        with pytest.raises(QueueFullError) as exc_info:
            service.submit(cfg.replace(seed=2))
        assert exc_info.value.http_status == 429
        assert exc_info.value.retry_after_s is not None
        stats = service.stats()
        assert stats["rejected_queue_full"] == 1
        # Duplicates of the in-flight config still coalesce (no slot).
        joined = service.submit(cfg)
        assert joined is admitted
        executor.gate.set()
        assert admitted.wait(10)
        assert service.drain(timeout=5)

    def test_hits_are_admitted_even_at_capacity(self, cfg):
        executor = GateExecutor(hold=True)
        service = make_service(executor=executor, queue_limit=1)
        warm = cfg.replace(seed=50)
        service.memory.put(warm.cache_key(), fake_result(warm))
        service.submit(cfg)
        ticket = service.submit(warm)  # memory hit: no queue slot needed
        assert ticket.done and ticket.tier == "memory"
        executor.gate.set()
        assert service.drain(timeout=5)

    def test_execute_timeout(self, cfg):
        executor = GateExecutor(hold=True)
        service = make_service(executor=executor)
        with pytest.raises(TimeoutError):
            service.execute(cfg, timeout=0.05)
        executor.gate.set()
        assert service.drain(timeout=5)


class TestDrain:
    def test_draining_rejects_new_work_with_503_semantics(self, cfg):
        service = make_service()
        service.begin_drain()
        with pytest.raises(DrainingError) as exc_info:
            service.submit(cfg)
        assert exc_info.value.http_status == 503
        assert service.stats()["rejected_draining"] == 1
        assert service.drain(timeout=5)

    def test_in_flight_work_completes_during_drain(self, cfg):
        executor = GateExecutor(hold=True)
        service = make_service(executor=executor)
        ticket = service.submit(cfg)
        service.begin_drain()
        assert not ticket.done
        executor.gate.set()
        assert service.drain(timeout=10)
        assert ticket.done and ticket.result is not None
        assert ticket.tier == "simulated"

    def test_drain_timeout_reports_false(self, cfg):
        executor = GateExecutor(hold=True)
        service = make_service(executor=executor)
        service.submit(cfg)
        assert service.drain(timeout=0.1) is False
        executor.gate.set()
        assert service.wait_idle(timeout=10)

    def test_drain_closes_the_journal(self, tmp_path, cfg):
        journal = SweepJournal(tmp_path / "serve.jsonl")
        service = ExperimentService(
            executor=GateExecutor(), journal=journal,
            settings=ServiceSettings(batch_window_s=0.005),
        ).start()
        service.execute(cfg, timeout=10)
        assert service.drain(timeout=5)
        assert journal._fh is None  # closed
        lines = (tmp_path / "serve.jsonl").read_text().splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["kind"] == "done"

    def test_warm_start_seeds_the_memory_tier(self, tmp_path, cfg):
        path = tmp_path / "serve.jsonl"
        journal = SweepJournal(path)
        journal.record_done(cfg.cache_key(), fake_result(cfg))
        journal.close()
        resumed = SweepJournal(path, resume=True)
        service = ExperimentService(
            executor=GateExecutor(),
            settings=ServiceSettings(batch_window_s=0.005),
        )
        assert service.warm_start(resumed) == 1
        service.start()
        assert service.execute(cfg, timeout=10).tier == "memory"
        resumed.close()
        assert service.drain(timeout=5)


class TestFailures:
    def test_failed_simulation_is_not_cached(self, cfg):
        executor = GateExecutor(fail=True)
        service = make_service(executor=executor)
        ticket = service.execute(cfg, timeout=10)
        assert ticket.failure is not None
        assert ticket.failure.error_type == "error"
        assert service.stats()["failed"] == 1
        assert len(service.memory) == 0
        # The key is live again: a retry re-dispatches.
        executor.fail = False
        assert service.execute(cfg, timeout=10).result is not None
        assert service.drain(timeout=5)

    def test_failing_store_write_still_answers(self, cfg, tmp_path):
        class FullDisk(DiskCache):
            def put(self, config, result):
                raise OSError(errno.ENOSPC, "No space left on device")

        service = ExperimentService(
            executor=GateExecutor(),
            disk_cache=FullDisk(tmp_path),
            settings=ServiceSettings(batch_window_s=0.005),
        ).start()
        ticket = service.submit(cfg)
        assert ticket.wait(10), "a failing store write stranded the request"
        assert ticket.tier == "simulated" and ticket.result is not None
        stats = service.stats()
        assert stats["write_errors"] == 1
        assert stats["in_flight"] == 0 and stats["failed"] == 0
        # The answer still reached the memory tier; no dead ticket to join.
        repeat = service.submit(cfg)
        assert repeat.done and repeat.tier == "memory"
        assert service.drain(timeout=5)

    @pytest.mark.parametrize(
        "backend, error",
        [
            ("json", OSError(errno.EIO, "Input/output error")),
            ("sqlite", OSError(errno.EIO, "Input/output error")),
            ("sqlite", sqlite3.OperationalError("disk I/O error")),
        ],
    )
    def test_failing_store_read_resolves_as_failure(
        self, cfg, tmp_path, monkeypatch, backend, error
    ):
        from repro.store import make_store

        store = make_store(backend, tmp_path)
        other = cfg.replace(seed=99)
        store.put(other, fake_result(other))  # non-empty: the probe runs

        def broken_get(config):
            raise error

        monkeypatch.setattr(store, "get", broken_get)
        service = ExperimentService(
            executor=GateExecutor(),
            disk_cache=store,
            settings=ServiceSettings(batch_window_s=0.005),
        ).start()
        ticket = service.submit(cfg)
        assert ticket.done and ticket.failure is not None
        assert type(error).__name__ in ticket.failure.message
        # Nothing stranded: a repeat gets its own answer, not a dead ticket.
        repeat = service.submit(cfg)
        assert repeat is not ticket and repeat.wait(5)
        assert repeat.failure is not None
        stats = service.stats()
        assert stats["read_errors"] == 2 and stats["failed"] == 2
        assert stats["tiers"]["simulated"] == 0
        assert service.drain(2.0)

    @pytest.mark.parametrize("backend", ["json", "sqlite"])
    def test_disk_probe_never_sizes_the_store(self, cfg, tmp_path, backend):
        from repro.store import JsonDirStore, SqliteStore

        sized = []
        base = JsonDirStore if backend == "json" else SqliteStore

        class CountingStore(base):
            def __len__(self):
                sized.append(1)
                return super().__len__()

        store = CountingStore(
            tmp_path if backend == "json" else tmp_path / "results.sqlite"
        )
        stored = cfg.replace(seed=99)
        store.put(stored, fake_result(stored))
        service = ExperimentService(
            executor=GateExecutor(),
            disk_cache=store,
            settings=ServiceSettings(batch_window_s=0.005),
        ).start()
        assert service.execute(stored, timeout=10).tier == "disk"
        assert service.execute(cfg, timeout=10).tier == "simulated"
        assert service.drain(timeout=5)
        assert sized == []


# ----------------------------------------------------------------------
# HTTP layer
# ----------------------------------------------------------------------
@pytest.fixture()
def http_server():
    """An ExperimentServer on an ephemeral port over a GateExecutor."""
    executor = GateExecutor()
    service = ExperimentService(
        executor=executor,
        settings=ServiceSettings(batch_window_s=0.005, queue_limit=2,
                                 request_timeout_s=20.0),
    ).start()
    httpd = ExperimentServer(("127.0.0.1", 0), service)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{httpd.port}", service, executor
    finally:
        service.begin_drain()
        executor.gate.set()
        service.wait_idle(timeout=10)
        httpd.shutdown()
        thread.join(timeout=10)
        httpd.server_close()


def http_request(url, body=None, timeout=20.0):
    req = urllib.request.Request(
        url,
        data=None if body is None else json.dumps(body).encode(),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            return resp.status, dict(resp.headers), json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, dict(exc.headers), json.loads(exc.read())


CONFIG_BODY = {"config": {"workload": "mixB", **FAST}}


class TestHttpApi:
    def test_healthz_stats_metrics(self, http_server):
        base, service, _ = http_server
        status, _, body = http_request(base + "/healthz")
        assert (status, body["status"]) == (200, "healthy")
        assert body["live"] is True and body["ready"] is True
        status, _, live = http_request(base + "/healthz/live")
        assert (status, live["live"]) == (200, True)
        status, _, ready = http_request(base + "/healthz/ready")
        assert (status, ready["ready"]) == (200, True)
        status, _, stats = http_request(base + "/stats")
        assert status == 200 and stats["queue_limit"] == 2
        assert stats["executor"]["kind"] == "GateExecutor"
        status, _, metrics = http_request(base + "/metrics")
        assert status == 200
        for name in ("serve.latency_ms", "serve.queue_wait_ms",
                     "serve.executor_ms"):
            assert {"p50", "p95"} <= set(metrics["quantiles"][name])
            assert name in metrics["histograms"]

    def test_keep_alive_round_trip_skips_the_delayed_ack(self, http_server):
        """Requests on one keep-alive connection answer well inside the
        client's 40 ms delayed-ACK timer, which a body held back by
        Nagle's algorithm would wait out."""
        import http.client
        import statistics

        base, _, _ = http_server
        conn = http.client.HTTPConnection(base[len("http://"):], timeout=10)
        elapsed = []
        try:
            for _ in range(20):
                start = time.perf_counter()
                conn.request("GET", "/v1/healthz")
                response = conn.getresponse()
                assert response.status == 200
                response.read()
                elapsed.append(time.perf_counter() - start)
        finally:
            conn.close()
        assert statistics.median(elapsed) < 0.02

    def test_run_round_trip_summary_and_payload(self, http_server):
        base, service, _ = http_server
        status, _, body = http_request(base + "/v1/run", CONFIG_BODY)
        assert status == 200
        assert body["tier"] == "simulated"
        config = ExperimentConfig(**CONFIG_BODY["config"])
        assert body["key"] == config.cache_key()
        expected = fake_result(config)
        assert body["result"]["watts"] == dict(WATTS)
        assert body["summary"] == render_run_summary(config, expected)
        status, _, body = http_request(base + "/v1/run", CONFIG_BODY)
        assert status == 200 and body["tier"] == "memory"

    def test_bad_config_is_400(self, http_server):
        base, _, _ = http_server
        for bad in (
            {"config": {"workload": "mixB", "no_such_field": 1}},
            {"config": {"workload": "mixB", "scale": "enormous"}},
            {"config": {"workload": "mixB", "trace_path": "/tmp/x.jsonl"}},
            ["not", "an", "object"],
        ):
            status, _, body = http_request(base + "/v1/run", bad)
            assert status == 400, bad
            assert "error" in body

    def test_listen_backlog_holds_a_burst_of_connections(self):
        """A burst of concurrent clients waits in the backlog, not 1 s in
        SYN retransmission (the server here is bound but not accepting)."""
        httpd = ExperimentServer(("127.0.0.1", 0), ExperimentService())
        sockets = []
        try:
            for _ in range(32):
                sockets.append(socket.create_connection(
                    ("127.0.0.1", httpd.port), timeout=0.5))
        finally:
            for sock in sockets:
                sock.close()
            httpd.server_close()
        assert len(sockets) == 32

    def test_unknown_path_is_404(self, http_server):
        base, _, _ = http_server
        assert http_request(base + "/nope")[0] == 404
        assert http_request(base + "/v1/nope", {"x": 1})[0] == 404

    def test_queue_full_is_429_with_retry_after(self, http_server):
        base, service, executor = http_server
        executor.gate.clear()
        threads = []
        for seed in (11, 12):
            body = {"config": dict(CONFIG_BODY["config"], seed=seed)}
            t = threading.Thread(
                target=http_request, args=(base + "/v1/run", body)
            )
            t.start()
            threads.append(t)
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline:
            stats = service.stats()
            if stats["in_flight"] + stats["queue_depth"] >= 2:
                break
            time.sleep(0.005)
        status, headers, body = http_request(
            base + "/v1/run", {"config": dict(CONFIG_BODY["config"], seed=13)}
        )
        assert status == 429
        assert headers.get("Retry-After")
        assert body["error"]["kind"] == "rejected"
        executor.gate.set()
        for t in threads:
            t.join(timeout=10)

    def test_draining_is_503_on_health_and_run(self, http_server):
        base, service, _ = http_server
        service.begin_drain()
        assert http_request(base + "/healthz")[0] == 503
        status, _, body = http_request(base + "/v1/run", CONFIG_BODY)
        assert status == 503
        assert body["error"]["kind"] == "rejected"

    def test_batch_endpoint_mixed_outcomes(self, http_server):
        base, _, _ = http_server
        payload = {
            "configs": [
                {"workload": "mixB", **FAST},
                {"workload": "mixB", "seed": 2, **FAST},
                {"workload": "mixB", **FAST},  # duplicate of the first
            ]
        }
        status, _, body = http_request(base + "/v1/batch", payload)
        assert status == 200
        results = body["results"]
        assert [r["status"] for r in results] == [200, 200, 200]
        assert results[0]["key"] == results[2]["key"]
        status, _, body = http_request(base + "/v1/batch", {"configs": "x"})
        assert status == 400

    def test_simulation_failure_maps_to_500(self):
        executor = GateExecutor(fail=True)
        service = ExperimentService(
            executor=executor,
            settings=ServiceSettings(batch_window_s=0.005),
        ).start()
        httpd = ExperimentServer(("127.0.0.1", 0), service)
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        try:
            status, _, body = http_request(
                f"http://127.0.0.1:{httpd.port}/v1/run", CONFIG_BODY
            )
            assert status == 500
            assert body["error"]["kind"] == "error"
            assert body["error"]["message"] == "boom"
        finally:
            service.drain(timeout=5)
            httpd.shutdown()
            thread.join(timeout=10)
            httpd.server_close()


class TestRealSimulationThroughService:
    """One real (tiny) simulation through the full service stack."""

    def test_served_result_matches_direct_run(self, tmp_path):
        from repro.harness.experiment import run_experiment
        from repro.harness.io import result_to_cache_dict

        config = ExperimentConfig(workload="mixB", **FAST)
        service = ExperimentService(
            disk_cache=DiskCache(tmp_path),
            settings=ServiceSettings(batch_window_s=0.005),
        ).start()
        ticket = service.execute(config, timeout=120)
        assert ticket.tier == "simulated"
        direct = run_experiment(config)
        served = result_to_cache_dict(ticket.result)
        expected = result_to_cache_dict(direct)
        # Wall time is machine-dependent; everything else is
        # deterministic and must match exactly.
        served.pop("wall_time_s")
        expected.pop("wall_time_s")
        assert served == expected
        assert service.drain(timeout=10)


# ----------------------------------------------------------------------
# API versioning: /v1/ is canonical, unversioned paths are aliases
# ----------------------------------------------------------------------
class TestApiVersioning:
    GET_PATHS = ("/healthz", "/healthz/live", "/healthz/ready",
                 "/stats", "/metrics")

    def test_aliases_answer_like_v1(self, http_server):
        base, _, _ = http_server
        for path in self.GET_PATHS:
            s_v1, _, b_v1 = http_request(base + "/v1" + path)
            s_old, _, b_old = http_request(base + path)
            # Bodies can carry time-varying values (uptime); the
            # alias contract is same status and same shape.
            assert s_old == s_v1, path
            assert sorted(b_old) == sorted(b_v1), path

    def test_alias_carries_deprecation_and_successor_link(self, http_server):
        base, _, _ = http_server
        for path in self.GET_PATHS:
            _, h_old, _ = http_request(base + path)
            assert h_old.get("Deprecation") == "true", path
            link = h_old.get("Link", "")
            assert f"</v1{path}>" in link and "successor-version" in link, path
            _, h_v1, _ = http_request(base + "/v1" + path)
            assert "Deprecation" not in h_v1, path

    def test_post_run_alias(self, http_server):
        base, _, _ = http_server
        s_v1, h_v1, b_v1 = http_request(base + "/v1/run", CONFIG_BODY)
        s_old, h_old, b_old = http_request(base + "/run", CONFIG_BODY)
        assert (s_v1, s_old) == (200, 200)
        assert b_old["key"] == b_v1["key"]
        assert b_old["result"] == b_v1["result"]
        assert h_old.get("Deprecation") == "true"
        assert "Deprecation" not in h_v1

    def test_unknown_paths_404_without_deprecation(self, http_server):
        base, _, _ = http_server
        status, headers, _ = http_request(base + "/nope")
        assert status == 404
        assert "Deprecation" not in headers
        assert http_request(base + "/v1/nope")[0] == 404


# ----------------------------------------------------------------------
# The /v1 keys outside callers read
# ----------------------------------------------------------------------
NUMBER = (int, float)

#: ``/v1/stats`` paths read by perfbench/serve_mixed.py,
#: scripts/serve_smoke.py and scripts/selfheal_smoke.py, with types.
STATS_CONTRACT = {
    ("tiers", "memory"): NUMBER,
    ("tiers", "disk"): NUMBER,
    ("tiers", "simulated"): NUMBER,
    ("requests_total",): NUMBER,
    ("dedup_coalesced",): NUMBER,
    ("batches",): NUMBER,
    ("in_flight",): NUMBER,
    ("rejected_queue_full",): NUMBER,
    ("rejected_draining",): NUMBER,
    ("rejected_breaker_open",): NUMBER,
    ("disk_cache", "writes"): NUMBER,
    ("disk_cache", "backend"): str,
    ("degraded", "queue_full"): NUMBER,
    ("degraded", "breaker_open"): NUMBER,
    ("breakers", "families"): dict,
    ("supervisor", "worker_restarts"): NUMBER,
}

#: ``/v1/healthz`` keys the same callers read.
HEALTH_CONTRACT = {
    ("status",): str,
    ("live",): bool,
    ("ready",): bool,
    ("open_breakers",): list,
}


def _check_contract(body, contract):
    for path, kind in contract.items():
        value = body
        for key in path:
            assert isinstance(value, dict) and key in value, path
            value = value[key]
        assert isinstance(value, kind), (path, value)


class TestOutsideCallerContract:
    def test_v1_keys_read_by_benchmark_and_smokes(self, tmp_path):
        from repro.harness.executor import make_executor
        from repro.store import make_store

        # Built with the keywords the benchmark's in-process server uses.
        service = ExperimentService(
            executor=make_executor(1),
            disk_cache=make_store("json", tmp_path),
            settings=ServiceSettings(),
        )
        httpd = ExperimentServer(("127.0.0.1", 0), service)
        base = f"http://127.0.0.1:{httpd.port}/v1"
        service.start()
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        try:
            status, _, body = http_request(base + "/run", CONFIG_BODY,
                                           timeout=120)
            assert status == 200 and body["tier"] == "simulated"
            assert {"key", "result", "summary"} <= set(body)
            _, _, stats = http_request(base + "/stats")
            _check_contract(stats, STATS_CONTRACT)
            families = stats["breakers"]["families"]
            assert families
            assert all(isinstance(b["state"], str) for b in families.values())
            status, _, health = http_request(base + "/healthz")
            assert status == 200
            _check_contract(health, HEALTH_CONTRACT)
            status, _, live = http_request(base + "/healthz/live")
            assert status == 200 and live["live"] is True
            status, _, ready = http_request(base + "/healthz/ready")
            assert status == 200 and ready["ready"] is True
        finally:
            assert service.drain(timeout=60)
            httpd.shutdown()
            thread.join(timeout=10)
            httpd.server_close()


# ----------------------------------------------------------------------
# ServeClient SDK
# ----------------------------------------------------------------------
@pytest.fixture()
def scripted_server():
    """Factory for a stub HTTP server that replays a canned script.

    ``start(script)`` takes a list of ``(status, headers, body)``
    tuples, serves them in order to whatever requests arrive, and
    returns ``(base_url, calls)`` where ``calls`` records request
    paths.  Lets the client's retry/error logic be tested without a
    real service behind it.
    """
    import http.server

    servers = []

    def start(script):
        script = list(script)
        calls = []

        class Handler(http.server.BaseHTTPRequestHandler):
            def _serve(self):
                length = int(self.headers.get("Content-Length") or 0)
                if length:
                    self.rfile.read(length)
                calls.append(self.path)
                status, headers, body = script.pop(0)
                data = json.dumps(body).encode()
                self.send_response(status)
                for key, value in headers.items():
                    self.send_header(key, value)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)

            do_GET = do_POST = _serve

            def log_message(self, *args):
                pass

        httpd = http.server.ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        servers.append((httpd, thread))
        return f"http://127.0.0.1:{httpd.server_address[1]}", calls

    yield start
    for httpd, thread in servers:
        httpd.shutdown()
        thread.join(timeout=5)
        httpd.server_close()


def run_payload(config):
    """A valid 200 body for ``/v1/run`` built from :func:`fake_result`."""
    from repro.harness.io import result_to_cache_dict

    return {
        "key": config.cache_key(),
        "tier": "simulated",
        "result": result_to_cache_dict(fake_result(config)),
        "summary": "summary-text",
    }


class TestServeClient:
    def test_run_round_trip_against_real_server(self, cfg, http_server):
        from repro.harness.io import result_to_cache_dict
        from repro.serve import ServeClient

        base, _, _ = http_server
        client = ServeClient(base, timeout_s=20.0)
        result = client.run(cfg)
        assert result_to_cache_dict(result) == result_to_cache_dict(
            fake_result(cfg)
        )
        outcome = client.run_detailed(cfg)
        assert outcome.tier == "memory"
        assert outcome.key == cfg.cache_key()
        assert outcome.summary.startswith("mixB on ")
        assert client.stats()["queue_limit"] == 2
        assert client.healthz()["status"] == "healthy"
        assert "quantiles" in client.metrics()

    def test_retry_on_429_honors_retry_after(self, cfg, scripted_server):
        from repro.serve import ServeClient

        base, calls = scripted_server([
            (429, {"Retry-After": "0.123"}, {"error": {"kind": "rejected"}}),
            (429, {}, {"error": {"kind": "rejected"}}),
            (200, {}, run_payload(cfg)),
        ])
        sleeps = []
        client = ServeClient(base, timeout_s=5.0, max_retries=3,
                             sleep=sleeps.append)
        outcome = client.run_detailed(cfg)
        assert outcome.key == cfg.cache_key()
        assert calls == ["/v1/run"] * 3
        # First delay is the server's hint; second falls back to the
        # small default because no Retry-After was sent.
        assert sleeps == [0.123, 0.05]

    def test_retry_after_is_capped(self, cfg, scripted_server):
        from repro.serve import ServeClient

        base, _ = scripted_server([
            (429, {"Retry-After": "3600"}, {"error": {"kind": "rejected"}}),
            (200, {}, run_payload(cfg)),
        ])
        sleeps = []
        client = ServeClient(base, timeout_s=5.0, retry_cap_s=0.2,
                             sleep=sleeps.append)
        client.run(cfg)
        assert sleeps == [0.2]

    def test_429_exhausts_retries(self, cfg, scripted_server):
        from repro.serve import ServeClient, ServeRejectedError

        reject = (429, {"Retry-After": "0.01"}, {"error": {"kind": "rejected"}})
        base, calls = scripted_server([reject] * 3)
        client = ServeClient(base, timeout_s=5.0, max_retries=2,
                             sleep=lambda _s: None)
        with pytest.raises(ServeRejectedError) as err:
            client.run(cfg)
        assert err.value.status == 429
        assert err.value.retry_after_s == 0.01
        assert len(calls) == 3  # initial attempt + 2 retries

    def test_503_is_not_retried(self, cfg, scripted_server):
        from repro.serve import ServeClient, ServeRejectedError

        base, calls = scripted_server([
            (503, {}, {"error": {"kind": "rejected", "message": "draining"}}),
        ])
        sleeps = []
        client = ServeClient(base, timeout_s=5.0, max_retries=5,
                             sleep=sleeps.append)
        with pytest.raises(ServeRejectedError) as err:
            client.run(cfg)
        assert err.value.status == 503
        assert sleeps == [] and len(calls) == 1

    def test_error_mapping(self, cfg, scripted_server):
        from repro.serve import (
            ServeBadRequestError,
            ServeClient,
            ServeSimulationError,
            ServeTimeoutError,
        )

        cases = [
            (400, {}, {"error": {"message": "bad config"}},
             ServeBadRequestError),
            (504, {}, {"error": {"message": "deadline"}}, ServeTimeoutError),
            (500, {}, {"error": {"kind": "crash", "message": "boom",
                                 "attempts": 2}}, ServeSimulationError),
        ]
        for status, headers, body, exc_type in cases:
            base, _ = scripted_server([(status, headers, body)])
            client = ServeClient(base, timeout_s=5.0)
            with pytest.raises(exc_type) as err:
                client.run(cfg)
            assert err.value.status == status
        assert err.value.kind == "crash" and err.value.attempts == 2

    def test_unreachable_server_raises_connection_error(self, cfg):
        from repro.serve import ServeClient, ServeConnectionError

        import socket

        sock = socket.socket()
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
        sock.close()  # nothing listens here any more
        client = ServeClient(f"http://127.0.0.1:{port}", timeout_s=2.0)
        with pytest.raises(ServeConnectionError):
            client.run(cfg)

    def test_malformed_result_payload_raises(self, cfg, scripted_server):
        from repro.serve import ServeClient, ServeError

        base, _ = scripted_server([
            (200, {}, {"key": "k", "tier": "simulated", "result": {"x": 1}}),
        ])
        client = ServeClient(base, timeout_s=5.0)
        with pytest.raises(ServeError, match="malformed run response"):
            client.run(cfg)

    def test_healthz_returns_body_even_when_unhealthy(self, scripted_server):
        from repro.serve import ServeClient

        base, _ = scripted_server([
            (503, {}, {"status": "draining", "live": True, "ready": False}),
        ])
        client = ServeClient(base, timeout_s=5.0)
        assert client.healthz()["status"] == "draining"
