"""Self-healing serve layer tests: circuit-breaker state transitions,
the health state the service works out from its own state (single
dispatcher, degraded hold, dispatcher exit), analytical graceful
degradation (byte-stable JSON, exact breakdown match, cache isolation),
and the satellite hardening (socket-timeout validation, LRU counters)."""

import json
import threading
import time

import pytest

from repro.analysis.power_model import predict_full_power_breakdown
from repro.harness.experiment import ExperimentConfig
from repro.network.topology import build_topology
from repro.obs.metrics import MetricsRegistry, StateGauge
from repro.serve import (
    BreakerBoard,
    BreakerOpenError,
    CircuitBreaker,
    ExperimentServer,
    ExperimentService,
    LruResultCache,
    ServiceSettings,
    config_family,
    degraded_json,
    make_degraded_result,
)
from tests.test_serve import FAST, GateExecutor, fake_result, http_request

pytestmark = pytest.mark.filterwarnings("ignore::pytest.PytestUnhandledThreadExceptionWarning")


class FakeClock:
    """Deterministic monotonic clock the tests advance by hand."""

    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


@pytest.fixture()
def clock():
    return FakeClock()


@pytest.fixture()
def cfg():
    return ExperimentConfig(workload="mixB", **FAST)


# ----------------------------------------------------------------------
# Circuit breaker state machine
# ----------------------------------------------------------------------
class TestCircuitBreaker:
    def test_closed_to_open_after_threshold(self, clock):
        b = CircuitBreaker("daisychain/FP", threshold=3, cooldown_s=10,
                           clock=clock)
        for _ in range(2):
            b.on_result(failed=True)
            assert b.state == "closed"
        b.on_result(failed=True)
        assert b.state == "open" and b.trips == 1
        decision = b.admit()
        assert not decision.allowed and decision.remaining_s > 0

    def test_success_resets_consecutive_count(self, clock):
        b = CircuitBreaker("f", threshold=2, cooldown_s=10, clock=clock)
        b.on_result(failed=True)
        b.on_result(failed=False)
        b.on_result(failed=True)
        assert b.state == "closed"  # never two *consecutive* failures

    def test_open_half_open_closed_cycle(self, clock):
        b = CircuitBreaker("f", threshold=1, cooldown_s=10, clock=clock)
        b.on_result(failed=True)
        assert b.state == "open"
        clock.advance(9.9)
        assert not b.admit().allowed
        clock.advance(0.2)  # past cooldown
        probe = b.admit()
        assert probe.allowed and probe.probe
        assert b.state == "half_open"
        # Only one probe is admitted while half-open.
        assert not b.admit().allowed
        b.on_result(failed=False, probe=True)
        assert b.state == "closed" and b.recoveries == 1
        assert b.admit().allowed and not b.admit().probe

    def test_half_open_re_trip(self, clock):
        b = CircuitBreaker("f", threshold=1, cooldown_s=10, clock=clock)
        b.on_result(failed=True)
        clock.advance(10.1)
        assert b.admit().probe
        b.on_result(failed=True, probe=True)
        assert b.state == "open" and b.trips == 2
        # A fresh cooldown applies from the re-trip.
        clock.advance(5.0)
        assert not b.admit().allowed
        clock.advance(5.2)
        assert b.admit().probe

    def test_abandoned_probe_frees_the_slot(self, clock):
        b = CircuitBreaker("f", threshold=1, cooldown_s=1, clock=clock)
        b.on_result(failed=True)
        clock.advance(1.1)
        assert b.admit().probe
        b.abandon_probe()
        assert b.admit().probe  # slot reopened, no outcome recorded

    def test_validation(self, clock):
        with pytest.raises(ValueError):
            CircuitBreaker("f", threshold=0, clock=clock)
        with pytest.raises(ValueError):
            CircuitBreaker("f", cooldown_s=0, clock=clock)


class TestBreakerBoard:
    def test_families_are_independent(self, clock):
        board = BreakerBoard(threshold=1, cooldown_s=10, clock=clock)
        board.on_result("daisychain/FP", failed=True)
        assert not board.admit("daisychain/FP").allowed
        assert board.admit("star/VWL").allowed
        assert board.open_families() == ["daisychain/FP"]

    def test_threshold_zero_disables(self, clock):
        board = BreakerBoard(threshold=0, cooldown_s=10, clock=clock)
        for _ in range(50):
            board.on_result("daisychain/FP", failed=True)
        assert board.admit("daisychain/FP").allowed
        assert not board.enabled

    def test_metrics_published(self, clock):
        reg = MetricsRegistry()
        board = BreakerBoard(threshold=1, cooldown_s=10, registry=reg,
                             clock=clock)
        board.on_result("daisychain/FP", failed=True)
        board.admit("daisychain/FP")
        assert reg.counter("serve.breaker.trips").value == 1
        assert reg.counter("serve.breaker.short_circuits").value == 1
        assert reg.gauge("serve.breaker.open").value == 1.0
        gauge = reg.state_gauge(
            "serve.breaker.state.daisychain/FP",
            ("closed", "open", "half_open"),
        )
        assert gauge.state == "open"

    def test_config_family(self, cfg):
        assert config_family(cfg) == f"{cfg.topology}/{cfg.mechanism}"


class TestStateGauge:
    def test_states_and_values(self):
        g = StateGauge("s", ("healthy", "degraded"))
        assert (g.state, g.value) == ("healthy", 0.0)
        g.set_state("degraded")
        assert g.value == 1.0
        with pytest.raises(ValueError):
            g.set_state("nope")
        assert g.as_dict()["states"] == ["healthy", "degraded"]

    def test_registry_returns_same_instance(self):
        reg = MetricsRegistry()
        a = reg.state_gauge("x", ("a", "b"))
        assert reg.state_gauge("x", ("a", "b")) is a
        assert "x" in reg.as_dict()["states"]


# ----------------------------------------------------------------------
# Graceful degradation
# ----------------------------------------------------------------------
class TestDegradedResponses:
    def test_json_is_byte_stable(self, cfg):
        a = degraded_json(make_degraded_result(cfg, "k1", "queue_full"))
        b = degraded_json(make_degraded_result(cfg, "k1", "queue_full"))
        assert a == b
        body = json.loads(a)
        assert body["approximate"] is True
        assert body["degraded_reason"] == "queue_full"
        assert body["tier"] == "degraded"
        assert body["tolerance"]["relative"] == 1e-6
        assert body["tolerance"]["logic_dyn_ratio_bounds"] == [0.10, 1.05]

    def test_breakdown_matches_closed_form_exactly(self, cfg):
        degraded = make_degraded_result(cfg, "k1", "breaker_open")
        topology = build_topology(cfg.topology, degraded.result.num_modules)
        assert degraded.result.breakdown.watts == predict_full_power_breakdown(
            topology, 0.0, 0.0
        )

    def test_unknown_reason_rejected(self, cfg):
        with pytest.raises(ValueError):
            make_degraded_result(cfg, "k1", "because")


def make_service(tmp_path=None, executor=None, registry=None, breakers=None,
                 **settings):
    from repro.harness.diskcache import DiskCache

    settings.setdefault("batch_window_s", 0.005)
    return ExperimentService(
        executor=executor or GateExecutor(),
        disk_cache=DiskCache(tmp_path) if tmp_path is not None else None,
        settings=ServiceSettings(**settings),
        registry=registry,
        breakers=breakers,
    ).start()


class TestServiceDegradation:
    def test_queue_full_answers_analytically_not_429(self, cfg, tmp_path):
        executor = GateExecutor(hold=True)
        service = make_service(tmp_path=tmp_path, executor=executor,
                               queue_limit=1, degrade="analytical")
        blocker = service.submit(cfg.replace(seed=1))
        overflow_cfg = cfg.replace(seed=2)
        ticket = service.submit(overflow_cfg)  # would be 429 with degrade=off
        assert ticket.done and ticket.degraded is not None
        assert ticket.tier == "degraded"
        assert ticket.degraded.reason == "queue_full"
        assert ticket.rejection is None
        # Never written to any cache tier.
        assert service.disk_cache.get(overflow_cfg) is None
        stats = service.stats()
        assert stats["degraded"]["queue_full"] == 1
        assert stats["rejected_queue_full"] == 0
        executor.gate.set()
        assert blocker.wait(10)
        assert service.drain(timeout=10)
        # Only the simulated blocker landed in the memory tier.
        assert service.memory.stats()["inserts"] == 1
        assert service.memory.get(overflow_cfg.cache_key()) is None

    def test_queue_full_still_rejects_with_degrade_off(self, cfg):
        from repro.serve import QueueFullError

        executor = GateExecutor(hold=True)
        service = make_service(executor=executor, queue_limit=1)
        service.submit(cfg.replace(seed=1))
        with pytest.raises(QueueFullError):
            service.submit(cfg.replace(seed=2))
        executor.gate.set()
        assert service.drain(timeout=10)

    def test_breaker_trips_and_recovers_through_service(self, cfg, clock):
        reg = MetricsRegistry()
        board = BreakerBoard(threshold=2, cooldown_s=5.0, registry=reg,
                             clock=clock)
        executor = GateExecutor(fail=True)
        service = make_service(executor=executor, registry=reg, breakers=board,
                               degrade="analytical")
        family = config_family(cfg)
        # Two structured failures trip the family's breaker.
        for seed in (1, 2):
            ticket = service.execute(cfg.replace(seed=seed), timeout=10)
            assert ticket.failure is not None
        assert board.snapshot()["families"][family]["state"] == "open"
        # Open: short-circuited to the analytical model, not simulated.
        before = executor.simulated
        ticket = service.execute(cfg.replace(seed=3), timeout=10)
        assert ticket.degraded is not None
        assert ticket.degraded.reason == "breaker_open"
        assert executor.simulated == before
        # Half-open probe fails: re-trip.
        clock.advance(5.1)
        ticket = service.execute(cfg.replace(seed=4), timeout=10)
        assert ticket.failure is not None  # the probe really simulated
        assert board.snapshot()["families"][family]["state"] == "open"
        # Half-open probe succeeds: breaker closes, family recovers.
        executor.fail = False
        clock.advance(5.1)
        ticket = service.execute(cfg.replace(seed=5), timeout=10)
        assert ticket.result is not None
        assert board.snapshot()["families"][family]["state"] == "closed"
        ticket = service.execute(cfg.replace(seed=6), timeout=10)
        assert ticket.tier == "simulated"
        assert service.drain(timeout=10)

    def test_open_breaker_rejects_503_with_degrade_off(self, cfg, clock):
        board = BreakerBoard(threshold=1, cooldown_s=30.0, clock=clock)
        executor = GateExecutor(fail=True)
        service = make_service(executor=executor, breakers=board)
        ticket = service.execute(cfg.replace(seed=1), timeout=10)
        assert ticket.failure is not None
        with pytest.raises(BreakerOpenError) as exc_info:
            service.submit(cfg.replace(seed=2))
        assert exc_info.value.http_status == 503
        assert exc_info.value.retry_after_s >= 1.0
        assert service.stats()["rejected_breaker_open"] == 1
        assert service.drain(timeout=10)

    def test_cache_hits_bypass_an_open_breaker(self, cfg, clock):
        board = BreakerBoard(threshold=1, cooldown_s=30.0, clock=clock)
        service = make_service(breakers=board)
        hot = cfg.replace(seed=1)
        service.memory.put(hot.cache_key(), fake_result(hot))
        board.on_result(config_family(cfg), failed=True)  # trip the family
        ticket = service.submit(hot)
        assert ticket.tier == "memory" and ticket.result is not None
        assert service.drain(timeout=10)


# ----------------------------------------------------------------------
# Health worked out from service state (the ``supervisor`` block)
# ----------------------------------------------------------------------
class ExitingExecutor(GateExecutor):
    """Executor whose batch raises ``SystemExit`` out of the dispatcher."""

    def run_many(self, configs, on_result=None):
        raise SystemExit("executor bailed out")


class TestSupervisor:
    def test_degraded_decays_back_to_healthy(self, monkeypatch):
        from repro.serve import service as service_module

        monkeypatch.setattr(service_module, "DEGRADED_HOLD_S", 1.0)
        service = make_service()
        service.executor.heartbeat("pool_rebuild")
        health = service.health()
        assert health["status"] == "degraded"
        assert health["live"] and health["ready"]
        assert health["supervisor"] == {"state": "degraded",
                                        "reason": "pool_rebuild"}
        time.sleep(1.2)
        assert service.health()["status"] == "healthy"
        assert service.drain(timeout=10)

    def test_draining_and_context_probes(self, cfg, clock):
        board = BreakerBoard(threshold=1, cooldown_s=30.0, clock=clock)
        service = make_service(breakers=board)
        family = config_family(cfg)
        board.on_result(family, failed=True)
        health = service.health()
        assert health["status"] == "degraded" and health["ready"]
        assert health["supervisor"]["reason"] == f"breaker_open:{family}"
        assert health["open_breakers"] == [family]
        service.begin_drain()
        health = service.health()
        assert health["status"] == "draining"
        assert health["live"] and not health["ready"]
        assert service.drain(timeout=10)

    def test_long_batch_runs_once_and_stays_healthy(self, cfg):
        executor = GateExecutor(hold=True)
        service = make_service(executor=executor)
        ticket = service.submit(cfg)
        time.sleep(1.5)  # the batch is held inside run_many
        assert not ticket.done
        assert service.health()["status"] == "healthy"
        executor.gate.set()
        assert ticket.wait(10) and ticket.tier == "simulated"
        assert executor.batches == [1] and executor.simulated == 1
        assert service.health()["status"] == "healthy"
        assert service.drain(timeout=10)

    def test_dispatcher_exit_goes_unhealthy(self, cfg):
        service = make_service(executor=ExitingExecutor())
        httpd = ExperimentServer(("127.0.0.1", 0), service)
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        base = f"http://127.0.0.1:{httpd.port}/v1"
        try:
            ticket = service.submit(cfg)
            assert ticket.wait(10), "the dispatcher's batch must not strand"
            assert "dispatcher exited: SystemExit" in ticket.failure.message
            service._dispatcher.join(timeout=10)
            assert not service._dispatcher.is_alive()
            status, _, health = http_request(base + "/healthz")
            assert status == 503 and health["status"] == "unhealthy"
            assert health["live"] is False and health["ready"] is False
            assert "SystemExit" in health["supervisor"]["reason"]
            assert http_request(base + "/healthz/live")[0] == 503
            assert http_request(base + "/healthz/ready")[0] == 503
            # Nothing would ever run a new miss: it fails at once.
            late = service.submit(cfg.replace(seed=2))
            assert late.done and late.failure is not None
            assert service.stats()["in_flight"] == 0
            assert service.drain(timeout=10)
        finally:
            httpd.shutdown()
            thread.join(timeout=10)
            httpd.server_close()


class TestSupervisedService:
    def test_health_payload_reflects_supervisor(self, cfg):
        executor = GateExecutor(hold=True)
        service = make_service(executor=executor, queue_limit=1,
                               degrade="analytical")
        health = service.health()
        assert health["status"] == "healthy"
        assert health["live"] and health["ready"]
        assert health["supervisor"] == {"state": "healthy", "reason": None}
        blocker = service.submit(cfg.replace(seed=1))
        assert service.submit(cfg.replace(seed=2)).degraded is not None
        health = service.health()
        assert health["status"] == "degraded"
        assert health["live"] and health["ready"]
        assert health["supervisor"]["reason"] == "queue_full"
        assert service.stats()["supervisor"]["state"] == "degraded"
        executor.gate.set()
        assert blocker.wait(10)
        service.begin_drain()
        health = service.health()
        assert health["status"] == "draining"
        assert health["live"] and not health["ready"]
        assert service.drain(timeout=10)

    def test_executor_beats_count_worker_restarts(self):
        from repro.harness.executor import ParallelExecutor, SerialExecutor
        from tests.test_resilience import DIE, OK1

        # A killed isolated child is replaced: one worker_restart.
        serial = make_service(
            executor=SerialExecutor(isolate=True, retries=1, backoff_s=0.01)
        )
        ticket = serial.execute(DIE, timeout=60)
        assert ticket.failure is not None
        assert ticket.failure.error_type == "crash"
        stats = serial.stats()["supervisor"]
        assert stats["worker_restarts"] == 1
        assert stats["state"] == "degraded"
        assert stats["reason"] == "worker_restart"
        assert serial.drain(timeout=10)
        # A worker death breaks the pool: one pool_rebuild.
        pool = make_service(executor=ParallelExecutor(jobs=2, backoff_s=0.01),
                            batch_window_s=0.2)
        tickets = [pool.submit(DIE), pool.submit(OK1)]
        assert all(t.wait(60) for t in tickets)
        assert tickets[0].failure is not None and tickets[1].result is not None
        assert pool.stats()["supervisor"]["worker_restarts"] == 1
        assert pool.drain(timeout=10)


# ----------------------------------------------------------------------
# The service condition is the only lock
# ----------------------------------------------------------------------
class TestLockOrdering:
    def test_queue_full_degraded_short_circuit_drops_service_lock(
        self, cfg, monkeypatch
    ):
        """The analytical answer for a saturated queue is built before
        the service condition is taken, so other submitters never wait
        on the model."""
        from repro.serve import service as service_module

        holder, seen = {}, []
        build = service_module.make_degraded_result

        def checked_build(config, key, reason):
            assert not holder["service"]._cond._is_owned(), (
                "the degraded model must not run under the service condition"
            )
            seen.append(reason)
            return build(config, key, reason)

        monkeypatch.setattr(service_module, "make_degraded_result",
                            checked_build)
        executor = GateExecutor(hold=True)
        service = make_service(executor=executor, queue_limit=1,
                               degrade="analytical")
        holder["service"] = service
        blocker = service.submit(cfg.replace(seed=1))
        ticket = service.submit(cfg.replace(seed=2))  # saturates the queue
        assert ticket.degraded is not None and ticket.tier == "degraded"
        assert seen == ["queue_full"]
        executor.gate.set()
        assert blocker.wait(10)
        assert service.drain(timeout=10)


# ----------------------------------------------------------------------
# Satellites: settings validation + LRU stat windows
# ----------------------------------------------------------------------
class TestServiceSettingsValidation:
    def test_socket_timeout_is_independent_of_request_deadline(self):
        # The socket timeout only bounds the idle read for the *next*
        # keep-alive request -- handlers wait on tickets, not the
        # socket -- so a value below request_timeout_s is fine.
        short = ServiceSettings(request_timeout_s=600.0, socket_timeout_s=5.0)
        assert short.effective_socket_timeout_s == 5.0
        long = ServiceSettings(request_timeout_s=600.0, socket_timeout_s=700.0)
        assert long.effective_socket_timeout_s == 700.0

    def test_default_socket_timeout_is_short_idle_read(self):
        # A long request budget must not pin dead keep-alive
        # connections (and their handler threads) for minutes.
        assert ServiceSettings().effective_socket_timeout_s == 30.0
        assert (
            ServiceSettings(request_timeout_s=5.0).effective_socket_timeout_s
            == 30.0
        )

    def test_invalid_modes_rejected(self):
        with pytest.raises(ValueError):
            ServiceSettings(degrade="sometimes")
        with pytest.raises(ValueError):
            ServiceSettings(breaker_threshold=-1)
        with pytest.raises(ValueError):
            ServiceSettings(socket_timeout_s=0.0)


class TestLruStatWindows:
    def test_inserts_are_monotonic(self, cfg):
        lru = LruResultCache(capacity=4)
        for i in range(3):
            lru.put(f"k{i}", fake_result(cfg.replace(seed=i)))
        lru.get("k0")
        lru.get("missing")
        stats = lru.stats()
        assert (stats["hits"], stats["misses"], stats["inserts"]) == (1, 1, 3)
        lru.put("k9", fake_result(cfg.replace(seed=9)))
        assert lru.stats()["inserts"] == 4

    def test_capacity_is_immutable(self):
        lru = LruResultCache(capacity=4)
        with pytest.raises(AttributeError):
            lru.capacity = 8
        assert lru.capacity == 4
