"""Hardened execution: crash context, failure isolation, timeouts,
retries, the sweep journal, and cache quarantine.

Fault *injection* lives in ``tests/test_faults.py``; this file covers
what happens when an experiment (or its worker process) goes wrong --
the batch must keep going, every failure must surface as a structured
record, and a killed sweep must resume from its journal.
"""

import json
import time

import pytest

from repro.harness.diskcache import DiskCache
from repro.harness.executor import (
    FailedResult,
    ParallelExecutor,
    SerialExecutor,
    make_executor,
    with_heartbeat,
)
from repro.harness.experiment import ExperimentConfig
from repro.harness.io import result_to_cache_dict
from repro.harness.journal import SweepJournal
from repro.harness.sweep import ExperimentFailedError, SweepRunner
from repro.sim.engine import SimulationError, Simulator

FAST = dict(
    workload="sp.D", topology="daisychain", mechanism="VWL+ROO",
    policy="aware", window_ns=20_000.0,
)

OK1 = ExperimentConfig(**FAST, seed=1)
OK2 = ExperimentConfig(**FAST, seed=2)
BAD = ExperimentConfig(**FAST, seed=3, fault_spec="crash=1")  # raises
DIE = ExperimentConfig(**FAST, seed=4, fault_spec="die=1")    # SIGKILL
HANG = ExperimentConfig(**FAST, seed=5, fault_spec="hang=20")  # sleeps


def norm(result):
    data = result_to_cache_dict(result)
    data.pop("wall_time_s")
    return data


# ----------------------------------------------------------------------
# Simulator crash context
# ----------------------------------------------------------------------
class TestEngineCrashContext:
    def test_handler_failure_carries_context(self):
        sim = Simulator()

        def boom():
            raise ValueError("vault exploded")

        sim.schedule(3.0, lambda: None)
        sim.schedule(7.5, boom)
        with pytest.raises(SimulationError) as exc_info:
            sim.run()
        err = exc_info.value
        assert err.sim_time_ns == 7.5
        assert err.events_done == 1
        assert "boom" in err.handler
        assert "t=7.5" in str(err)
        assert "ValueError: vault exploded" in str(err)
        assert isinstance(err.__cause__, ValueError)

    def test_context_attached_on_traced_runs_too(self):
        sim = Simulator()

        class _Sink:
            def write(self, event):
                pass

            def close(self):
                pass

        from repro.obs.trace import Tracer

        sim.trace = Tracer(_Sink(), categories="all")

        def boom():
            raise RuntimeError("nope")

        sim.schedule(1.0, boom)
        with pytest.raises(SimulationError) as exc_info:
            sim.run()
        assert exc_info.value.sim_time_ns == 1.0

    def test_experiment_failure_message_includes_sim_context(self):
        # The sabotage raise happens before the simulation starts, so
        # instead break a handler: a NaN schedule from inside a run.
        sim = Simulator()
        sim.schedule(2.0, lambda: sim.schedule(float("nan"), lambda: None))
        with pytest.raises(SimulationError) as exc_info:
            sim.run()
        assert exc_info.value.sim_time_ns == 2.0
        assert isinstance(exc_info.value.__cause__, SimulationError)


# ----------------------------------------------------------------------
# Executor hardening
# ----------------------------------------------------------------------
class TestSerialHardening:
    def test_inline_error_is_isolated(self):
        results = SerialExecutor().run_many([OK1, BAD, OK2])
        assert norm(results[0]) == norm(SerialExecutor().run(OK1))
        assert isinstance(results[1], FailedResult)
        assert results[1].error_type == "error"
        assert "sabotage" in results[1].message
        assert norm(results[2]) == norm(SerialExecutor().run(OK2))

    def test_isolated_mode_survives_sigkill(self):
        results = SerialExecutor(isolate=True).run_many([DIE, OK1])
        assert isinstance(results[0], FailedResult)
        assert results[0].error_type == "crash"
        assert "-9" in results[0].message
        assert norm(results[1]) == norm(SerialExecutor().run(OK1))

    def test_timeout_watchdog_reclaims_hung_worker(self):
        results = SerialExecutor(timeout_s=1.5).run_many([HANG, OK1])
        assert isinstance(results[0], FailedResult)
        assert results[0].error_type == "timeout"
        assert results[0].wall_time_s >= 1.5
        assert not isinstance(results[1], FailedResult)

    def test_isolated_results_bit_identical_to_inline(self):
        inline = SerialExecutor().run_many([OK1, OK2])
        isolated = SerialExecutor(isolate=True).run_many([OK1, OK2])
        assert [norm(r) for r in inline] == [norm(r) for r in isolated]

    def test_error_never_burns_retries(self):
        results = SerialExecutor(isolate=True, retries=3).run_many([BAD])
        assert isinstance(results[0], FailedResult)
        assert results[0].attempts == 1

    def test_crash_retries_are_bounded(self):
        results = SerialExecutor(
            isolate=True, retries=2, backoff_s=0.01
        ).run_many([DIE])
        assert isinstance(results[0], FailedResult)
        assert results[0].error_type == "crash"
        assert results[0].attempts == 3  # 1 + 2 retries


class TestParallelHardening:
    def test_worker_crash_does_not_lose_other_results(self):
        results = ParallelExecutor(jobs=2, backoff_s=0.01).run_many(
            [OK1, DIE, OK2]
        )
        expected = SerialExecutor().run_many([OK1, OK2])
        assert norm(results[0]) == norm(expected[0])
        assert isinstance(results[1], FailedResult)
        assert results[1].error_type == "crash"
        assert norm(results[2]) == norm(expected[1])

    def test_results_mapped_by_index_not_completion_order(self):
        # HANG-free mix of fast/slow seeds; input order must be kept
        # even though the pool completes them out of order.
        configs = [OK2, OK1, ExperimentConfig(**FAST, seed=6)]
        parallel = ParallelExecutor(jobs=3).run_many(configs)
        serial = SerialExecutor().run_many(configs)
        assert [norm(r) for r in parallel] == [norm(r) for r in serial]

    def test_inline_raise_is_isolated_not_retried(self):
        results = ParallelExecutor(jobs=2, retries=3, backoff_s=0.01).run_many(
            [BAD, OK1]
        )
        assert isinstance(results[0], FailedResult)
        assert results[0].error_type == "error"
        assert results[0].attempts == 1
        assert not isinstance(results[1], FailedResult)

    def test_timeout_reclaims_hung_worker_mid_batch(self):
        results = ParallelExecutor(jobs=2, timeout_s=1.5).run_many(
            [HANG, OK1, OK2]
        )
        assert isinstance(results[0], FailedResult)
        assert results[0].error_type == "timeout"
        assert not isinstance(results[1], FailedResult)
        assert not isinstance(results[2], FailedResult)

    def test_on_result_streams_final_outcomes(self):
        seen = {}
        ParallelExecutor(jobs=2, backoff_s=0.01).run_many(
            [OK1, DIE],
            on_result=lambda i, c, o: seen.setdefault(i, o),
        )
        assert set(seen) == {0, 1}
        assert not isinstance(seen[0], FailedResult)
        assert isinstance(seen[1], FailedResult)

    def test_on_result_fires_before_the_batch_completes(self):
        # Checkpointing only helps if outcomes stream as they finish —
        # a sweep SIGKILLed mid-batch must keep the completed prefix.
        # HANG wedges one worker for many seconds, so if OK1/OK2 are
        # only emitted when the whole batch (or pool phase) resolves,
        # their callbacks run after the watchdog fires and this timing
        # gap shows up.
        times = {}
        t0 = time.monotonic()
        ParallelExecutor(jobs=2, timeout_s=1.0, backoff_s=0.01).run_many(
            [OK1, OK2, HANG],
            on_result=lambda i, c, o: times.setdefault(
                i, time.monotonic() - t0
            ),
        )
        assert set(times) == {0, 1, 2}
        # Both healthy configs finish well before the hung worker's
        # 1 s watchdog budget expires; streamed emission means their
        # callbacks must too.
        assert times[2] >= 1.0
        assert min(times[0], times[1]) < times[2]

    def test_single_worker_degrades_to_isolated_serial(self):
        results = ParallelExecutor(jobs=1).run_many([DIE, OK1])
        assert isinstance(results[0], FailedResult)
        assert not isinstance(results[1], FailedResult)

    @staticmethod
    def _counting(executor):
        events = []
        return with_heartbeat(executor, events.append), events

    def test_single_config_crash_gets_the_extra_rerun(self):
        executor, events = self._counting(ParallelExecutor(jobs=2, backoff_s=0.01))
        results = executor.run_many([DIE])
        assert isinstance(results[0], FailedResult)
        assert results[0].error_type == "crash"
        assert results[0].attempts == 2
        assert events == ["worker_restart"]

    def test_each_crash_restarts_only_its_own_worker(self):
        executor, events = self._counting(ParallelExecutor(jobs=2, backoff_s=0.01))
        results = executor.run_many([DIE, DIE.replace(seed=8)])
        assert [r.error_type for r in results] == ["crash", "crash"]
        assert events == ["worker_restart", "worker_restart"]

    def test_no_worker_outlives_run_many(self):
        import multiprocessing

        ParallelExecutor(jobs=2).run_many([OK1, OK2])
        assert multiprocessing.active_children() == []


class TestMakeExecutor:
    def test_serial_by_default(self):
        ex = make_executor(1)
        assert isinstance(ex, SerialExecutor)
        assert not ex.isolate

    def test_timeout_turns_on_isolation(self):
        ex = make_executor(1, timeout_s=5.0)
        assert isinstance(ex, SerialExecutor)
        assert ex.isolate and ex.timeout_s == 5.0

    def test_parallel_with_hardening(self):
        ex = make_executor(4, timeout_s=9.0, retries=2)
        assert isinstance(ex, ParallelExecutor)
        assert ex.jobs == 4 and ex.timeout_s == 9.0 and ex.retries == 2

    @pytest.mark.parametrize("kind", [SerialExecutor, ParallelExecutor])
    def test_rejects_budgets_the_runner_cannot_honour(self, kind):
        for bad in (dict(timeout_s=0.0), dict(timeout_s=-5.0),
                    dict(retries=-2)):
            with pytest.raises(ValueError):
                kind(**bad)

    def test_cli_rejects_zero_timeout_before_simulating(self, monkeypatch):
        from repro.cli import main
        from repro.harness import executor as executor_module

        def no_simulation(config):
            raise AssertionError("simulated despite an invalid --timeout")

        monkeypatch.setattr(executor_module, "run_experiment", no_simulation)
        with pytest.raises(SystemExit, match="error: timeout must be > 0"):
            main(["run", "--workload", "sp.D", "--window-us", "10",
                  "--no-cache", "--timeout", "0"])

    def test_failed_result_describe(self):
        failure = FailedResult(
            config=OK1, error_type="timeout", message="too slow", attempts=2
        )
        text = failure.describe()
        assert "timeout" in text and "2 attempt" in text and "sp.D" in text


# ----------------------------------------------------------------------
# Sweep journal
# ----------------------------------------------------------------------
class TestSweepJournal:
    def test_record_and_replay(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        result = SerialExecutor().run(OK1)
        with SweepJournal(path) as journal:
            journal.record_done(OK1.cache_key(), result)
            journal.record_failed(
                BAD.cache_key(),
                FailedResult(config=BAD, error_type="crash", message="x",
                             attempts=2),
            )
        replayed = SweepJournal(path, resume=True)
        assert norm(replayed.results[OK1.cache_key()]) == norm(result)
        failure = replayed.failures[BAD.cache_key()]
        assert failure["error_type"] == "crash" and failure["attempts"] == 2
        assert replayed.corrupt_lines == 0
        replayed.close()

    def test_done_supersedes_earlier_failure(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        result = SerialExecutor().run(OK1)
        key = OK1.cache_key()
        with SweepJournal(path) as journal:
            journal.record_failed(
                key, FailedResult(config=OK1, error_type="timeout", message="t")
            )
            journal.record_done(key, result)
        replayed = SweepJournal(path, resume=True)
        assert key in replayed.results
        assert key not in replayed.failures
        replayed.close()

    def test_record_done_is_idempotent_per_key(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        result = SerialExecutor().run(OK1)
        with SweepJournal(path) as journal:
            journal.record_done(OK1.cache_key(), result)
            journal.record_done(OK1.cache_key(), result)
        assert len(path.read_text().splitlines()) == 1

    def test_torn_tail_line_is_tolerated(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        result = SerialExecutor().run(OK1)
        with SweepJournal(path) as journal:
            journal.record_done(OK1.cache_key(), result)
        with open(path, "a") as fh:
            fh.write('{"kind": "done", "key": "abc", "result": {"trunc')
        replayed = SweepJournal(path, resume=True)
        assert replayed.corrupt_lines == 1
        assert norm(replayed.results[OK1.cache_key()]) == norm(result)
        replayed.close()

    def test_fresh_journal_truncates(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        path.write_text('{"kind": "stale"}\n')
        journal = SweepJournal(path)  # resume=False
        journal.close()
        assert path.read_text() == ""


class TestSweepRunnerResilience:
    def test_run_all_reports_failures_in_slot(self):
        runner = SweepRunner(executor=SerialExecutor())
        outcomes = runner.run_all([OK1, BAD, OK2])
        assert not isinstance(outcomes[0], FailedResult)
        assert isinstance(outcomes[1], FailedResult)
        assert not isinstance(outcomes[2], FailedResult)
        assert BAD.cache_key() in runner.failures

    def test_failed_config_not_rerun_in_same_runner(self):
        runner = SweepRunner(executor=SerialExecutor())
        runner.run_all([BAD])
        with pytest.raises(ExperimentFailedError):
            runner.run(BAD)
        # Second batch reuses the recorded failure without re-running.
        runs_before = runner.runs
        outcomes = runner.run_all([BAD, OK1])
        assert isinstance(outcomes[0], FailedResult)
        assert runner.runs == runs_before + 1  # only OK1 simulated

    def test_failures_never_cached(self, tmp_path):
        cache = DiskCache(tmp_path)
        runner = SweepRunner(executor=SerialExecutor(), disk_cache=cache)
        runner.run_all([BAD, OK1])
        assert len(cache) == 1  # only the successful run persisted
        assert cache.get(BAD) is None

    def test_journal_checkpoints_and_resumes(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        first = SweepRunner(executor=SerialExecutor())
        first.attach_journal(SweepJournal(path))
        first.run_all([OK1, BAD, OK2])
        first.journal.close()

        resumed = SweepRunner(executor=SerialExecutor())
        resumed.attach_journal(SweepJournal(path, resume=True))
        assert resumed.journal_hits == 2
        outcomes = resumed.run_all([OK1, BAD, OK2])
        # The two completed configs replay from the journal (memory
        # hits, zero simulations); the failed one is retried -- and
        # fails again, re-recorded rather than counted as a run.
        assert resumed.runs == 0
        assert resumed.memory_hits == 2
        assert isinstance(outcomes[1], FailedResult)
        assert BAD.cache_key() in resumed.failures
        assert not isinstance(outcomes[0], FailedResult)
        resumed.journal.close()

    def test_resumed_journal_results_bit_identical(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        first = SweepRunner(executor=SerialExecutor())
        first.attach_journal(SweepJournal(path))
        original = first.run_all([OK1])[0]
        first.journal.close()

        resumed = SweepRunner(executor=SerialExecutor())
        resumed.attach_journal(SweepJournal(path, resume=True))
        replayed = resumed.run_all([OK1])[0]
        assert resumed.runs == 0
        assert norm(replayed) == norm(original)
        resumed.journal.close()


# ----------------------------------------------------------------------
# Disk-cache quarantine
# ----------------------------------------------------------------------
class TestDiskCacheQuarantine:
    def test_corrupt_entry_is_quarantined_not_unlinked(self, tmp_path):
        cache = DiskCache(tmp_path)
        result = SerialExecutor().run(OK1)
        cache.put(OK1, result)
        path = cache.path_for(OK1)
        path.write_text("{ torn write")
        assert cache.get(OK1) is None
        assert cache.quarantined == 1
        assert not path.exists()
        moved = cache.directory / "quarantine" / path.name
        assert moved.exists()
        assert moved.read_text() == "{ torn write"

    def test_quarantined_entries_do_not_count_or_resolve(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.put(OK1, SerialExecutor().run(OK1))
        cache.path_for(OK1).write_text("garbage")
        cache.get(OK1)
        assert len(cache) == 0  # quarantine/ is not globbed
        assert cache.get(OK1) is None  # still a miss afterwards

    def test_quarantine_counter_surfaced_in_cli_stats(self, tmp_path, capsys):
        from repro.cli import _print_run_stats

        cache = DiskCache(tmp_path)
        cache.put(OK1, SerialExecutor().run(OK1))
        cache.path_for(OK1).write_text("junk")
        cache.get(OK1)
        runner = SweepRunner(executor=SerialExecutor(), disk_cache=cache)
        _print_run_stats(runner)
        assert "1 quarantined" in capsys.readouterr().err


# ----------------------------------------------------------------------
# End-to-end CLI chaos (fast versions of the CI chaos job)
# ----------------------------------------------------------------------
class TestCliChaos:
    def _spec(self, tmp_path, fault_specs):
        configs = [
            dict(FAST, seed=10 + i, fault_spec=fs)
            for i, fs in enumerate(fault_specs)
        ]
        spec = tmp_path / "batch.json"
        spec.write_text(json.dumps(configs))
        return spec

    def test_batch_with_dying_worker_exits_3_and_journals(self, tmp_path):
        from repro.cli import main

        spec = self._spec(tmp_path, ["", "die=1", ""])
        journal = tmp_path / "j.jsonl"
        out = tmp_path / "results.json"
        code = main([
            "batch", str(spec), "--jobs", "2", "--no-cache",
            "--journal", str(journal), "--out-json", str(out),
        ])
        assert code == 3
        lines = [json.loads(ln) for ln in journal.read_text().splitlines()]
        kinds = sorted(ln["kind"] for ln in lines)
        assert kinds == ["done", "done", "failed"]
        saved = json.loads(out.read_text())
        assert len(saved) == 2  # failures excluded from outputs

    def test_batch_resume_completes_remainder(self, tmp_path):
        from repro.cli import main

        spec = self._spec(tmp_path, ["", "", ""])
        journal = tmp_path / "j.jsonl"
        # Seed the journal with only the first config's result, as if
        # the first invocation was killed after one completion.
        runner = SweepRunner(executor=SerialExecutor())
        first_cfg = ExperimentConfig(**FAST, seed=10)
        journal_obj = SweepJournal(journal)
        journal_obj.record_done(first_cfg.cache_key(), runner.run(first_cfg))
        journal_obj.close()

        code = main([
            "batch", str(spec), "--no-cache",
            "--journal", str(journal), "--resume",
        ])
        assert code == 0
        lines = [json.loads(ln) for ln in journal.read_text().splitlines()]
        assert sum(1 for ln in lines if ln["kind"] == "done") == 3

    def test_resume_without_journal_flag_errors(self, tmp_path):
        from repro.cli import main

        spec = self._spec(tmp_path, [""])
        with pytest.raises(SystemExit):
            main(["batch", str(spec), "--no-cache", "--resume"])
