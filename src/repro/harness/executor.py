"""Execution backends for experiment batches (hardened).

:class:`~repro.harness.sweep.SweepRunner` delegates the actual
simulation of cache misses to an *executor*.  Two are provided:

* :class:`SerialExecutor` -- runs each config inline, in order (the
  default); with ``timeout_s`` set or ``isolate=True`` each experiment
  runs in a watched child process instead, so a hung or crashing
  simulation cannot take the caller down;
* :class:`ParallelExecutor` -- fans a batch out over a
  :class:`concurrent.futures.ProcessPoolExecutor` with per-experiment
  wall-clock timeouts, worker-crash isolation, bounded retry with
  backoff, and graceful degradation to isolated serial execution when
  the pool keeps dying.

Failure semantics (the core of the hardening): ``run_many`` **never
aborts the batch** because one experiment failed.  Each failing config
yields a structured :class:`FailedResult` in its input-order slot --
carrying the error kind (``error`` / ``crash`` / ``timeout``), a
diagnostic message (including the simulator's crash context, see
:class:`repro.sim.engine.SimulationError`), and the attempt count --
while every other config's result is preserved.  Only
``KeyboardInterrupt``/``SystemExit`` propagate.

Determinism: the simulation engine is seed-deterministic and every
experiment is independent, so serial and parallel execution produce
bit-identical results for the same batch, *including* retried configs
(a retry re-runs the same deterministic simulation).  Results are
mapped back to configs **by submission index**, never by pool
completion order (``tests/test_executor.py`` pins this).

Thread safety: both executors are frozen dataclasses whose
``run_many`` keeps all mutable state in locals (the parallel backend
builds a fresh process pool per call), so one executor instance may be
shared by concurrent threads -- the experiment service's batch
dispatcher relies on this.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Iterable, List, Optional, Set, Union

from repro.harness.experiment import ExperimentConfig, ExperimentResult, run_experiment

__all__ = [
    "Executor",
    "SerialExecutor",
    "ParallelExecutor",
    "FailedResult",
    "ExperimentOutcome",
    "make_executor",
    "with_heartbeat",
]


@dataclass
class FailedResult:
    """Structured record of one experiment that could not produce a result.

    ``error_type`` is one of:

    * ``"error"`` -- the simulation raised (deterministic; retrying
      would fail identically, so it never burns retry attempts);
    * ``"crash"`` -- the worker process died (segfault, OOM-kill, ...);
    * ``"timeout"`` -- the experiment exceeded the wall-clock budget
      and the watchdog reclaimed the worker.
    """

    config: ExperimentConfig
    error_type: str
    message: str
    attempts: int = 1
    wall_time_s: float = 0.0

    @property
    def failed(self) -> bool:
        """Always True; lets callers duck-type result-ish objects."""
        return True

    def describe(self) -> str:
        """One-line human-readable summary."""
        cfg = self.config
        return (
            f"{cfg.workload}/{cfg.topology}/{cfg.mechanism}/{cfg.policy}"
            f" FAILED [{self.error_type}] after {self.attempts} attempt(s):"
            f" {self.message}"
        )


#: What batch execution hands back per config.
ExperimentOutcome = Union[ExperimentResult, FailedResult]

#: Per-completion callback: ``(index, config, outcome)``.  Invoked in
#: completion order (not input order) as soon as each outcome is final,
#: so journals checkpoint progress even if the process is killed
#: mid-batch.
OnResult = Callable[[int, ExperimentConfig, ExperimentOutcome], None]

#: Watchdog poll interval while timeouts are armed (seconds).
_WATCHDOG_TICK_S = 0.05

#: Executor event hook signature: receives ``"worker_restart"`` (a
#: dead or hung isolated child is being replaced) or ``"pool_rebuild"``
#: (a broken or poisoned worker pool is being rebuilt).  Hooks are
#: called from executor internals and must be cheap; exceptions they
#: raise are swallowed.
HeartbeatHook = Callable[[str], None]


def _failed_from_exception(
    config: ExperimentConfig, exc: BaseException, attempts: int,
    wall_time_s: float = 0.0,
) -> FailedResult:
    return FailedResult(
        config=config,
        error_type="error",
        message=f"{type(exc).__name__}: {exc}",
        attempts=attempts,
        wall_time_s=wall_time_s,
    )


class Executor:
    """Interface: turn a batch of configs into a batch of outcomes."""

    #: Worker count as configured.  Read it through :attr:`workers`,
    #: which resolves it to how many configs one ``run_many`` call runs
    #: at once.
    jobs: int = 1

    #: Optional event hook (see :data:`HeartbeatHook`); the experiment
    #: service installs one via :func:`with_heartbeat` to count worker
    #: restarts and pool rebuilds.
    heartbeat: Optional[HeartbeatHook] = None

    @property
    def workers(self) -> int:
        """How many configs one ``run_many`` call runs at once.

        The experiment service lingers to coalesce queued misses into
        one batch only when this is above 1.
        """
        return self.jobs

    def _beat(self, event: str) -> None:
        """Invoke the event hook, swallowing its failures."""
        hook = getattr(self, "heartbeat", None)
        if hook is None:
            return
        try:
            hook(event)
        except Exception:  # noqa: BLE001 - liveness must not break work
            pass

    def run_many(
        self,
        configs: Iterable[ExperimentConfig],
        on_result: Optional[OnResult] = None,
    ) -> List[ExperimentOutcome]:
        """Simulate every config; outcomes are returned in input order.

        A config whose simulation fails yields a :class:`FailedResult`
        in its slot; the rest of the batch is unaffected.
        """
        raise NotImplementedError

    def run(self, config: ExperimentConfig) -> ExperimentOutcome:
        """Simulate a single config."""
        return self.run_many([config])[0]

    def describe(self) -> Dict[str, object]:
        """JSON-safe summary of this backend (kind, jobs, hardening).

        Surfaced by the experiment service's ``/stats`` endpoint so an
        operator can see what executes cache misses without reading the
        launch command.
        """
        return {
            "kind": type(self).__name__,
            "jobs": self.jobs,
            "timeout_s": getattr(self, "timeout_s", None),
            "retries": getattr(self, "retries", 0),
        }


# ----------------------------------------------------------------------
# Isolated single-experiment execution (shared by both executors)
# ----------------------------------------------------------------------
def _isolated_child(conn, config: ExperimentConfig) -> None:
    """Child-process body: run one experiment, ship the outcome back."""
    try:
        result = run_experiment(config)
        conn.send(("ok", result))
    except BaseException as exc:  # noqa: BLE001 - must not escape the child
        try:
            conn.send(("err", f"{type(exc).__name__}: {exc}"))
        except (BrokenPipeError, OSError):
            pass
    finally:
        conn.close()


def _run_isolated(
    config: ExperimentConfig, timeout_s: Optional[float], attempts: int
) -> ExperimentOutcome:
    """Run one experiment in a watched child process.

    The child is daemonic (killed with the parent) and the parent waits
    on the result pipe with the timeout as its watchdog: a child that
    hangs past the budget -- or dies without reporting -- is killed and
    recorded as a structured failure instead of wedging the caller.
    """
    import multiprocessing as mp

    start = time.perf_counter()
    ctx = mp.get_context()
    recv, send = ctx.Pipe(duplex=False)
    proc = ctx.Process(target=_isolated_child, args=(send, config), daemon=True)
    proc.start()
    send.close()
    payload = None
    timed_out = False
    try:
        if recv.poll(timeout_s):
            payload = recv.recv()
        else:
            # poll() returning False is the *only* timeout signal; a
            # dying child closes the pipe, which makes poll() return
            # True and recv() raise EOFError (the crash path below).
            timed_out = True
    except (EOFError, OSError):
        payload = None
    wall = time.perf_counter() - start
    if timed_out:
        proc.kill()
        proc.join()
        recv.close()
        return FailedResult(
            config=config,
            error_type="timeout",
            message=(
                f"exceeded {timeout_s:g}s wall clock; "
                "watchdog killed the worker"
            ),
            attempts=attempts,
            wall_time_s=wall,
        )
    if payload is None:
        proc.join()
        recv.close()
        return FailedResult(
            config=config,
            error_type="crash",
            message=f"worker process died (exit code {proc.exitcode})",
            attempts=attempts,
            wall_time_s=wall,
        )
    proc.join()
    recv.close()
    kind, value = payload
    if kind == "ok":
        return value
    return FailedResult(
        config=config,
        error_type="error",
        message=value,
        attempts=attempts,
        wall_time_s=wall,
    )


@dataclass(frozen=True)
class SerialExecutor(Executor):
    """Runs every experiment in order in (or under) the calling process.

    By default experiments run inline and a raising simulation becomes
    an ``error`` :class:`FailedResult` (the batch continues).  With
    ``timeout_s`` set or ``isolate=True``, each experiment instead runs
    in its own watched child process, which additionally survives
    worker crashes and hangs; ``retries`` then re-attempts ``crash`` /
    ``timeout`` failures (``error`` failures are deterministic and are
    never retried).
    """

    jobs: int = 1
    timeout_s: Optional[float] = None
    retries: int = 0
    backoff_s: float = 0.25
    isolate: bool = False
    heartbeat: Optional[HeartbeatHook] = field(
        default=None, compare=False, repr=False
    )

    def run_many(
        self,
        configs: Iterable[ExperimentConfig],
        on_result: Optional[OnResult] = None,
    ) -> List[ExperimentOutcome]:
        out: List[ExperimentOutcome] = []
        for index, config in enumerate(configs):
            outcome = self._run_one(config)
            if on_result is not None:
                on_result(index, config, outcome)
            out.append(outcome)
        return out

    def _run_one(self, config: ExperimentConfig) -> ExperimentOutcome:
        isolated = self.isolate or self.timeout_s is not None
        attempts = 0
        while True:
            attempts += 1
            if isolated:
                outcome = _run_isolated(config, self.timeout_s, attempts)
            else:
                start = time.perf_counter()
                try:
                    return run_experiment(config)
                except (KeyboardInterrupt, SystemExit):
                    raise
                except Exception as exc:
                    return _failed_from_exception(
                        config, exc, attempts, time.perf_counter() - start
                    )
            retryable = (
                isinstance(outcome, FailedResult)
                and outcome.error_type in ("crash", "timeout")
            )
            if not retryable or attempts > self.retries:
                return outcome
            # The dead/hung child is being replaced with a fresh one.
            self._beat("worker_restart")
            time.sleep(self.backoff_s * attempts)


@dataclass(frozen=True)
class ParallelExecutor(Executor):
    """Fans a batch out over a process pool, surviving worker failures.

    ``jobs=0`` (the default) sizes the pool to the machine's CPU count.
    Single-config batches (and ``jobs=1``) fall back to an isolated
    :class:`SerialExecutor` with the same hardening parameters.

    Failure handling:

    * an experiment that *raises* resolves immediately to an ``error``
      :class:`FailedResult` -- no retry (deterministic), no impact on
      the rest of the batch;
    * a *worker death* breaks the pool; the phase ends, configs that
      were running are treated as crash suspects (one attempt burned),
      queued configs are innocent (no attempt burned), and a fresh
      pool runs the survivors;
    * an experiment exceeding ``timeout_s`` is recorded as a
      ``timeout`` and its worker slot is considered poisoned; the pool
      is rebuilt (and hung workers killed) at the end of the phase;
    * retries are bounded (``retries`` per config, with linear
      ``backoff_s`` between pool rebuilds); when the pool stops making
      progress entirely, the remaining configs degrade to isolated
      serial execution instead of aborting the batch.
    """

    jobs: int = 0
    timeout_s: Optional[float] = None
    retries: int = 0
    backoff_s: float = 0.25
    heartbeat: Optional[HeartbeatHook] = field(
        default=None, compare=False, repr=False
    )

    @property
    def workers(self) -> int:
        """``jobs``, or one worker per CPU when ``jobs`` is 0."""
        return self.jobs if self.jobs > 0 else (os.cpu_count() or 1)

    def run_many(
        self,
        configs: Iterable[ExperimentConfig],
        on_result: Optional[OnResult] = None,
    ) -> List[ExperimentOutcome]:
        configs = list(configs)
        workers = min(self.workers, len(configs))
        if workers <= 1:
            # Nothing to overlap; run serially but keep the hardening
            # (process isolation means a crashing config still cannot
            # take down the orchestrating process).
            serial = SerialExecutor(
                timeout_s=self.timeout_s,
                retries=self.retries,
                backoff_s=self.backoff_s,
                isolate=True,
                heartbeat=self.heartbeat,
            )
            return serial.run_many(configs, on_result=on_result)

        results: List[Optional[ExperimentOutcome]] = [None] * len(configs)
        attempts = [0] * len(configs)

        def emit(index: int, outcome: ExperimentOutcome) -> None:
            results[index] = outcome
            if on_result is not None:
                on_result(index, configs[index], outcome)

        pending = list(range(len(configs)))
        rebuilds = 0
        max_rebuilds = (self.retries + 1) * len(configs) + 1
        while pending:
            retry = self._run_phase(pending, configs, attempts, workers, emit)
            if not retry:
                break
            rebuilds += 1
            # Survivors get a fresh pool (or isolated adjudication):
            # worker processes were lost, not just slow.
            self._beat("pool_rebuild")
            next_pending: List[int] = []
            for index in retry:
                if attempts[index] <= self.retries and rebuilds <= max_rebuilds:
                    next_pending.append(index)
                    continue
                # Pool attempts exhausted (or the pool keeps dying).
                # A broken pool cannot say *which* config killed the
                # worker, so co-scheduled innocents share the blame;
                # adjudicate in an isolated child process for a
                # definitive per-config verdict instead of declaring
                # a crash on circumstantial evidence.
                attempts[index] += 1
                emit(
                    index,
                    _run_isolated(configs[index], self.timeout_s, attempts[index]),
                )
            if next_pending:
                time.sleep(min(self.backoff_s * rebuilds, 5.0))
            pending = next_pending
        # Every index is resolved by construction; the cast keeps the
        # public return type honest.
        return [outcome for outcome in results if outcome is not None]

    # -- one pool lifetime ---------------------------------------------
    def _run_phase(
        self,
        indices: List[int],
        configs: List[ExperimentConfig],
        attempts: List[int],
        workers: int,
        emit: Callable[[int, ExperimentOutcome], None],
    ) -> List[int]:
        """Run ``indices`` on one pool until done or the pool is lost.

        Final outcomes are streamed through ``emit`` the moment each
        future resolves — not batched per pool lifetime — so journal
        checkpoints land incrementally and a killed sweep keeps what
        already finished.  Returns the indices that should be re-run on
        a fresh pool (crash/timeout with attempts remaining, or
        never-started innocents).
        """
        from concurrent.futures import (
            FIRST_COMPLETED,
            ProcessPoolExecutor,
            wait,
        )
        from concurrent.futures.process import BrokenProcessPool

        resolved: Set[int] = set()
        retry: List[int] = []
        timed_out: Set[int] = set()
        broke = False
        pool = ProcessPoolExecutor(max_workers=workers)
        try:
            # FIFO submission: the pool starts the first ``workers``
            # tasks immediately and picks up the rest in order as
            # workers free up, which lets the watchdog attribute an
            # (approximate) start time to every running task.
            index_of = {}
            fut_of: Dict[int, object] = {}
            queued: List[int] = []
            started_at: Dict[int, float] = {}
            t0 = time.monotonic()
            for k, index in enumerate(indices):
                fut = pool.submit(run_experiment, configs[index])
                index_of[fut] = index
                fut_of[index] = fut
                if k < workers:
                    started_at[index] = t0
                else:
                    queued.append(index)
            queued.reverse()  # pop() from the tail = FIFO
            unfinished = set(index_of)
            lost_workers = 0
            while unfinished:
                tick = _WATCHDOG_TICK_S if self.timeout_s is not None else None
                done, _ = wait(unfinished, timeout=tick,
                               return_when=FIRST_COMPLETED)
                now = time.monotonic()
                for fut in done:
                    unfinished.discard(fut)
                    index = index_of[fut]
                    freed_slot = index in started_at
                    started_at.pop(index, None)
                    if index in timed_out:
                        # Late completion of an abandoned attempt; its
                        # outcome was already decided by the watchdog.
                        continue
                    try:
                        outcome: ExperimentOutcome = fut.result()
                    except BrokenProcessPool:
                        # Every future (started or queued) resolves
                        # with this once a worker dies; only configs
                        # that were actually *running* are suspects
                        # and burn an attempt.
                        if freed_slot:
                            attempts[index] += 1
                        broke = True
                        continue
                    except (KeyboardInterrupt, SystemExit):
                        raise
                    except Exception as exc:
                        # The experiment raised inside a healthy
                        # worker: deterministic, not retryable.
                        attempts[index] += 1
                        outcome = _failed_from_exception(
                            config=configs[index], exc=exc,
                            attempts=attempts[index],
                        )
                    else:
                        attempts[index] += 1
                    resolved.add(index)
                    emit(index, outcome)
                    if freed_slot and queued and not broke:
                        started_at[queued.pop()] = now
                if broke:
                    break
                if self.timeout_s is not None:
                    expired = [
                        i for i, t_start in started_at.items()
                        if now - t_start > self.timeout_s
                    ]
                    for index in expired:
                        attempts[index] += 1
                        timed_out.add(index)
                        started_at.pop(index)
                        # Abandon the future: its worker is wedged and
                        # will never complete it, so waiting on it
                        # would spin this loop forever.
                        unfinished.discard(fut_of[index])
                        lost_workers += 1
                        failure = FailedResult(
                            config=configs[index],
                            error_type="timeout",
                            message=(
                                f"exceeded {self.timeout_s:g}s wall clock; "
                                "worker abandoned"
                            ),
                            attempts=attempts[index],
                            wall_time_s=now - t0,
                        )
                        if attempts[index] > self.retries:
                            resolved.add(index)
                            emit(index, failure)
                        else:
                            retry.append(index)
                    if expired and lost_workers >= workers:
                        # Every worker is wedged; nothing queued will
                        # ever start on this pool.
                        break
        finally:
            pool.shutdown(wait=False, cancel_futures=True)
            if broke or timed_out:
                _kill_pool_processes(pool)
        if broke or (timed_out and lost_workers >= workers):
            # Partition everything not yet decided: tasks that were
            # running are crash suspects (burn an attempt); queued
            # tasks are innocent bystanders (free re-run).  Nobody is
            # declared dead here -- the caller adjudicates configs
            # whose attempts are exhausted in an isolated child.
            for index in indices:
                if index in resolved or index in retry or index in timed_out:
                    continue
                if index in started_at:
                    attempts[index] += 1
                retry.append(index)
        return retry


def _kill_pool_processes(pool) -> None:
    """Best-effort SIGKILL of a broken/poisoned pool's workers.

    ``shutdown(wait=False)`` leaves hung workers running (and the
    interpreter joins them at exit); killing them directly is the only
    way to reclaim a wedged slot.  ``_processes`` is CPython
    implementation detail, hence the defensive access.
    """
    processes = getattr(pool, "_processes", None) or {}
    for proc in list(processes.values()):
        try:
            proc.kill()
        except (OSError, AttributeError):  # pragma: no cover - defensive
            pass


def make_executor(
    jobs: int = 1,
    timeout_s: Optional[float] = None,
    retries: int = 0,
) -> Executor:
    """``jobs <= 1`` -> :class:`SerialExecutor`; otherwise a pool of ``jobs``.

    ``timeout_s``/``retries`` configure the hardening on either backend
    (a serial executor with a timeout runs experiments in watched child
    processes so the watchdog can reclaim hangs).
    """
    if jobs is None or jobs <= 1:
        return SerialExecutor(
            timeout_s=timeout_s,
            retries=retries,
            isolate=timeout_s is not None,
        )
    return ParallelExecutor(jobs=jobs, timeout_s=timeout_s, retries=retries)


def with_heartbeat(executor: Executor, hook: Optional[HeartbeatHook]) -> Executor:
    """Attach an event hook to an executor, preserving its behavior.

    The stock executors are frozen dataclasses, so attaching returns a
    ``dataclasses.replace`` copy (identical in every compared field --
    cache keys and equality are unaffected because ``heartbeat`` is
    excluded from comparison).  Third-party executors get the hook set
    as a plain attribute when possible; an executor that cannot accept
    one is returned unchanged -- the hook is strictly optional.
    """
    if hook is None:
        return executor
    if isinstance(executor, (SerialExecutor, ParallelExecutor)):
        return replace(executor, heartbeat=hook)
    try:
        executor.heartbeat = hook
    except (AttributeError, TypeError):
        pass
    return executor


