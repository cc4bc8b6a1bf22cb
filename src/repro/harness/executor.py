"""Execution backends for experiment batches (hardened).

:class:`~repro.harness.sweep.SweepRunner` delegates the actual
simulation of cache misses to an *executor*.  Two are provided:

* :class:`SerialExecutor` -- runs each config inline, in order (the
  default); with ``timeout_s`` set or ``isolate=True`` each experiment
  runs in a watched worker process instead, so a hung or crashing
  simulation cannot take the caller down;
* :class:`ParallelExecutor` -- runs a batch on up to ``jobs`` watched
  worker processes at once.

Both out-of-process paths share one runner, :func:`_run_in_workers`.
A worker process is reused for the next config of the same
``run_many`` call but holds exactly one config at a time, so blame is
exact: end-of-file on a worker's pipe is a ``crash`` of the config it
held, and a worker still running past ``timeout_s`` is killed and its
config recorded as a ``timeout``.  Either way the worker is replaced
and only that config is re-run.

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
mapped back to configs **by submission index**, never by completion
order (``tests/test_executor.py`` pins this).

Thread safety: both executors are frozen dataclasses whose
``run_many`` keeps all mutable state in locals (worker processes live
for one call), so one executor instance may be shared by concurrent
threads -- the experiment service's batch dispatcher relies on this.
"""

from __future__ import annotations

import heapq
import os
import threading
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

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
      and the watchdog killed the worker.
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

#: Executor event hook signature: receives ``"worker_restart"`` each
#: time a dead or hung worker process is replaced to re-run its config.
#: Hooks are called from executor internals and must be cheap;
#: exceptions they raise are swallowed.
HeartbeatHook = Callable[[str], None]


def _check_hardening(timeout_s: Optional[float], retries: int) -> None:
    """Reject budgets the worker runner cannot honour."""
    if timeout_s is not None and not timeout_s > 0:
        raise ValueError(f"timeout must be > 0 seconds, got {timeout_s:g}")
    if retries < 0:
        raise ValueError(f"retries must be >= 0, got {retries}")


class Executor:
    """Interface: turn a batch of configs into a batch of outcomes."""

    #: Worker count as configured.  Read it through :attr:`workers`,
    #: which resolves it to how many configs one ``run_many`` call runs
    #: at once.
    jobs: int = 1

    #: Optional event hook (see :data:`HeartbeatHook`); the experiment
    #: service installs one via :func:`with_heartbeat` to count worker
    #: restarts.
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
# Worker processes (shared by both executors)
# ----------------------------------------------------------------------
#: Held while a worker's pipe is made, the worker forked and the
#: worker's end closed in the parent.  A process forked in between --
#: by another thread sharing an executor -- would inherit that end and
#: hold it open, so the worker's death would not read as end-of-file
#: until that other process exited.
_FORK_LOCK = threading.Lock()


def _worker_main(conn) -> None:
    """Worker-process body: run each config the parent sends and reply
    with its outcome, until the parent sends ``None``."""
    try:
        for config in iter(conn.recv, None):
            try:
                reply = ("ok", run_experiment(config))
            except Exception as exc:  # noqa: BLE001 - reported to the parent
                reply = ("err", f"{type(exc).__name__}: {exc}")
            conn.send(reply)
    except EOFError:
        pass  # the parent is gone; nobody is waiting for a reply


def _run_in_workers(
    configs: List[ExperimentConfig],
    workers: int,
    timeout_s: Optional[float],
    retries: int,
    crash_retries: int,
    backoff_s: float,
    beat: HeartbeatHook,
    on_result: Optional[OnResult] = None,
) -> List[ExperimentOutcome]:
    """Run ``configs`` on up to ``workers`` reused worker processes.

    The calling thread starts every worker and waits on all of their
    pipes at once.  A worker holds one config at a time; end-of-file on
    its pipe is a ``crash`` of that config and a worker running past
    ``timeout_s`` is killed as a ``timeout``.  Only that config is then
    re-run, after ``backoff_s * attempts`` -- up to ``crash_retries`` or
    ``retries`` times respectively, with one ``beat("worker_restart")``
    per re-run -- while the rest of the batch carries on.  An ``error``
    (the simulation raised) is final.  ``on_result`` fires on the
    calling thread as each outcome is final.
    """
    import multiprocessing as mp
    from multiprocessing.connection import wait

    # The platform's default start method, fork on Linux: a forked worker
    # starts without re-importing the simulator, which spawn would do
    # for every worker of every batch.
    ctx = mp.get_context()
    results: List[Optional[ExperimentOutcome]] = [None] * len(configs)
    attempts = [0] * len(configs)
    # (not before, index): every config is due at once, in input order;
    # a re-run waits out its backoff.
    queue: List[Tuple[float, int]] = [(0.0, index) for index in range(len(configs))]
    idle: list = []  # (process, parent end) with no config
    busy: dict = {}  # parent end -> (process, index, started)

    def start_worker():
        with _FORK_LOCK:
            conn, child_end = ctx.Pipe()
            proc = ctx.Process(target=_worker_main, args=(child_end,), daemon=True)
            proc.start()
            child_end.close()
        return proc, conn

    def finish(index: int, outcome: ExperimentOutcome) -> None:
        results[index] = outcome
        if on_result is not None:
            on_result(index, configs[index], outcome)

    def lost(index: int, error_type: str, message: str, wall: float,
             budget: int) -> None:
        if attempts[index] <= budget:
            beat("worker_restart")
            heapq.heappush(
                queue, (time.monotonic() + backoff_s * attempts[index], index)
            )
        else:
            finish(index, FailedResult(
                config=configs[index], error_type=error_type, message=message,
                attempts=attempts[index], wall_time_s=wall,
            ))

    try:
        while queue or busy:
            now = time.monotonic()
            while queue and queue[0][0] <= now and len(busy) < workers:
                index = heapq.heappop(queue)[1]
                proc, conn = idle.pop() if idle else start_worker()
                attempts[index] += 1
                try:
                    conn.send(configs[index])
                except OSError:
                    pass  # it died idle: its end-of-file below is the crash
                busy[conn] = (proc, index, now)
            wakeups = [queue[0][0]] if queue and len(busy) < workers else []
            if timeout_s is not None:
                wakeups += [started + timeout_s for _, _, started in busy.values()]
            wait_s = max(0.0, min(wakeups) - now) if wakeups else None
            for conn in wait(list(busy), wait_s):
                proc, index, started = busy.pop(conn)
                wall = time.monotonic() - started
                try:
                    kind, value = conn.recv()
                except (EOFError, OSError):
                    proc.join()
                    conn.close()
                    lost(index, "crash",
                         f"worker process died (exit code {proc.exitcode})",
                         wall, crash_retries)
                    continue
                idle.append((proc, conn))
                finish(index, value if kind == "ok" else FailedResult(
                    config=configs[index], error_type="error", message=value,
                    attempts=attempts[index], wall_time_s=wall,
                ))
            if timeout_s is None:
                continue
            now = time.monotonic()
            for conn, (proc, index, started) in list(busy.items()):
                if now - started >= timeout_s:
                    del busy[conn]
                    proc.kill()
                    proc.join()
                    conn.close()
                    lost(index, "timeout",
                         f"exceeded {timeout_s:g}s wall clock; "
                         "watchdog killed the worker",
                         now - started, retries)
    finally:
        # Busy workers are only left when run_many exits by exception.
        # Idle ones get an explicit stop: closing the parent's end is
        # not enough, because workers forked later hold copies of it.
        for proc, _, _ in busy.values():
            proc.kill()
        for _, conn in idle:
            try:
                conn.send(None)
            except OSError:
                pass  # already dead; join reaps it
        for proc, conn in idle + [(p, c) for c, (p, _, _) in busy.items()]:
            proc.join()
            conn.close()
    return [outcome for outcome in results if outcome is not None]


@dataclass(frozen=True)
class SerialExecutor(Executor):
    """Runs every experiment in order in (or under) the calling process.

    By default experiments run inline and a raising simulation becomes
    an ``error`` :class:`FailedResult` (the batch continues).  With
    ``timeout_s`` set or ``isolate=True``, each experiment instead runs
    in a watched worker process of its own, which additionally survives
    crashes and hangs; ``retries`` then re-attempts ``crash`` /
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

    def __post_init__(self) -> None:
        _check_hardening(self.timeout_s, self.retries)

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
        if self.isolate or self.timeout_s is not None:
            return _run_in_workers(
                [config], 1, self.timeout_s, self.retries, self.retries,
                self.backoff_s, self._beat,
            )[0]
        start = time.perf_counter()
        try:
            return run_experiment(config)
        except (KeyboardInterrupt, SystemExit):
            raise
        except Exception as exc:
            return FailedResult(
                config=config,
                error_type="error",
                message=f"{type(exc).__name__}: {exc}",
                wall_time_s=time.perf_counter() - start,
            )


@dataclass(frozen=True)
class ParallelExecutor(Executor):
    """Runs a batch on up to ``jobs`` worker processes at once.

    ``jobs=0`` (the default) means one worker per CPU.  Failure
    handling is per config, so co-running configs never share blame:

    * an experiment that *raises* resolves at once to an ``error``
      :class:`FailedResult` -- no retry (deterministic);
    * a *worker death* is a ``crash`` of the config that worker held,
      re-run on a fresh worker up to ``retries + 1`` times;
    * an experiment exceeding ``timeout_s`` is a ``timeout``; its
      worker is killed and replaced at once, and the config is re-run
      up to ``retries`` times.

    Re-runs wait ``backoff_s * attempts`` and run alongside the rest of
    the batch.
    """

    jobs: int = 0
    timeout_s: Optional[float] = None
    retries: int = 0
    backoff_s: float = 0.25
    heartbeat: Optional[HeartbeatHook] = field(
        default=None, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        _check_hardening(self.timeout_s, self.retries)

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
        # One crash re-run beyond ``retries``: with ``retries=0`` a
        # config whose worker was killed from outside the batch still
        # gets a second run.
        return _run_in_workers(
            configs, min(self.workers, len(configs)), self.timeout_s,
            self.retries, self.retries + 1, self.backoff_s, self._beat,
            on_result,
        )


def make_executor(
    jobs: int = 1,
    timeout_s: Optional[float] = None,
    retries: int = 0,
) -> Executor:
    """``jobs <= 1`` -> :class:`SerialExecutor`; otherwise ``jobs`` workers.

    ``timeout_s``/``retries`` configure the hardening on either backend
    (a serial executor with a timeout runs experiments in watched worker
    processes so the watchdog can reclaim hangs).  Raises ``ValueError``
    for a non-positive ``timeout_s`` or a negative ``retries``.
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
