"""Benchmark-side tracing: spans around the program's public entry points.

Nothing under ``src/`` is modified.  :class:`Tracing` swaps each traced
entry point (the ``LAYER_OF`` names) for a thin wrapper that opens a span
on entry and closes it on exit, and hooks every simulator the
:class:`~repro.harness.builder.SimulationBuilder` builds through the
engine's own ``Simulator.trace`` hook.  That hook is called before every
dispatched callback with the callback's qualified name, so each event
becomes a frame attributed to the class that owns the callback (links,
router, generator, policy) until the next event starts.

A span's self time is its duration minus the time its child spans
cover.  Spans are aggregated per name in memory (per thread, so the
in-process server's handler threads do not share a stack) and written
once, when the run ends.
"""

from __future__ import annotations

import functools
import heapq
import json
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

#: Span or event-frame name -> layer metric prefix.  Names mapped to
#: ``None`` are timed but left in ``unattributed_s``.
LAYER_OF: Dict[str, Optional[str]] = {
    "Simulator.run": "sim.dispatch",
    "ev.links": "network.links",
    "LinkController.enqueue": "network.links",
    "ev.router": "network.router",
    "MemoryNetwork.inject_read": "network.router",
    "MemoryNetwork.inject_write": "network.router",
    "VaultSet.access": "dram.vault",
    "ev.generator": "workloads.generator",
    "ev.policy": "core.policy",
    "ev.other": None,
    "MemoryNetwork.finalize": "power.finalize",
    "PowerBreakdown.from_ledgers": "power.finalize",
    "SimulationBuilder.build": "harness.builder",
    "ExperimentConfig.cache_key": "harness.cache_key",
    "result_to_cache_dict": "harness.io.encode",
    "result_from_cache_dict": "harness.io.decode",
    "store.get": "store.get",
    "store.put": "store.put",
    "SweepRunner.run_all": "harness.sweep",
    "SweepRunner.run": "harness.sweep",
    "figures": "harness.figures",
    "ExperimentService.submit": "serve.submit",
    "Executor.run_many": "executor",
}

#: Hot spans aggregated only; every other span is also kept individually.
_AGGREGATE_ONLY = frozenset(
    name for name in LAYER_OF
    if name.startswith("ev.")
    or name
    in (
        "LinkController.enqueue",
        "MemoryNetwork.inject_read",
        "MemoryNetwork.inject_write",
        "VaultSet.access",
        "ExperimentConfig.cache_key",
        "result_to_cache_dict",
        "result_from_cache_dict",
        "SweepRunner.run",
        "store.get",
    )
)


def event_frame(qualname: str) -> str:
    """Event-frame name for a dispatched callback's qualified name."""
    owner = qualname.split(".", 1)[0]
    if owner == "LinkController":
        return "ev.links"
    if owner == "MemoryNetwork":
        return "ev.router"
    if owner == "ClosedLoopWorkload":
        return "ev.generator"
    if owner.endswith("Policy"):
        return "ev.policy"
    return "ev.other"


class SpanRecorder:
    """Per-thread span stacks with per-name call, total and self times."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 keep: int = 20000) -> None:
        self.clock = clock
        self.keep = keep
        #: Individually kept spans: (name, thread, start, end, parent).
        self.spans: List[Tuple[str, int, float, float, Optional[str]]] = []
        self._local = threading.local()
        self._tables: List[Dict[str, List[float]]] = []
        self._lock = threading.Lock()

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = ([], {})
            self._local.state = state
            with self._lock:
                self._tables.append(state[1])
        return state

    def enter(self, name: str) -> None:
        """Open a span on the calling thread."""
        self._state()[0].append([name, self.clock(), 0.0, False])

    def exit(self) -> None:
        """Close the innermost span (and any event frame still open in it)."""
        stack, table = self._state()
        now = self.clock()
        while stack[-1][3]:
            self._close(stack, table, now)
        self._close(stack, table, now)

    def event(self, name: str) -> None:
        """Start an engine-event frame, ending the previous one."""
        stack, table = self._state()
        now = self.clock()
        if stack and stack[-1][3]:
            self._close(stack, table, now)
        stack.append([name, now, 0.0, True])

    def _close(self, stack, table, now: float) -> None:
        name, start, child, _event = stack.pop()
        duration = now - start
        row = table.get(name)
        if row is None:
            row = table[name] = [0, 0.0, 0.0]
        row[0] += 1
        row[1] += duration
        row[2] += duration - child
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[2] += duration
        if name not in _AGGREGATE_ONLY and len(self.spans) < self.keep:
            self.spans.append(
                (name, threading.get_ident(), start, now,
                 parent[0] if parent is not None else None)
            )

    def totals(self) -> Dict[str, Tuple[int, float, float]]:
        """``{name: (calls, total_s, self_s)}`` merged over threads."""
        merged: Dict[str, List[float]] = {}
        with self._lock:
            tables = list(self._tables)
        for table in tables:
            for name, (calls, total, self_s) in table.items():
                row = merged.setdefault(name, [0, 0.0, 0.0])
                row[0] += calls
                row[1] += total
                row[2] += self_s
        return {k: (int(v[0]), v[1], v[2]) for k, v in merged.items()}


class EngineHook:
    """Stands in for a ``repro.obs.Tracer`` on ``Simulator.trace``.

    The engine calls :meth:`emit` before each callback; the callback's
    qualified name picks the event frame it is charged to.
    """

    def __init__(self, recorder: SpanRecorder) -> None:
        self._event = recorder.event
        self._frames: Dict[str, str] = {}
        self.depth_sum = 0
        self.events = 0

    def emit(self, _when, _category, _name, depth=0, cb="?", **_fields) -> None:
        frame = self._frames.get(cb)
        if frame is None:
            frame = self._frames[cb] = event_frame(cb)
        self.depth_sum += depth
        self.events += 1
        self._event(frame)


def _span(recorder: SpanRecorder, name: str, fn: Callable) -> Callable:
    enter = recorder.enter
    exit_ = recorder.exit

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            exit_()

    return wrapper


def _figure_functions():
    """Every figure function ``repro.harness.figures`` exports."""
    import repro.harness.figures as F

    return [getattr(F, name) for name in F.__all__
            if name.startswith(("fig", "sec7", "hetero_depth"))
            and name != "figure_configs"]


class Tracing:
    """Context manager installing every span wrapper and the engine hook."""

    def __init__(self, executor_layer: str = "harness.executor") -> None:
        self.recorder = SpanRecorder()
        self.hook = EngineHook(self.recorder)
        self.executor_layer = executor_layer
        self._undo: List[Tuple[object, str, object]] = []

    # -- installation --------------------------------------------------
    def _patch(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _wrap_method(self, cls, attr: str, name: str) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            self._patch(cls, attr, classmethod(_span(self.recorder, name, raw.__func__)))
        else:
            self._patch(cls, attr, _span(self.recorder, name, raw))

    def _wrap_function(self, fn: Callable, name: str) -> None:
        """Replace ``fn`` in every ``repro`` module that holds it."""
        wrapped = _span(self.recorder, name, fn)
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patch(module, attr, wrapped)

    def __enter__(self) -> "Tracing":
        from repro.dram.vault import VaultSet
        from repro.harness.builder import SimulationBuilder
        from repro.harness.diskcache import DiskCache
        from repro.harness.executor import SerialExecutor
        from repro.harness.experiment import ExperimentConfig
        from repro.harness.io import result_from_cache_dict, result_to_cache_dict
        from repro.harness.sweep import SweepRunner
        from repro.network.links import LinkController
        from repro.network.network import MemoryNetwork
        from repro.power.accounting import PowerBreakdown
        from repro.serve.service import ExperimentService
        from repro.sim.engine import Simulator
        from repro.store.jsondir import JsonDirStore
        from repro.store.sqlite import SqliteStore

        for cls, attr, name in (
            (Simulator, "run", "Simulator.run"),
            (LinkController, "enqueue", "LinkController.enqueue"),
            (MemoryNetwork, "inject_read", "MemoryNetwork.inject_read"),
            (MemoryNetwork, "inject_write", "MemoryNetwork.inject_write"),
            (MemoryNetwork, "finalize", "MemoryNetwork.finalize"),
            (VaultSet, "access", "VaultSet.access"),
            (PowerBreakdown, "from_ledgers", "PowerBreakdown.from_ledgers"),
            (ExperimentConfig, "cache_key", "ExperimentConfig.cache_key"),
            (DiskCache, "get", "store.get"),
            (DiskCache, "put", "store.put"),
            (JsonDirStore, "get_many", "store.get"),
            (SqliteStore, "get", "store.get"),
            (SqliteStore, "get_many", "store.get"),
            (SqliteStore, "put", "store.put"),
            (SweepRunner, "run_all", "SweepRunner.run_all"),
            (SweepRunner, "run", "SweepRunner.run"),
            (ExperimentService, "submit", "ExperimentService.submit"),
            (SerialExecutor, "run_many", "Executor.run_many"),
        ):
            self._wrap_method(cls, attr, name)
        self._wrap_function(result_to_cache_dict, "result_to_cache_dict")
        self._wrap_function(result_from_cache_dict, "result_from_cache_dict")
        for fn in _figure_functions():
            self._wrap_function(fn, "figures")

        build = SimulationBuilder.__dict__["build"]
        recorder, hook = self.recorder, self.hook

        @functools.wraps(build)
        def traced_build(builder):
            recorder.enter("SimulationBuilder.build")
            try:
                simulation = build(builder)
            finally:
                recorder.exit()
            if simulation.sim.trace is None:
                simulation.sim.trace = hook
            return simulation

        self._patch(SimulationBuilder, "build", traced_build)
        return self

    def __exit__(self, *_exc) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- reduction -----------------------------------------------------
    def layers(self, wall_s: float) -> Dict[str, float]:
        """Per-layer metrics of everything recorded, for a traced wall time.

        Event frames run from one dispatch to the next, so each carries
        one dispatch of the engine loop plus one hook call.  Both are
        calibrated on a bare simulator at the observed queue depth:
        the dispatch share moves to ``sim.dispatch``, the hook's cost
        stays in ``unattributed_s`` with the other measurement overhead.
        """
        totals = self.recorder.totals()
        depth = self.hook.depth_sum / self.hook.events if self.hook.events else 0
        bare_s, hooked_s = calibrate_dispatch(max(1, int(depth))) if self.hook.events else (0.0, 0.0)
        out: Dict[str, float] = {}

        def calls(name: str) -> int:
            return totals.get(name, (0, 0.0, 0.0))[0]

        self_s: Dict[str, float] = {}
        for name, (n, _total, own) in totals.items():
            layer = LAYER_OF.get(name)
            if layer == "executor":
                layer = self.executor_layer
            if layer is None:
                continue
            if name.startswith("ev."):
                own -= n * hooked_s
            self_s[layer] = self_s.get(layer, 0.0) + own
        events = sum(n for name, (n, _t, _s) in totals.items() if name.startswith("ev."))
        self_s["sim.dispatch"] = self_s.get("sim.dispatch", 0.0) + events * bare_s
        for layer in LAYER_METRICS:
            out[f"{layer}.self_s"] = self_s.get(layer, 0.0)
        out["sim.events"] = events
        out["network.links.calls"] = calls("ev.links") + calls("LinkController.enqueue")
        out["network.router.calls"] = (
            calls("ev.router")
            + calls("MemoryNetwork.inject_read")
            + calls("MemoryNetwork.inject_write")
        )
        out["dram.vault.accesses"] = calls("VaultSet.access")
        out["workloads.generator.calls"] = calls("ev.generator")
        out["core.policy.epochs"] = calls("ev.policy")
        out["harness.builder.calls"] = calls("SimulationBuilder.build")
        out["harness.cache_key.calls"] = calls("ExperimentConfig.cache_key")
        out["harness.io.encode.calls"] = calls("result_to_cache_dict")
        out["harness.io.decode.calls"] = calls("result_from_cache_dict")
        out["store.put.calls"] = calls("store.put")
        out["unattributed_s"] = wall_s - sum(self_s.values())
        out["trace.hook_s"] = events * (hooked_s - bare_s)
        out["dispatch_bare_us"] = bare_s * 1e6
        out["dispatch_hooked_us"] = hooked_s * 1e6
        return out

    def write(self, path: Path, wall_s: float, extra: Dict) -> None:
        """Write aggregated spans, kept spans and layer metrics as JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        totals = self.recorder.totals()
        payload = {
            "wall_s": wall_s,
            "totals": {k: {"calls": c, "total_s": t, "self_s": s}
                       for k, (c, t, s) in sorted(totals.items())},
            "layers": extra,
            "spans": [
                {"name": n, "thread": th, "start": s, "end": e, "parent": p}
                for n, th, s, e, p in self.recorder.spans
            ],
        }
        path.write_text(json.dumps(payload, indent=1))


#: Layer metric prefixes that get a ``.self_s`` metric.
LAYER_METRICS = (
    "sim.dispatch",
    "network.links",
    "network.router",
    "dram.vault",
    "workloads.generator",
    "core.policy",
    "power.finalize",
    "harness.builder",
    "harness.cache_key",
    "harness.io.encode",
    "harness.io.decode",
    "harness.sweep",
    "harness.figures",
    "harness.executor",
    "store.get",
    "store.put",
    "serve.submit",
    "serve.executor",
)


def calibrate_dispatch(depth: int, events: int = 60000) -> Tuple[float, float]:
    """Per-event cost of the engine loop, bare and with the hook installed.

    Runs no-op callbacks from a heap kept near ``depth`` entries: once
    through the untraced fast path (what untraced runs pay per dispatch)
    and once with an :class:`EngineHook` on ``Simulator.trace``.
    Returns ``(bare_s, hooked_s)``, the better of three tries each.
    """
    from repro.sim.engine import Simulator

    def noop() -> None:
        return None

    batch = 2 * depth
    rounds = max(1, events // batch)
    template = [(float(i), i, noop) for i in range(batch)]
    heapq.heapify(template)

    def measure(hooked: bool) -> float:
        best = float("inf")
        for _ in range(3):
            recorder = SpanRecorder()
            recorder.enter("calibration")
            elapsed = 0.0
            for _ in range(rounds):
                sim = Simulator()
                sim._queue = list(template)
                if hooked:
                    sim.trace = EngineHook(recorder)
                start = time.perf_counter()
                sim.run()
                elapsed += time.perf_counter() - start
            recorder.exit()
            best = min(best, elapsed / (rounds * batch))
        return best

    return measure(False), measure(True)
