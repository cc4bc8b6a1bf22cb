"""Memory-access traces: capture, persist, and replay.

The paper's methodology is trace-driven at heart: a full-system
simulation produces a memory access stream that the network/power model
consumes.  This module makes that interface explicit:

* :class:`TraceRecord` -- one access: time, address, read/write, stream;
* :func:`save_trace` / :func:`load_trace` -- a simple line-oriented
  on-disk format (optionally gzip-compressed by file extension);
* :class:`TraceRecorder` -- wraps a :class:`MemoryNetwork` and captures
  everything a workload injects, so any closed-loop run can be turned
  into a reusable trace;
* :class:`TraceReplayWorkload` -- open-loop replay of a trace against a
  network, with optional time scaling.

Replay is *open-loop*: accesses fire at their recorded times regardless
of latency, so it measures network/power behaviour under a fixed
arrival process (useful for apples-to-apples mechanism comparisons; use
the closed-loop generator when throughput feedback matters).
"""

from __future__ import annotations

import gzip
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Union

from repro.network.network import MemoryNetwork

__all__ = [
    "TraceRecord",
    "TraceError",
    "save_trace",
    "load_trace",
    "iter_trace",
    "TraceRecorder",
    "TraceReplayWorkload",
]

_HEADER = "# repro-mnet trace v1: time_ns address is_read stream"


class TraceError(ValueError):
    """Raised for malformed trace files."""


@dataclass(frozen=True)
class TraceRecord:
    """One memory access in a trace."""

    time_ns: float
    address: int
    is_read: bool
    stream: int = 0

    def to_line(self) -> str:
        """Serialize to the one-line trace format."""
        kind = "R" if self.is_read else "W"
        return f"{self.time_ns:.3f} {self.address:#x} {kind} {self.stream}"

    @classmethod
    def from_line(cls, line: str) -> "TraceRecord":
        """Parse one trace line."""
        parts = line.split()
        if len(parts) != 4:
            raise TraceError(f"malformed trace line: {line!r}")
        time_str, addr_str, kind, stream_str = parts
        if kind not in ("R", "W"):
            raise TraceError(f"bad access kind {kind!r} in line {line!r}")
        try:
            return cls(
                time_ns=float(time_str),
                address=int(addr_str, 0),
                is_read=kind == "R",
                stream=int(stream_str),
            )
        except ValueError as exc:
            raise TraceError(f"malformed trace line: {line!r}") from exc


def _open(path: str, mode: str):
    if str(path).endswith(".gz"):
        return gzip.open(path, mode + "t")
    return open(path, mode)


def save_trace(path: str, records: Iterable[TraceRecord]) -> int:
    """Write ``records`` to ``path`` (gzip if it ends in .gz).

    Returns the number of records written.
    """
    count = 0
    with _open(path, "w") as fh:
        fh.write(_HEADER + "\n")
        for record in records:
            fh.write(record.to_line() + "\n")
            count += 1
    return count


def iter_trace(path: str) -> Iterator[TraceRecord]:
    """Stream records from a trace file without loading it whole."""
    with _open(path, "r") as fh:
        first = fh.readline().rstrip("\n")
        if not first.startswith("# repro-mnet trace"):
            raise TraceError(f"{path}: missing trace header")
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            yield TraceRecord.from_line(line)


def load_trace(path: str) -> List[TraceRecord]:
    """Load a whole trace into memory."""
    return list(iter_trace(path))


class TraceRecorder:
    """Captures every access a workload injects into a network.

    Install before starting the workload::

        recorder = TraceRecorder(network)
        workload.start(); sim.run(until=...)
        save_trace("run.trace", recorder.records)
    """

    def __init__(self, network: MemoryNetwork) -> None:
        self.records: List[TraceRecord] = []
        self._orig_read = network.inject_read
        self._orig_write = network.inject_write
        network.inject_read = self._wrap(self._orig_read, True)
        network.inject_write = self._wrap(self._orig_write, False)
        self.network = network

    def _wrap(self, fn: Callable, is_read: bool) -> Callable:
        records = self.records

        def inject(address: int, now: float, stream: int = 0):
            records.append(TraceRecord(now, address, is_read, stream))
            return fn(address, now, stream=stream)

        return inject

    def detach(self) -> None:
        """Stop recording and restore the network's inject methods."""
        self.network.inject_read = self._orig_read
        self.network.inject_write = self._orig_write


class TraceReplayWorkload:
    """Open-loop replay of a trace against a memory network."""

    def __init__(
        self,
        network: MemoryNetwork,
        trace: Union[str, Sequence[TraceRecord]],
        time_scale: float = 1.0,
        stop_ns: Optional[float] = None,
    ) -> None:
        if time_scale <= 0:
            raise ValueError("time_scale must be positive")
        self.network = network
        self.sim = network.sim
        self.time_scale = time_scale
        self.stop_ns = stop_ns
        if isinstance(trace, str):
            self._records: Sequence[TraceRecord] = load_trace(trace)
        else:
            self._records = trace
        self.injected = 0

    def start(self) -> None:
        """Schedule every trace record at its (scaled) timestamp."""
        for record in self._records:
            when = record.time_ns * self.time_scale
            if self.stop_ns is not None and when >= self.stop_ns:
                continue
            self.sim.schedule_at(when, self._make_inject(record, when))

    def _make_inject(self, record: TraceRecord, when: float):
        def inject() -> None:
            if record.is_read:
                self.network.inject_read(record.address, when, stream=record.stream)
            else:
                self.network.inject_write(record.address, when, stream=record.stream)
            self.injected += 1

        return inject

    @property
    def completed_accesses(self) -> int:
        """Reads and writes finished so far."""
        return self.network.completed_reads + self.network.completed_writes

    def throughput_per_s(self, window_ns: float) -> float:
        """Completed accesses per second over ``window_ns``."""
        if window_ns <= 0:
            return 0.0
        return self.completed_accesses / (window_ns * 1e-9)
