"""Trace sinks: where structured events go.

Four backends behind one two-method protocol (``write(event)`` /
``close()``):

* :class:`ListSink` -- in-memory, for tests and programmatic analysis;
* :class:`JsonlTraceSink` -- one JSON object per line, the canonical
  interchange format (``repro.obs.analysis`` reads it back);
* :class:`CsvTraceSink` -- flat rows with the union of all field names
  as columns (buffered until close, since the schema is event-defined);
* :class:`ChromeTraceSink` -- Chrome trace-event JSON, loadable in
  ``chrome://tracing`` or https://ui.perfetto.dev: ``link.state``
  residency segments become duration slices on one track per link,
  everything else becomes instant events on its category track.

All file sinks take a path or an open file object; paths are opened
lazily and closed by ``close()``.
"""

from __future__ import annotations

import json
from typing import Dict, List, Tuple

__all__ = [
    "TraceSink",
    "ListSink",
    "JsonlTraceSink",
    "CsvTraceSink",
    "ChromeTraceSink",
    "TRACE_FORMATS",
    "make_sink",
]

#: Formats accepted by :func:`make_sink` and the CLI ``--trace-format``.
TRACE_FORMATS: Tuple[str, ...] = ("jsonl", "csv", "chrome")

#: Reserved keys, always the leading columns/fields.
_RESERVED = ("t", "cat", "ev")


class TraceSink:
    """Protocol: accepts event dicts, releases resources on close."""

    def write(self, event: Dict) -> None:
        """Record one event (a flat dict with ``t``/``cat``/``ev``)."""
        raise NotImplementedError

    def close(self) -> None:
        """Flush buffered events and release any file handle."""


class ListSink(TraceSink):
    """Collects events in a list -- the test/analysis backend."""

    def __init__(self) -> None:
        self.events: List[Dict] = []

    def write(self, event: Dict) -> None:
        """Append the event."""
        self.events.append(dict(event))


class _FileBacked(TraceSink):
    """Shared path-or-file-object handling for the file sinks."""

    def __init__(self, path_or_file) -> None:
        if hasattr(path_or_file, "write"):
            self._fh = path_or_file
            self._owns = False
        else:
            self._fh = open(path_or_file, "w", newline="")
            self._owns = True

    def close(self) -> None:
        """Close the file if this sink opened it."""
        if self._owns:
            self._fh.close()


class JsonlTraceSink(_FileBacked):
    """One compact JSON object per line, in emission order."""

    def write(self, event: Dict) -> None:
        """Serialize the event as one JSON line."""
        self._fh.write(json.dumps(event, separators=(",", ":")))
        self._fh.write("\n")


class CsvTraceSink(_FileBacked):
    """Flat CSV with the union of every event's fields as columns.

    Events carry heterogeneous fields, so rows are buffered and the
    header is computed at close: reserved columns first, then the
    remaining field names sorted.
    """

    def __init__(self, path_or_file) -> None:
        super().__init__(path_or_file)
        self._rows: List[Dict] = []

    def write(self, event: Dict) -> None:
        """Buffer the event for the close-time column computation."""
        self._rows.append(dict(event))

    def close(self) -> None:
        """Write header + all buffered rows, then close the file."""
        import csv

        extra = sorted(
            {k for row in self._rows for k in row} - set(_RESERVED)
        )
        writer = csv.DictWriter(self._fh, fieldnames=list(_RESERVED) + extra)
        writer.writeheader()
        writer.writerows(self._rows)
        super().close()


class ChromeTraceSink(_FileBacked):
    """Chrome trace-event ("catapult") JSON for chrome://tracing / Perfetto.

    Timestamps are converted from nanoseconds to the format's
    microseconds.  Track (``tid``) assignment: ``link.*`` events share a
    track per link name, others share a track per category; a metadata
    record names each track.
    """

    def __init__(self, path_or_file) -> None:
        super().__init__(path_or_file)
        self._events: List[Dict] = []
        self._tids: Dict[str, int] = {}

    def _tid(self, track: str) -> int:
        tid = self._tids.get(track)
        if tid is None:
            tid = len(self._tids)
            self._tids[track] = tid
        return tid

    def write(self, event: Dict) -> None:
        """Convert one event to a trace-event record and buffer it."""
        cat = event.get("cat", "")
        name = event.get("ev", "")
        track = event.get("link", cat) if cat == "link" else cat
        args = {
            k: v for k, v in event.items() if k not in ("t", "cat", "ev")
        }
        record = {
            "name": event.get("state", name) if name == "link.state" else name,
            "cat": cat,
            "ts": event.get("t", 0.0) / 1000.0,
            "pid": 0,
            "tid": self._tid(track),
            "args": args,
        }
        if "dur_ns" in event:
            record["ph"] = "X"
            record["dur"] = event["dur_ns"] / 1000.0
        else:
            record["ph"] = "i"
            record["s"] = "t"
        self._events.append(record)

    def close(self) -> None:
        """Emit thread-name metadata + all records as one JSON document."""
        meta = [
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 0,
                "tid": tid,
                "args": {"name": track},
            }
            for track, tid in self._tids.items()
        ]
        json.dump(
            {"traceEvents": meta + self._events, "displayTimeUnit": "ns"},
            self._fh,
            separators=(",", ":"),
        )
        super().close()


def make_sink(path, fmt: str = "jsonl") -> TraceSink:
    """Build the file sink for ``fmt`` (one of :data:`TRACE_FORMATS`)."""
    if fmt == "jsonl":
        return JsonlTraceSink(path)
    if fmt == "csv":
        return CsvTraceSink(path)
    if fmt == "chrome":
        return ChromeTraceSink(path)
    raise ValueError(f"unknown trace format {fmt!r}; choose from {TRACE_FORMATS}")
