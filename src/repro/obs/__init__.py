"""Structured simulation tracing and metrics (the observability layer).

Everything the simulator *does* -- link power-state transitions, ISP
budget flow, DRAM bank activity, raw event dispatch -- can be captured
as a stream of structured trace events and/or aggregated into per-epoch
metrics, with **zero overhead when disabled**: every hot-path hook is a
single ``is not None`` check against an attribute that defaults to
``None``.

Three pieces:

* :class:`~repro.obs.trace.Tracer` -- category-filtered event emitter;
  hot paths hold a reference only when their category is enabled.
* :mod:`~repro.obs.sinks` -- pluggable :class:`TraceSink` backends:
  JSONL (one event per line), CSV, and Chrome trace-event JSON loadable
  in ``chrome://tracing`` / Perfetto, plus an in-memory list sink.
* :class:`~repro.obs.metrics.MetricsRegistry` -- named counters, gauges
  and histograms with per-epoch snapshots.

See ``docs/observability.md`` for the full event-schema reference and a
worked example.
"""

from repro._lazy import lazy_exports

__all__ = [
    "ALL_CATEGORIES",
    "DEFAULT_CATEGORIES",
    "Tracer",
    "install_tracer",
    "parse_categories",
    "TraceSink",
    "ListSink",
    "JsonlTraceSink",
    "CsvTraceSink",
    "ChromeTraceSink",
    "TRACE_FORMATS",
    "make_sink",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "EpochLinkMetrics",
    "read_jsonl",
    "event_counts",
    "link_state_residency",
    "format_trace_summary",
]

#: Each public name's defining module, imported on first use.
_EXPORTS = {
    "ALL_CATEGORIES": "repro.obs.trace",
    "DEFAULT_CATEGORIES": "repro.obs.trace",
    "Tracer": "repro.obs.trace",
    "install_tracer": "repro.obs.trace",
    "parse_categories": "repro.obs.trace",
    "TraceSink": "repro.obs.sinks",
    "ListSink": "repro.obs.sinks",
    "JsonlTraceSink": "repro.obs.sinks",
    "CsvTraceSink": "repro.obs.sinks",
    "ChromeTraceSink": "repro.obs.sinks",
    "TRACE_FORMATS": "repro.obs.sinks",
    "make_sink": "repro.obs.sinks",
    "Counter": "repro.obs.metrics",
    "Gauge": "repro.obs.metrics",
    "Histogram": "repro.obs.metrics",
    "MetricsRegistry": "repro.obs.metrics",
    "EpochLinkMetrics": "repro.obs.metrics",
    "read_jsonl": "repro.obs.analysis",
    "event_counts": "repro.obs.analysis",
    "link_state_residency": "repro.obs.analysis",
    "format_trace_summary": "repro.obs.analysis",
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
