"""Workload substrate: profiles, address mapping, closed-loop traffic."""

from repro._lazy import lazy_exports

__all__ = [
    "ClosedLoopWorkload",
    "AddressMapping",
    "contiguous_mapping",
    "page_interleaved_mapping",
    "modules_for_footprint",
    "WorkloadProfile",
    "WORKLOADS",
    "WORKLOAD_NAMES",
    "MIX_COMPOSITION",
    "get_profile",
    "TraceRecord",
    "TraceError",
    "TraceRecorder",
    "TraceReplayWorkload",
    "save_trace",
    "load_trace",
]

#: Each public name's defining module, imported on first use.
_EXPORTS = {
    "ClosedLoopWorkload": "repro.workloads.generator",
    "AddressMapping": "repro.workloads.mapping",
    "contiguous_mapping": "repro.workloads.mapping",
    "page_interleaved_mapping": "repro.workloads.mapping",
    "modules_for_footprint": "repro.workloads.mapping",
    "WorkloadProfile": "repro.workloads.profiles",
    "WORKLOADS": "repro.workloads.profiles",
    "WORKLOAD_NAMES": "repro.workloads.profiles",
    "MIX_COMPOSITION": "repro.workloads.profiles",
    "get_profile": "repro.workloads.profiles",
    "TraceRecord": "repro.workloads.traces",
    "TraceError": "repro.workloads.traces",
    "TraceRecorder": "repro.workloads.traces",
    "TraceReplayWorkload": "repro.workloads.traces",
    "save_trace": "repro.workloads.traces",
    "load_trace": "repro.workloads.traces",
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
