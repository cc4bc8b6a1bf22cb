"""Workload substrate: profiles, address mapping, closed-loop traffic."""

from repro.workloads.generator import ClosedLoopWorkload
from repro.workloads.mapping import (
    AddressMapping,
    contiguous_mapping,
    modules_for_footprint,
    page_interleaved_mapping,
)
from repro.workloads.profiles import (
    MIX_COMPOSITION,
    WORKLOAD_NAMES,
    WORKLOADS,
    WorkloadProfile,
    get_profile,
)
from repro.workloads.traces import (
    TraceError,
    TraceRecord,
    TraceRecorder,
    TraceReplayWorkload,
    load_trace,
    save_trace,
)

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
