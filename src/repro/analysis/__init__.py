"""Analytical models: queueing theory and closed-form power predictions."""

from repro._lazy import lazy_exports

__all__ = [
    "md1_wait_ns",
    "md1_latency_ns",
    "link_service_time_ns",
    "link_utilization",
    "LinkLoadModel",
    "predict_full_power_breakdown",
    "predict_idle_io_fraction",
]

#: Each public name's defining module, imported on first use.
_EXPORTS = {
    "md1_wait_ns": "repro.analysis.queueing",
    "md1_latency_ns": "repro.analysis.queueing",
    "link_service_time_ns": "repro.analysis.queueing",
    "link_utilization": "repro.analysis.queueing",
    "LinkLoadModel": "repro.analysis.queueing",
    "predict_full_power_breakdown": "repro.analysis.power_model",
    "predict_idle_io_fraction": "repro.analysis.power_model",
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
