"""Serialization: configs and results to/from JSON and CSV.

Batch studies want three things: declare a grid of experiments in a
file, run them reproducibly, and get machine-readable results out.

* :func:`config_to_dict` / :func:`config_from_dict` -- lossless
  round-trip of :class:`ExperimentConfig`;
* :func:`result_to_dict` -- flatten an :class:`ExperimentResult` (power
  buckets inlined) for JSON/CSV;
* :func:`result_to_cache_dict` / :func:`result_from_cache_dict` --
  lossless round-trip of a full :class:`ExperimentResult` (used by the
  persistent disk cache);
* :func:`save_results_json` / :func:`save_results_csv` -- persist a
  result list;
* :func:`load_batch` -- read a batch spec: either a JSON list of config
  objects or ``{"base": {...}, "grid": {axis: [values...]}}`` which
  expands to the cartesian product.
"""

from __future__ import annotations

import csv
import json
from typing import Dict, Iterable, List, Sequence

from repro.harness.experiment import ExperimentConfig, ExperimentResult
from repro.power.accounting import PowerBreakdown

__all__ = [
    "config_to_dict",
    "config_from_dict",
    "result_to_dict",
    "result_to_cache_dict",
    "result_from_cache_dict",
    "save_results_json",
    "save_results_csv",
    "load_batch",
    "RESULT_FIELDS",
]

#: ExperimentConfig's fields in declaration order (``config_to_dict``'s
#: key order), and the same names as a set for ``config_from_dict``.
_CONFIG_FIELDS: Sequence[str] = tuple(ExperimentConfig.__dataclass_fields__)
_CONFIG_FIELD_SET = frozenset(_CONFIG_FIELDS)

#: Flat result columns, in CSV order.
RESULT_FIELDS: Sequence[str] = (
    "workload", "topology", "scale", "mechanism", "mechanism_overrides",
    "policy", "alpha",
    "seed", "fault_spec", "num_modules",
    "power_per_hmc_w", "network_power_w",
    "idle_io_w", "active_io_w", "logic_leak_w", "logic_dyn_w",
    "dram_leak_w", "dram_dyn_w",
    "idle_io_fraction", "io_fraction",
    "throughput_per_s", "avg_read_latency_ns", "max_read_latency_ns",
    "channel_utilization", "link_utilization", "avg_modules_traversed",
    "completed_reads", "completed_writes", "epochs", "violations",
    "events_processed",
    "link_retries", "retry_flits", "retry_time_ns",
    "vault_stalls", "fault_events",
)


def config_to_dict(config: ExperimentConfig) -> Dict:
    """ExperimentConfig -> plain dict (JSON-safe).

    The empty ``mechanism_overrides`` spec and the empty ``audit`` mode
    are omitted so serialized plain configs are byte-identical to those
    written before each field existed (pinned goldens, disk-cache
    payloads).
    """
    out = {name: getattr(config, name) for name in _CONFIG_FIELDS}
    if not out["mechanism_overrides"]:
        del out["mechanism_overrides"]
    if not out["audit"]:
        del out["audit"]
    return out


def config_from_dict(data: Dict) -> ExperimentConfig:
    """Plain dict -> ExperimentConfig (unknown keys rejected)."""
    unknown = set(data) - _CONFIG_FIELD_SET
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return ExperimentConfig(**data)


def result_to_dict(result: ExperimentResult) -> Dict:
    """Flatten a result into the RESULT_FIELDS columns."""
    cfg = result.config
    watts = result.breakdown.watts
    return {
        "workload": cfg.workload,
        "topology": cfg.topology,
        "scale": cfg.scale,
        "mechanism": cfg.mechanism,
        "mechanism_overrides": cfg.mechanism_overrides,
        "policy": cfg.policy,
        "alpha": cfg.alpha,
        "seed": cfg.seed,
        "fault_spec": cfg.fault_spec,
        "num_modules": result.num_modules,
        "power_per_hmc_w": result.power_per_hmc_w,
        "network_power_w": result.network_power_w,
        "idle_io_w": watts["idle_io"],
        "active_io_w": watts["active_io"],
        "logic_leak_w": watts["logic_leak"],
        "logic_dyn_w": watts["logic_dyn"],
        "dram_leak_w": watts["dram_leak"],
        "dram_dyn_w": watts["dram_dyn"],
        "idle_io_fraction": result.idle_io_fraction,
        "io_fraction": result.breakdown.io_fraction,
        "throughput_per_s": result.throughput_per_s,
        "avg_read_latency_ns": result.avg_read_latency_ns,
        "max_read_latency_ns": result.max_read_latency_ns,
        "channel_utilization": result.channel_utilization,
        "link_utilization": result.link_utilization,
        "avg_modules_traversed": result.avg_modules_traversed,
        "completed_reads": result.completed_reads,
        "completed_writes": result.completed_writes,
        "epochs": result.epochs,
        "violations": result.violations,
        "events_processed": result.events_processed,
        "link_retries": result.link_retries,
        "retry_flits": result.retry_flits,
        "retry_time_ns": result.retry_time_ns,
        "vault_stalls": result.vault_stalls,
        "fault_events": result.fault_events,
    }


#: Scalar ExperimentResult fields copied verbatim by the cache round-trip.
_CACHE_SCALARS: Sequence[str] = (
    "num_modules",
    "throughput_per_s",
    "avg_read_latency_ns",
    "max_read_latency_ns",
    "channel_utilization",
    "link_utilization",
    "avg_modules_traversed",
    "completed_reads",
    "completed_writes",
    "violations",
    "epochs",
    "trace_events",
    "link_retries",
    "retry_flits",
    "retry_time_ns",
    "vault_stalls",
    "fault_events",
    "events_processed",
    "wall_time_s",
)


#: Key order of a simulated result's ``breakdown.watts``.
_WATTS_ORDER: Sequence[str] = tuple(PowerBreakdown.categories())


def result_to_cache_dict(result: ExperimentResult) -> Dict:
    """Full, lossless ExperimentResult -> plain dict (JSON-safe).

    Unlike :func:`result_to_dict` (a flat row for CSV/analysis), this
    keeps everything needed to reconstruct the object: the complete
    config, the power-bucket dict, and link-hours (tuple keys encoded
    as ``[label, width, hours]`` triples).
    """
    out = {
        "config": config_to_dict(result.config),
        "watts": dict(result.breakdown.watts),
        "link_hours": (
            None
            if result.link_hours is None
            else [[label, width, hours]
                  for (label, width), hours in sorted(result.link_hours.items())]
        ),
    }
    for name in _CACHE_SCALARS:
        out[name] = getattr(result, name)
    return out


def result_from_cache_dict(data: Dict) -> ExperimentResult:
    """Inverse of :func:`result_to_cache_dict`.

    ``watts`` is rebuilt in :meth:`PowerBreakdown.categories` order (any
    other keys after them), the order a simulation fills it in, so
    ``total_w`` sums the same floats in the same order whichever order
    the store handed them back in.
    """
    link_hours = None
    if data.get("link_hours") is not None:
        link_hours = {
            (label, int(width)): hours for label, width, hours in data["link_hours"]
        }
    stored = data["watts"]
    watts = {name: stored[name] for name in _WATTS_ORDER if name in stored}
    watts.update(stored)
    return ExperimentResult(
        config=config_from_dict(data["config"]),
        breakdown=PowerBreakdown(watts=watts),
        link_hours=link_hours,
        **{name: data[name] for name in _CACHE_SCALARS},
    )


def save_results_json(path: str, results: Iterable[ExperimentResult]) -> int:
    """Write results (with their configs) as a JSON list; returns count."""
    payload = [
        {"config": config_to_dict(r.config), "metrics": result_to_dict(r)}
        for r in results
    ]
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
    return len(payload)


def save_results_csv(path: str, results: Iterable[ExperimentResult]) -> int:
    """Write flat result rows as CSV; returns the row count."""
    rows = [result_to_dict(r) for r in results]
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(RESULT_FIELDS))
        writer.writeheader()
        writer.writerows(rows)
    return len(rows)


def load_batch(path: str) -> List[ExperimentConfig]:
    """Read a batch spec file into a config list.

    Accepted shapes::

        [ {config...}, {config...} ]                 # explicit list
        { "base": {config...}, "grid": {             # cartesian grid
            "workload": ["lu.D", "sp.D"],
            "mechanism": ["VWL", "ROO"],
            "alpha": [0.025, 0.05] } }
    """
    from repro.harness.sweep import grid_configs

    with open(path) as fh:
        spec = json.load(fh)
    if isinstance(spec, list):
        return [config_from_dict(d) for d in spec]
    if not isinstance(spec, dict) or "base" not in spec:
        raise ValueError("batch spec must be a list or {'base':..., 'grid':...}")
    base = config_from_dict(spec["base"])
    grid = spec.get("grid", {})
    allowed_axes = {"workload", "topology", "scale", "mechanism", "policy", "alpha"}
    unknown = set(grid) - allowed_axes
    if unknown:
        raise ValueError(f"unsupported grid axes: {sorted(unknown)}")
    return grid_configs(
        base,
        workloads=grid.get("workload", ()),
        topologies=grid.get("topology", ()),
        scales=grid.get("scale", ()),
        mechanisms=grid.get("mechanism", ()),
        policies=grid.get("policy", ()),
        alphas=grid.get("alpha", ()),
    )
