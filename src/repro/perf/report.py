"""``BENCH_*.json`` report format and baseline regression comparison.

Reports are schema-versioned so a future layout change cannot be
silently compared against an old baseline.  Cross-machine comparisons
are made meaningful by the ``calibration`` scenario: a fixed amount of
pure-Python work whose wall time measures the host's single-thread
speed.  When both reports carry it, every benchmark additionally gets a
normalized score ``best_s / calibration_best_s`` (dimensionless
"calibration units"), so a committed CI baseline recorded on one
machine can still gate a run on a faster or slower runner.

The gate is deliberately two-sided: a benchmark only *fails* when it is
more than the threshold slower in **both** raw wall time and
calibration-normalized terms.  A genuinely regressed code path shows up
in both metrics; a slower host inflates only the raw number, and a
noisy calibration measurement inflates only the normalized one, so
requiring agreement filters out the two dominant sources of false
alarms.  (The price is leniency when the baseline machine was much
slower than the current one -- acceptable for a CI smoke gate.)
Without calibration in both reports, raw wall time alone decides.
"""

from __future__ import annotations

import json
import os
import platform
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.perf.harness import BenchResult

__all__ = [
    "BENCH_SCHEMA",
    "CALIBRATION_BENCH",
    "machine_info",
    "make_report",
    "write_report",
    "load_report",
    "Comparison",
    "compare_reports",
    "compare_outcome",
    "format_comparison",
    "ReportError",
]

#: Schema identifier; bump on any backwards-incompatible layout change.
BENCH_SCHEMA: str = "repro-mnet-bench/v1"

#: Name of the machine-speed yardstick scenario (never gated itself).
CALIBRATION_BENCH: str = "calibration"


class ReportError(ValueError):
    """A BENCH report file is malformed or from another schema."""


def machine_info() -> Dict[str, object]:
    """Host details recorded alongside the numbers."""
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count() or 1,
    }


def make_report(results: List[BenchResult], quick: bool) -> Dict:
    """Assemble the JSON-safe report payload."""
    return {
        "schema": BENCH_SCHEMA,
        "created_unix": time.time(),
        "quick": quick,
        "machine": machine_info(),
        "benches": {r.name: r.to_dict() for r in results},
    }


def write_report(path: str, report: Dict) -> None:
    """Write a report as pretty-printed JSON."""
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_report(path: str) -> Dict:
    """Read and schema-check a report written by :func:`write_report`."""
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or data.get("schema") != BENCH_SCHEMA:
        raise ReportError(
            f"{path}: not a {BENCH_SCHEMA} report "
            f"(schema={data.get('schema') if isinstance(data, dict) else None!r})"
        )
    if not isinstance(data.get("benches"), dict):
        raise ReportError(f"{path}: missing 'benches' mapping")
    return data


@dataclass(frozen=True)
class Comparison:
    """One benchmark's current-vs-baseline outcome."""

    name: str
    baseline_s: float
    current_s: float
    #: Percent change in raw wall time; positive means *slower*.
    raw_pct: float
    #: Percent change in calibration-normalized score, or ``None`` when
    #: either report lacks the calibration benchmark.
    norm_pct: Optional[float]
    regressed: bool


def _pct(cur: float, base: float) -> float:
    return (cur - base) / base * 100.0 if base > 0 else 0.0


def compare_reports(
    current: Dict, baseline: Dict, max_regress_pct: float
) -> List[Comparison]:
    """Compare two reports; only benchmarks present in both are gated.

    A benchmark regresses when it is more than ``max_regress_pct``
    percent slower in raw wall time *and* (when calibration data exists
    in both reports) in calibration-normalized score -- see the module
    docstring for why both must agree.  Improvements never fail the
    gate.  The calibration benchmark itself is never gated.
    """
    cur_benches = current["benches"]
    base_benches = baseline["benches"]
    cur_calib = float(cur_benches.get(CALIBRATION_BENCH, {}).get("best_s", 0.0))
    base_calib = float(base_benches.get(CALIBRATION_BENCH, {}).get("best_s", 0.0))
    normalized = cur_calib > 0 and base_calib > 0
    out: List[Comparison] = []
    for name in sorted(set(cur_benches) & set(base_benches)):
        if name == CALIBRATION_BENCH:
            continue
        base = float(base_benches[name]["best_s"])
        cur = float(cur_benches[name]["best_s"])
        raw_pct = _pct(cur, base)
        norm_pct = (
            _pct(cur / cur_calib, base / base_calib) if normalized else None
        )
        regressed = raw_pct > max_regress_pct and (
            norm_pct is None or norm_pct > max_regress_pct
        )
        out.append(
            Comparison(
                name=name,
                baseline_s=base,
                current_s=cur,
                raw_pct=raw_pct,
                norm_pct=norm_pct,
                regressed=regressed,
            )
        )
    return out


def format_comparison(
    comparisons: List[Comparison], max_regress_pct: float
) -> str:
    """Human-readable gate table (one line per benchmark)."""
    if not comparisons:
        return "no overlapping benchmarks to compare"
    lines = [
        f"regression gate: max +{max_regress_pct:g}% "
        "(must exceed in both raw and calibration-normalized terms)"
    ]
    width = max(len(c.name) for c in comparisons)
    for c in comparisons:
        mark = "REGRESSED" if c.regressed else "ok"
        norm = f"{c.norm_pct:+.1f}%" if c.norm_pct is not None else "n/a"
        lines.append(
            f"  {c.name:<{width}}  base {c.baseline_s * 1000:.2f} ms  "
            f"now {c.current_s * 1000:.2f} ms  raw {c.raw_pct:+.1f}%  "
            f"norm {norm}  {mark}"
        )
    return "\n".join(lines)


def compare_outcome(comparisons: List[Comparison]) -> bool:
    """Whether any benchmark regressed."""
    return any(c.regressed for c in comparisons)
