"""Shared helpers: percentiles, digests, memory, result line, metric table."""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Root of the checkout (the directory holding ``perfbench/``).
ROOT = Path(__file__).resolve().parent.parent
#: The program under test; the benchmark imports it from source.
SRC = ROOT / "src"
#: Where traced runs write their span files (listed in .gitignore).
OUT_DIR = ROOT / ".perfbench_out"
#: Scratch space for stores and server copies (listed in .gitignore).
WORK_DIR = ROOT / ".perfbench_work"

#: Metric and workload names ``BENCHMARK.json`` allows.
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def require_source() -> None:
    """Exit with status 2 (printing no result) when ``src/repro`` is absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no program source under {SRC}; run from a full checkout",
            file=sys.stderr,
        )
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def valid_name(name: str) -> bool:
    """Whether ``name`` is a legal metric or workload name."""
    return NAME_RE.fullmatch(name) is not None


def samples_beyond(count: int, q: float) -> int:
    """Samples strictly above the nearest-rank ``q`` percentile of ``count``.

    A tail percentile is meaningful with at least 10 samples beyond it,
    so a p95 needs 200 samples; the tables print this count next to each
    reported p95.
    """
    return count - math.ceil(q * count)


def percentile(values: Iterable[float], q: float) -> float:
    """Nearest-rank ``q`` percentile (0 < q <= 1) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def spread(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles, min, max and the IQR as a share of the median."""
    ordered = sorted(values)
    med = statistics.median(ordered)
    if len(ordered) >= 2:
        q1, _q2, q3 = statistics.quantiles(ordered, n=4)
    else:
        q1 = q3 = ordered[0]
    return {
        "n": len(ordered),
        "median": med,
        "q1": q1,
        "q3": q3,
        "min": ordered[0],
        "max": ordered[-1],
        "iqr_share": (q3 - q1) / med if med else 0.0,
        "range_share": (ordered[-1] - ordered[0]) / med if med else 0.0,
    }


def payload_digest(cache_dict: Dict) -> str:
    """Digest of a result cache-dict with the host-time field removed."""
    data = {k: v for k, v in cache_dict.items() if k != "wall_time_s"}
    blob = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:20]


def peak_rss_mb_self() -> float:
    """Peak resident set of this process, in MB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_rss_mb_pid(pid: int) -> Optional[float]:
    """Peak resident set (``VmHWM``) of another live process, in MB."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        return None
    return None


def load_spec() -> Dict:
    """The checkout's ``BENCHMARK.json``."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


class Report:
    """Metrics of one run: the table on stdout and the final JSON line.

    Units of the metrics ``BENCHMARK.json`` declares come from there;
    table-only metrics name their unit when added.
    """

    def __init__(self, units: Optional[Dict[str, str]] = None) -> None:
        self.units = dict(units or {})
        self.metrics: Dict[str, Tuple[float, str, int]] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def add(self, name: str, value: float, unit: Optional[str] = None,
            samples: int = 1) -> None:
        """Record one metric with the number of samples behind it."""
        if not valid_name(name):
            raise ValueError(f"bad metric name {name!r}")
        if unit is None:
            unit = self.units[name]
        self.metrics[name] = (float(value), unit, int(samples))

    def add_all(self, metrics: Dict[str, float]) -> None:
        """Record single-sample metrics; units of undeclared ones follow
        their suffix (``_us``, ``_s``, else a count)."""
        for name, value in metrics.items():
            unit = self.units.get(name)
            if unit is None:
                unit = "us" if name.endswith("_us") else "s" if name.endswith("_s") else "count"
            self.add(name, value, unit)

    def count(self, attempted: int, failed: int = 0) -> None:
        """Add operations attempted and failed."""
        self.attempted += attempted
        self.failed += failed

    def fail(self, message: str, operations: int = 1) -> None:
        """Count ``operations`` failures and remember why."""
        self.failed += operations
        if len(self.problems) < 20:
            self.problems.append(message)

    @property
    def failed_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0

    def print_table(self, title: str, extra: Optional[Dict] = None) -> None:
        """Human-readable metric table (every recorded metric)."""
        print(f"# {title}")
        print(f"# {'metric':34s} {'value':>14s} {'unit':8s} samples")
        for name in sorted(self.metrics):
            value, unit, samples = self.metrics[name]
            print(f"  {name:34s} {value:14.6g} {unit:8s} {samples}")
        print(f"  {'attempted':34s} {self.attempted:14d}")
        print(f"  {'failed':34s} {self.failed:14d}")
        print(f"  {'failed_ratio':34s} {self.failed_ratio:14.6g}")
        for problem in self.problems:
            print(f"# FAILED: {problem}")
        if extra:
            for key, value in extra.items():
                print(f"# {key}: {value}")

    def result_line(self, names: Sequence[str]) -> str:
        """The run's final JSON result line, holding exactly ``names``."""
        missing = [n for n in names if n not in self.metrics]
        if missing:
            raise KeyError(f"metrics not measured: {missing}")
        return json.dumps(
            {
                "correct": self.failed == 0 and self.attempted > 0,
                "attempted": max(1, self.attempted),
                "failed": self.failed,
                "metrics": {
                    n: {"value": self.metrics[n][0], "unit": self.metrics[n][1]}
                    for n in names
                },
            }
        )


def fresh_dir(name: str) -> Path:
    """An empty scratch directory under ``WORK_DIR``."""
    path = WORK_DIR / name
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    return path


def env_with_source() -> Dict[str, str]:
    """Environment for child interpreters importing the program from source."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env.pop("REPRO_BENCH_FULL", None)
    return env


def time_import(modules: Sequence[str]) -> float:
    """Seconds for a fresh interpreter to start and import ``modules``."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import " + ", ".join(modules)],
        cwd=str(ROOT),
        env=env_with_source(),
        check=True,
        timeout=60,
    )
    return time.perf_counter() - start


def load_reference() -> Dict[str, Dict[str, str]]:
    """Recorded result digests: ``{"<workload>:<seed>": {key: digest}}``."""
    path = Path(__file__).resolve().parent / "reference.json"
    if not path.is_file():
        return {}
    return json.loads(path.read_text())


#: Relative tolerance of figure-row comparisons: a few units in the last
#: place, enough for a reduction summed in another order, far below any
#: real error.
ROW_REL_TOL = 1e-12


def rows_match(a, b, rel: float = ROW_REL_TOL) -> bool:
    """Structural equality with floats compared to ``rel`` relative error."""
    if isinstance(a, float) and isinstance(b, float):
        return a == b or abs(a - b) <= rel * max(abs(a), abs(b))
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return type(a) is type(b) and len(a) == len(b) and all(
            rows_match(x, y, rel) for x, y in zip(a, b)
        )
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(rows_match(a[k], b[k], rel) for k in a)
    return a == b
