"""Performance subsystem: microbenchmarks, reports, and regression gates.

The package has three layers:

* :mod:`repro.perf.harness` -- a ``timeit``-style best-of-N harness
  with warmup, fixed seeds, and built-in determinism checking (every
  repeat must reproduce the same work fingerprint);
* :mod:`repro.perf.scenarios` -- the named benchmark registry spanning
  the simulation engine, link state machine, network/router hop path,
  DRAM vault timing, workload generation, and the end-to-end fig5/fig9
  pipelines;
* :mod:`repro.perf.report` -- the schema-versioned ``BENCH_*.json``
  format plus baseline comparison for the CI regression gate.

Run it with ``repro-mnet bench`` (see docs/benchmarking.md).
"""

from repro.perf.harness import (
    BenchmarkError,
    BenchResult,
    BenchSpec,
    all_benchmarks,
    register,
    run_benchmarks,
)
from repro.perf.report import (
    BENCH_SCHEMA,
    CALIBRATION_BENCH,
    Comparison,
    ReportError,
    compare_outcome,
    compare_reports,
    format_comparison,
    load_report,
    make_report,
    write_report,
)

# Importing the scenarios module populates the registry.
import repro.perf.scenarios  # noqa: F401,E402  (import-for-side-effect)

__all__ = [
    "BenchmarkError",
    "BenchResult",
    "BenchSpec",
    "all_benchmarks",
    "register",
    "run_benchmarks",
    "BENCH_SCHEMA",
    "CALIBRATION_BENCH",
    "Comparison",
    "ReportError",
    "compare_outcome",
    "compare_reports",
    "format_comparison",
    "load_report",
    "make_report",
    "write_report",
]
