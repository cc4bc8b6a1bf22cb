"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload cold_sweep --seed 1 --seconds 16 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs the workload once untraced and once with the
benchmark's span wrappers installed and reports the per-layer metrics.
A table of every metric (with units and sample counts) goes to stdout,
followed by one JSON line with the metrics the mode declares.
"""

from __future__ import annotations

import argparse
import importlib
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.common import Report, load_spec, require_source  # noqa: E402
from perfbench.settings import DEFAULT_SEED  # noqa: E402

WORKLOADS = ("cold_sweep", "warm_replay", "serve_mixed")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measurement time (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so every server a workload
    # started is stopped and waited for on the way out.
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(143))

    require_source()
    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    report = Report(
        {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    )
    if args.trace:
        for metric in declared:
            report.add(metric["name"], 0.0)
    module = importlib.import_module(f"perfbench.{args.workload}")
    module.run(args.seed, seconds, bool(args.trace), report)
    report.print_table(
        f"{args.workload} seed={args.seed} seconds={seconds:g} trace={args.trace}"
    )
    print(report.result_line([m["name"] for m in declared]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
