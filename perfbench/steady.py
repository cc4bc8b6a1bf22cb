"""Steadiness command: run a workload N times and summarize each metric.

Usage (from the root of a checkout)::

    python3 perfbench/steady.py --workload cold_sweep --runs 10
    python3 perfbench/steady.py --workload serve_mixed --runs 10 \\
        --compare ../parent-checkout

Run ``i`` uses seed ``--seed-base + i``.  For every metric the table
gives the median, the quartiles (``statistics.quantiles(n=4)``), the
interquartile range as a share of the median, and the min-max range as
a share of the median.  With ``--compare DIR`` the same seeds also run
in the other checkout, alternating which checkout runs first, and the
table adds the other side and the ratio of medians.  The bounds in
``BENCHMARK.json`` were set from this command's output.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.common import ROOT, load_spec, spread  # noqa: E402


def run_once(checkout: Path, workload: str, seed: int,
             seconds: Optional[float]) -> Dict:
    """One untraced benchmark run in ``checkout``; the parsed result line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--trace", "0"]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=str(checkout), capture_output=True, text=True,
                          timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _row(values: List[float]) -> str:
    s = spread(values)
    return (f"{s['median']:12.6g} {s['q1']:12.6g} {s['q3']:12.6g} "
            f"{s['iqr_share']:8.4f} {s['min']:12.6g} {s['max']:12.6g} "
            f"{s['range_share']:8.4f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--compare", type=Path, default=None,
                        help="another checkout to run alternately with this one")
    args = parser.parse_args(argv)

    sides = {"this": ROOT}
    if args.compare is not None:
        sides["other"] = args.compare.resolve()
    results: Dict[str, List[Dict]] = {name: [] for name in sides}
    for index in range(args.runs):
        seed = args.seed_base + index
        order = list(sides) if index % 2 == 0 else list(reversed(list(sides)))
        for name in order:
            result = run_once(sides[name], args.workload, seed, args.seconds)
            results[name].append(result)
            print(f"# run {index + 1}/{args.runs} seed={seed} {name}: "
                  f"correct={result['correct']} failed={result['failed']}/"
                  f"{result['attempted']}", flush=True)

    spec = load_spec()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    names = list(results["this"][0]["metrics"])
    print(f"# {args.workload}: {args.runs} runs, seeds {args.seed_base}.."
          f"{args.seed_base + args.runs - 1}")
    print(f"# {'metric':28s} {'side':5s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'iqr/med':>8s} {'min':>12s} {'max':>12s} {'rng/med':>8s} bound")
    for name in names:
        medians = {}
        for side, runs in results.items():
            values = [r["metrics"][name]["value"] for r in runs]
            medians[side] = spread(values)["median"]
            bound = bounds.get(name)
            print(f"  {name:28s} {side:5s} {_row(values)} "
                  f"{'' if bound is None else bound}")
        if "other" in medians and medians["other"]:
            print(f"  {name:28s} ratio this/other medians: "
                  f"{medians['this'] / medians['other']:.4f}")
    failed = sum(r["failed"] for runs in results.values() for r in runs)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
