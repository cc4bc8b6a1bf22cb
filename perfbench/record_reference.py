"""Record the reference result digests the benchmark checks outputs against.

Simulates, with ``run_experiment`` directly (not through the sweep,
store or server paths the benchmark measures), every unique config of
the cold grids (one per traffic seed of the run) and every cold serve
config for the default and the held-out seed, and writes their payload
digests (host time left out) to ``perfbench/reference.json``::

    python3 perfbench/record_reference.py

Run it only on a commit whose simulated results are meant to be the
reference; a later commit that changes a digest fails the benchmark.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.common import load_spec, payload_digest, require_source  # noqa: E402
from perfbench.settings import DEFAULT_SEED, HELD_OUT_SEED  # noqa: E402


def main() -> int:
    require_source()
    from repro.harness.experiment import run_experiment
    from repro.harness.io import result_to_cache_dict

    from perfbench.grids import cold_grid, cold_seeds, warm_results
    from perfbench.serve_mixed import build_schedule

    seconds = load_spec()["run_seconds"]
    out = {}
    for seed in (DEFAULT_SEED, HELD_OUT_SEED):
        unique = {c.cache_key(): c for traffic_seed in cold_seeds(seed)
                  for c in cold_grid(traffic_seed)[0]}
        _schedule, cold = build_schedule(seed, warm_results(seed)[2], seconds)
        for workload, configs in (("cold_sweep", unique), ("serve_mixed", cold)):
            out[f"{workload}:{seed}"] = {
                key: payload_digest(result_to_cache_dict(run_experiment(config)))
                for key, config in sorted(configs.items())
            }
            print(f"{workload}:{seed}: {len(configs)} digests", flush=True)
    path = Path(__file__).resolve().parent / "reference.json"
    path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
