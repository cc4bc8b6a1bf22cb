# Developer entry points mirroring the CI jobs (.github/workflows/ci.yml).
#
# `lint` requires ruff and mypy (installed with `pip install -e .[dev]`);
# `bench-gate` is the same command the CI perf job runs.

PYTHON ?= python
LINT_PATHS = src/repro/sim src/repro/network src/repro/perf
# Typed surface is wider than the ruff-formatted one: core (policies,
# mechanisms, overrides) and harness (builder, experiment, caches) are
# mypy-checked too.
MYPY_PATHS = src/repro/sim src/repro/network src/repro/core src/repro/harness src/repro/perf

.PHONY: test lint bench bench-quick bench-gate bench-check baseline serve-smoke selfheal-smoke store-migrate-smoke import-profile

test:
	$(PYTHON) -m pytest -x -q

# The CI serve job: end-to-end smoke of `repro-mnet serve` (dedup,
# tiering, backpressure, SIGTERM drain); see docs/serving.md.
serve-smoke:
	$(PYTHON) scripts/serve_smoke.py

# The CI serve job's store step: seed a JSON cache with real runs,
# `repro-mnet store migrate` it into results.sqlite, and prove repeat
# runs are served byte-identically from the migrated store.
store-migrate-smoke:
	$(PYTHON) scripts/store_migrate_smoke.py

# The CI serve job's chaos step: SIGKILL a worker process mid-batch,
# saturate the queue under --degrade analytical, trip a circuit
# breaker; see docs/resilience.md.
selfheal-smoke:
	$(PYTHON) scripts/selfheal_smoke.py

lint:
	ruff check $(LINT_PATHS)
	ruff format --check $(LINT_PATHS)
	mypy $(MYPY_PATHS)

bench:
	$(PYTHON) -m repro.cli bench

bench-quick:
	$(PYTHON) -m repro.cli bench --quick

bench-gate:
	$(PYTHON) -m repro.cli bench --quick --baseline benchmarks/baseline_ci.json --max-regress 25

# The CI bench-check job: run the tests of the benchmark's own logic,
# then each workload of the repository benchmark (perfbench/,
# BENCHMARK.json) for 10 s with tracing on, echo its output, and fail
# unless its final JSON line reads "correct": true.
BENCH_WORKLOADS = cold_sweep warm_replay serve_mixed
BENCH_CORRECT = import json, sys; lines = sys.stdin.read().splitlines(); print(*lines, sep="\n"); sys.exit(not lines or json.loads(lines[-1]).get("correct") is not True)

bench-check:
	$(PYTHON) -m pytest perfbench/tests -q
	@for w in $(BENCH_WORKLOADS); do \
	  $(PYTHON) perfbench/run.py --workload $$w --seed 1 --seconds 10 --trace 1 \
	    | $(PYTHON) -c '$(BENCH_CORRECT)' \
	    || { echo "bench-check: $$w did not read \"correct\": true" >&2; exit 1; }; \
	done

# Import cost of `import repro.cli` without a benchmark run: the module
# count and the 20 costliest modules by cumulative time (-X importtime).
import-profile:
	$(PYTHON) scripts/import_profile.py

# Refresh the committed CI baseline (run on an otherwise idle machine;
# see docs/benchmarking.md for when this is legitimate).
baseline:
	$(PYTHON) -m repro.cli bench --quick --out benchmarks/baseline_ci.json
