"""Repository benchmark: cold sweep, warm figure replay, mixed serve traffic.

Entry point: ``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1``.  See ``perfbench/README.md``.
"""
