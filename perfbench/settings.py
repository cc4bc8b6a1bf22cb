"""Fixed numbers of the benchmark (everything a run does not take as input).

``BENCHMARK.json`` has a fixed set of keys, so the seeds, the serve
rates and the latency limit live here.  The rates and the limit were
measured once on the commit that introduced the benchmark (see
README.md) and stay fixed, so that later commits are compared at the
same load.
"""

#: Seed used when none is given; reference digests are recorded for it.
DEFAULT_SEED = 1
#: Seed kept back for re-checking a claim made on other seeds.
HELD_OUT_SEED = 97

#: Set-up repetitions per run; ``setup_s`` is their median.  Each
#: ``serve_mixed`` round uses one of them.
SETUP_REPEATS = 5

#: Open-loop request rates of the two serve phases (requests/s).
LIGHT_RPS = 60.0
LOADED_RPS = 160.0
#: A response slower than this (from its due time) misses the limit.
LATENCY_LIMIT_MS = 250.0
#: Share of each serve round given to the light phase: two thirds of a
#: 5 s round (25 s over 5 rounds) is 200 light requests, so every round's
#: light p95 has 10 samples beyond it.
LIGHT_SHARE = 2 / 3
#: Connections the load generator may hold open (the host's cores).
CONNECTIONS = 2
