"""Command-line interface: ``repro-mnet``.

Subcommands::

    repro-mnet list                      # workloads / topologies / mechanisms
    repro-mnet run --workload mixB ...   # one experiment, printed summary
    repro-mnet run --trace out.jsonl ... # same, plus a structured event trace
    repro-mnet figure fig5 [--full]      # regenerate a paper artifact
    repro-mnet trace out.jsonl --kind events   # event trace + printed summary
    repro-mnet bench --out BENCH.json    # performance microbenchmarks
    repro-mnet validate --quick          # invariant-validation suite
    repro-mnet serve --port 8642         # long-running experiment service
    repro-mnet store migrate             # JSON cache dir -> SQLite file

The ``figure`` subcommand accepts: fig4, fig5, fig6, fig8, fig9, fig11,
fig12, fig13, fig15, fig16, fig17, fig18, sec7, and hetero-depth (a
beyond-the-paper comparison of depth-staged mechanism mixes built with
``--mech-overrides`` specs).

Simulating subcommands (``run``, ``figure``, ``sweep-alpha``, ``batch``)
share the execution flags: ``--jobs N`` runs cache misses on N worker
processes at once, ``--cache-dir PATH`` relocates the persistent result
cache (default ``~/.cache/repro-mnet``, or ``$REPRO_CACHE_DIR``),
``--store json|sqlite`` picks the result-store backend (JSON files per
result, or one WAL-mode SQLite file with bulk lookups; see
docs/architecture.md), ``--no-cache`` disables the disk cache for that
invocation, and ``--timeout SECS`` / ``--retries N`` bound each
experiment's wall clock and retry crashed/hung workers (see
docs/resilience.md).

``store`` manages the persistent cache itself: ``store migrate``
converts a JSON cache directory into a SQLite file (verifying entry
counts and spot-checking payload byte-equality), ``store stats``
prints backend/entry/size counters, and ``store compact`` drops
stale-schema entries and quarantined debris.

``sweep-alpha`` and ``batch`` additionally accept ``--journal PATH`` to
checkpoint every outcome as it lands, and ``--resume`` to replay a
previous journal instead of re-simulating completed work.

``serve`` starts the long-running experiment service (HTTP+JSON on
localhost, tiered caching, single-flight dedup, bounded-queue
backpressure, graceful SIGTERM drain); see docs/serving.md.
"""

from __future__ import annotations

import argparse
import sys

from repro.core.mechanisms import MECHANISMS, MECHANISM_NAMES
from repro.core.policy import POLICY_NAMES
from repro.harness.executor import FailedResult, make_executor
from repro.harness.experiment import AUDIT_MODES, ExperimentConfig
import repro.harness.figures as F
from repro.harness.journal import SweepJournal
from repro.harness.metrics import performance_degradation, power_reduction
from repro.harness.report import format_table, render_run_summary
from repro.harness.sweep import ExperimentFailedError, SweepRunner
from repro.network.topology import TOPOLOGY_BUILDERS, TOPOLOGY_NAMES
from repro.obs.sinks import TRACE_FORMATS
from repro.obs.trace import ALL_CATEGORIES
from repro.store import STORE_BACKENDS, make_store
from repro.workloads.profiles import WORKLOAD_NAMES, get_profile
from repro.workloads.mapping import MAPPINGS, MAPPING_NAMES

__all__ = ["main"]


def _make_store_from_args(args):
    """The result store selected by ``--store``/``--cache-dir``/``--no-cache``."""
    if getattr(args, "no_cache", False):
        return None
    try:
        return make_store(getattr(args, "store", "json"), args.cache_dir)
    except (NotADirectoryError, IsADirectoryError, ValueError) as exc:
        raise SystemExit(f"error: {exc}")


def _make_executor_from_args(args):
    """The executor selected by ``--jobs``/``--timeout``/``--retries``."""
    try:
        return make_executor(
            args.jobs,
            timeout_s=getattr(args, "timeout", None),
            retries=getattr(args, "retries", 0),
        )
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")


def _make_journal_from_args(args):
    """The journal selected by ``--journal``/``--resume`` (None without one)."""
    path = getattr(args, "journal", None)
    resume = getattr(args, "resume", False)
    if resume and not path:
        raise SystemExit("error: --resume requires --journal PATH")
    return SweepJournal(path, resume=resume) if path else None


def _make_runner(args) -> SweepRunner:
    """A SweepRunner honouring the shared execution flags."""
    executor = _make_executor_from_args(args)
    disk = _make_store_from_args(args)
    runner = SweepRunner(executor=executor, disk_cache=disk)
    journal = _make_journal_from_args(args)
    if journal is not None:
        runner.attach_journal(journal)
    return runner


def _print_run_stats(runner: SweepRunner) -> None:
    """One-line cache/instrumentation summary (stderr, machine-greppable)."""
    disk = runner.disk_cache
    disk_part = (
        f", {runner.disk_hits} disk hits" if disk is not None else ", disk cache off"
    )
    if disk is not None and disk.quarantined:
        disk_part += f", {disk.quarantined} quarantined"
    traced_part = f", {runner.traced_runs} traced" if runner.traced_runs else ""
    journal_part = (
        f", {runner.journal_hits} journal replays"
        if runner.journal is not None
        else ""
    )
    failed_part = f", {len(runner.failures)} FAILED" if runner.failures else ""
    print(
        f"# {runner.runs} simulated ({runner.sim_wall_time_s:.1f}s sim time), "
        f"{runner.memory_hits} memory hits{disk_part}{journal_part}"
        f"{traced_part}{failed_part}",
        file=sys.stderr,
    )


def _with_aliases(registry) -> str:
    """Registry names plus ``name (alias: ...)`` annotations."""
    by_canonical: dict = {}
    for alias, canonical in registry.aliases().items():
        by_canonical.setdefault(canonical, []).append(alias)
    parts = []
    for name in registry.names():
        aliases = sorted(by_canonical.get(name, ()))
        parts.append(
            f"{name} (alias: {', '.join(aliases)})" if aliases else name
        )
    return ", ".join(parts)


def _cmd_list(_args) -> int:
    rows = [
        [name, f"{get_profile(name).footprint_gb:g} GB",
         f"{get_profile(name).channel_util:.0%}", get_profile(name).description]
        for name in WORKLOAD_NAMES
    ]
    print(format_table(
        ["workload", "footprint", "target util", "description"], rows,
        title="Workloads",
    ))
    print()
    print("Topologies :", ", ".join(sorted(TOPOLOGY_BUILDERS)),
          f"(paper evaluates: {', '.join(TOPOLOGY_NAMES)})")
    print("Mechanisms :", _with_aliases(MECHANISMS))
    print("Policies   :", ", ".join(POLICY_NAMES))
    print("Mappings   :", _with_aliases(MAPPINGS))
    return 0


def _cmd_run(args) -> int:
    config = ExperimentConfig(
        workload=args.workload,
        topology=args.topology,
        scale=args.scale,
        mechanism=args.mechanism,
        policy=args.policy,
        alpha=args.alpha,
        window_ns=args.window_us * 1000.0,
        epoch_ns=args.epoch_us * 1000.0,
        seed=args.seed,
        wake_ns=args.wake_ns,
        mapping=args.mapping,
        mechanism_overrides=args.mech_overrides,
        fault_spec=args.faults,
        trace_path=args.trace,
        trace_format=args.trace_format,
        trace_categories=args.trace_categories,
        metrics_path=args.metrics_out,
        audit=args.audit,
    )
    runner = _make_runner(args)
    try:
        result = runner.run(config)
    except ExperimentFailedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(render_run_summary(config, result))

    if args.baseline and config.policy != "none":
        base = runner.run(config.baseline())
        saved = power_reduction(base.network_power_w, result.network_power_w)
        deg = performance_degradation(base.throughput_per_s, result.throughput_per_s)
        print()
        print(f"vs full power: {saved:+.1%} network power, {deg:+.2%} throughput cost")
    if args.trace:
        print(f"Wrote {result.trace_events} trace events to {args.trace} "
              f"({config.trace_format})")
    if args.metrics_out:
        print(f"Wrote per-epoch metrics to {args.metrics_out}")
    _print_run_stats(runner)
    return 0


_FIGURES = {
    "fig4": lambda r, s: _print_fig4(),
    "fig5": lambda r, s: _rows(F.fig5_power_breakdown(r, s)),
    "fig6": lambda r, s: _rows(F.fig6_modules_traversed(r, s)),
    "fig8": lambda r, s: _rows(F.fig8_idle_io_fraction(r, s)),
    "fig9": lambda r, s: _rows(F.fig9_utilization(r, s)),
    "fig11": lambda r, s: _rows(F.fig11_unaware_power(r, s)),
    "fig12": lambda r, s: _rows(F.fig12_unaware_performance(r, s)),
    "fig13": lambda r, s: _rows(sorted(F.fig13_link_hours(r, s).items())),
    "fig15": lambda r, s: _rows(F.fig15_aware_vs_unaware(r, s)),
    "fig16": lambda r, s: _rows(F.fig16_per_workload_savings(r, s)),
    "fig17": lambda r, s: _rows(F.fig17_aware_performance(r, s)),
    "fig18": lambda r, s: _rows(F.fig18_dvfs_sensitivity(r, s)),
    "sec7": lambda r, s: _rows(sorted(F.sec7_static_comparison(r, s).items())),
    "hetero-depth": lambda r, s: _rows(F.hetero_depth(r, s)),
}


def _print_fig4() -> None:
    for name, points in F.fig4_workload_cdfs():
        series = " ".join(f"({x:g},{y:.2f})" for x, y in points)
        print(f"{name:6s} {series}")


def _rows(rows) -> None:
    for row in rows:
        if isinstance(row, tuple) and len(row) == 2 and isinstance(row[1], dict):
            print(row[0], {k: round(v, 4) for k, v in row[1].items()})
        else:
            print("  ".join(str(c) for c in (row if isinstance(row, (list, tuple)) else [row])))


def _cmd_figure(args) -> int:
    settings = F.RunSettings.from_env()
    if args.full:
        settings = F.RunSettings(
            workloads=WORKLOAD_NAMES, window_ns=1_000_000.0, epoch_ns=50_000.0
        )
    runner = _make_runner(args)
    fn = _FIGURES.get(args.name)
    if fn is None:
        print(f"unknown figure {args.name!r}; choose from {sorted(_FIGURES)}",
              file=sys.stderr)
        return 2
    fn(runner, settings)
    _print_run_stats(runner)
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the repro-mnet argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-mnet",
        description="Memory-network power simulation (HPCA 2017 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    exec_flags = argparse.ArgumentParser(add_help=False)
    exec_group = exec_flags.add_argument_group("execution")
    exec_group.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="run simulations over N worker processes (default: 1, serial)")
    exec_group.add_argument(
        "--cache-dir", default=None, metavar="PATH",
        help="persistent result cache location "
             "(default: $REPRO_CACHE_DIR or ~/.cache/repro-mnet)")
    exec_group.add_argument(
        "--store", choices=list(STORE_BACKENDS), default="json",
        help="result-store backend: 'json' (one file per result, the "
             "historical layout) or 'sqlite' (single WAL-mode file with "
             "bulk lookups) (default: json)")
    exec_group.add_argument(
        "--no-cache", action="store_true",
        help="skip the persistent result cache for this invocation")
    exec_group.add_argument(
        "--timeout", type=float, default=None, metavar="SECS",
        help="per-experiment wall-clock budget; hung workers are killed "
             "and recorded as structured failures (default: none)")
    exec_group.add_argument(
        "--retries", type=int, default=0, metavar="N",
        help="re-attempts for crashed/timed-out experiments "
             "(deterministic simulation errors are never retried; default: 0)")

    journal_flags = argparse.ArgumentParser(add_help=False)
    journal_group = journal_flags.add_argument_group("checkpointing")
    journal_group.add_argument(
        "--journal", default=None, metavar="PATH",
        help="append every experiment outcome to a JSONL checkpoint "
             "journal as it completes (see docs/resilience.md)")
    journal_group.add_argument(
        "--resume", action="store_true",
        help="replay --journal before running: completed results are "
             "reused, failed/missing configs are (re-)run")

    sub.add_parser("list", help="list workloads, topologies, mechanisms")

    run_p = sub.add_parser("run", help="run one experiment", parents=[exec_flags])
    run_p.add_argument("--workload", default="mixB", choices=WORKLOAD_NAMES)
    run_p.add_argument("--topology", default="daisychain",
                       choices=sorted(TOPOLOGY_BUILDERS))
    run_p.add_argument("--scale", default="small", choices=["small", "big"])
    run_p.add_argument("--mechanism", default="FP", choices=MECHANISM_NAMES)
    run_p.add_argument("--policy", default="none", choices=POLICY_NAMES)
    run_p.add_argument("--alpha", type=float, default=0.05)
    run_p.add_argument("--window-us", type=float, default=500.0)
    run_p.add_argument("--epoch-us", type=float, default=25.0)
    run_p.add_argument("--seed", type=int, default=1)
    run_p.add_argument("--wake-ns", type=float, default=14.0)
    run_p.add_argument("--mapping", default="contiguous",
                       choices=list(MAPPING_NAMES))
    run_p.add_argument(
        "--mech-overrides", default="", metavar="SPEC",
        help="per-link mechanism overrides, e.g. "
             "'depth>=3:ROO+VWL,link:m2-up:FP' (later clauses win; "
             "see docs/reproducing.md for the grammar)")
    run_p.add_argument("--baseline", action="store_true",
                       help="also run the full-power baseline and compare")
    run_p.add_argument(
        "--faults", default="", metavar="SPEC",
        help="fault-injection spec, e.g. "
             "'seed=7,crc=0.01,crc_bursts=4,down=2' "
             "(see docs/resilience.md for the key reference)")
    obs_group = run_p.add_argument_group("observability")
    obs_group.add_argument(
        "--trace", default=None, metavar="PATH",
        help="write a structured event trace (see docs/observability.md)")
    obs_group.add_argument(
        "--trace-format", default="jsonl", choices=list(TRACE_FORMATS),
        help="trace file format (default: jsonl)")
    obs_group.add_argument(
        "--trace-categories", default="", metavar="CATS",
        help="comma list of categories, or 'all' "
             f"(default: link,epoch; known: {','.join(ALL_CATEGORIES)})")
    obs_group.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="write per-epoch aggregated metrics as JSON")
    obs_group.add_argument(
        "--audit", nargs="?", const="strict", default="",
        choices=AUDIT_MODES, metavar="MODE",
        help="run invariant checks during and after the simulation: "
             "'strict' (default when the flag is given) fails the run "
             "on any violation, 'warn' reports to stderr and continues "
             "(see docs/validation.md)")

    fig_p = sub.add_parser("figure", help="regenerate a paper artifact",
                           parents=[exec_flags])
    fig_p.add_argument("name", choices=sorted(_FIGURES))
    fig_p.add_argument("--full", action="store_true",
                       help="all 14 workloads, 1 ms windows (slow)")

    sweep_p = sub.add_parser("sweep-alpha",
                             help="trade-off curve over alpha values",
                             parents=[exec_flags, journal_flags])
    sweep_p.add_argument("--workload", default="mg.D", choices=WORKLOAD_NAMES)
    sweep_p.add_argument("--topology", default="star",
                         choices=sorted(TOPOLOGY_BUILDERS))
    sweep_p.add_argument("--scale", default="big", choices=["small", "big"])
    sweep_p.add_argument("--mechanism", default="VWL", choices=MECHANISM_NAMES)
    sweep_p.add_argument(
        "--mech-overrides", default="", metavar="SPEC",
        help="per-link mechanism overrides applied to every point of "
             "the sweep (same grammar as 'run --mech-overrides')")
    sweep_p.add_argument("--policy", default="aware",
                         choices=["unaware", "aware"])
    sweep_p.add_argument("--alphas", type=float, nargs="+",
                         default=[0.025, 0.05, 0.10, 0.20, 0.30])
    sweep_p.add_argument("--window-us", type=float, default=300.0)
    sweep_p.add_argument("--epoch-us", type=float, default=20.0)

    batch_p = sub.add_parser("batch", help="run a JSON batch spec",
                             parents=[exec_flags, journal_flags])
    batch_p.add_argument("spec", help="batch spec file (see harness.io.load_batch)")
    batch_p.add_argument("--out-json", help="write results as JSON")
    batch_p.add_argument("--out-csv", help="write results as CSV")

    bench_p = sub.add_parser(
        "bench", help="run performance microbenchmarks (see docs/benchmarking.md)")
    bench_p.add_argument("--quick", action="store_true",
                         help="smaller iteration counts (CI-friendly)")
    bench_p.add_argument("--out", default=None, metavar="FILE",
                         help="write a schema-versioned BENCH_*.json report")
    bench_p.add_argument("--baseline", default=None, metavar="FILE",
                         help="compare against a committed BENCH report")
    bench_p.add_argument("--max-regress", type=float, default=25.0, metavar="PCT",
                         help="fail when any bench slows by more than PCT%% "
                              "vs the baseline (default: 25)")
    bench_p.add_argument("--repeats", type=int, default=None, metavar="N",
                         help="override per-bench repeat counts")
    bench_p.add_argument("--only", nargs="+", default=None, metavar="NAME",
                         help="run only the named benchmarks")
    bench_p.add_argument("--list", action="store_true",
                         help="list benchmark scenarios and exit")

    serve_p = sub.add_parser(
        "serve",
        help="run the long-running experiment service (see docs/serving.md)",
        parents=[exec_flags, journal_flags])
    serve_p.add_argument("--host", default="127.0.0.1",
                         help="bind address (default: 127.0.0.1)")
    serve_p.add_argument("--port", type=int, default=8642,
                         help="TCP port; 0 picks an ephemeral port and "
                              "prints it (default: 8642)")
    serve_p.add_argument(
        "--queue-limit", type=int, default=64, metavar="N",
        help="max outstanding simulations (queued + in flight); further "
             "cache-missing requests get HTTP 429 (default: 64)")
    serve_p.add_argument(
        "--memory-entries", type=int, default=512, metavar="N",
        help="in-memory LRU result-cache capacity; 0 disables the "
             "memory tier (default: 512)")
    serve_p.add_argument(
        "--batch-window-ms", type=float, default=10.0, metavar="MS",
        help="with a pool (--jobs > 1), how long the dispatcher waits "
             "for concurrent misses to coalesce into one executor batch, "
             "ending early at --batch-max or drain; a serial executor "
             "dispatches at once (default: 10)")
    serve_p.add_argument(
        "--batch-max", type=int, default=16, metavar="N",
        help="max configs per coalesced executor batch (default: 16)")
    serve_p.add_argument(
        "--request-timeout", type=float, default=600.0, metavar="SECS",
        help="per-request wait budget before the server answers 504 "
             "(default: 600)")
    serve_p.add_argument(
        "--drain-timeout", type=float, default=None, metavar="SECS",
        help="max seconds a SIGTERM drain waits for in-flight work "
             "(default: wait forever)")
    serve_p.add_argument(
        "--socket-timeout", type=float, default=None, metavar="SECS",
        help="per-connection idle socket read timeout for keep-alive "
             "connections; independent of the request timeout "
             "(default: 30)")
    serve_p.add_argument(
        "--degrade", choices=["off", "analytical"], default="off",
        help="what a saturated queue or open circuit breaker answers "
             "with: 'off' = hard 429/503, 'analytical' = HTTP 200 from "
             "the closed-form power model, marked approximate "
             "(default: off)")
    serve_p.add_argument(
        "--breaker-threshold", type=int, default=5, metavar="N",
        help="consecutive simulation failures that trip a config "
             "family's circuit breaker; 0 disables breakers "
             "(default: 5)")
    serve_p.add_argument(
        "--breaker-cooldown", type=float, default=30.0, metavar="SECS",
        help="seconds an open breaker waits before admitting a "
             "half-open probe (default: 30)")
    serve_p.add_argument(
        "--verbose", action="store_true",
        help="log one line per HTTP request to stderr")

    store_p = sub.add_parser(
        "store",
        help="inspect, compact, or migrate the persistent result store")
    store_p.add_argument(
        "action", choices=["migrate", "stats", "compact"],
        help="migrate: convert a JSON cache dir to a SQLite file "
             "(verifies counts + payload equality); stats: print "
             "backend, entry, and counter info; compact: drop "
             "stale-schema entries and quarantined debris")
    store_p.add_argument(
        "--store", choices=list(STORE_BACKENDS), default="json",
        help="backend for stats/compact (default: json; migrate always "
             "reads JSON and writes SQLite)")
    store_p.add_argument(
        "--cache-dir", default=None, metavar="PATH",
        help="cache location to operate on "
             "(default: $REPRO_CACHE_DIR or ~/.cache/repro-mnet)")
    store_p.add_argument(
        "--to", default=None, metavar="FILE",
        help="migrate: destination SQLite file "
             "(default: <cache-dir>/results.sqlite)")
    store_p.add_argument(
        "--sample", type=int, default=8, metavar="N",
        help="migrate: migrated payloads to read back and compare "
             "byte-for-byte against the source (default: 8)")

    val_p = sub.add_parser(
        "validate",
        help="run the invariant-validation suite (see docs/validation.md)")
    val_p.add_argument(
        "--quick", action="store_true",
        help="CI-sized matrix: all four topologies, unmanaged + managed, "
             "short windows, no metamorphic relations")
    val_p.add_argument(
        "--metamorphic", action="store_true",
        help="force the metamorphic relations on (they default to "
             "running only without --quick)")
    val_p.add_argument(
        "--sabotage", default=None, metavar="KIND",
        help="self-test: corrupt one counter after each run and expect "
             "the checkers to fire (KIND from --list-checks output)")
    val_p.add_argument(
        "--json", default=None, metavar="FILE",
        help="write the structured violation report as JSON")
    val_p.add_argument(
        "--markdown", default=None, metavar="FILE",
        help="write the violation report as a markdown table")
    val_p.add_argument(
        "--list-checks", action="store_true",
        help="list registered invariant checkers, metamorphic relations, "
             "and sabotage kinds, then exit")

    trace_p = sub.add_parser(
        "trace", help="record a workload access trace or a structured event trace")
    trace_p.add_argument("path", help="output file (.gz for access-trace compression)")
    trace_p.add_argument(
        "--kind", default="accesses", choices=["accesses", "events"],
        help="'accesses': per-access workload trace (full-power network); "
             "'events': structured simulation events "
             "(see docs/observability.md)")
    trace_p.add_argument("--workload", default="mixB", choices=WORKLOAD_NAMES)
    trace_p.add_argument("--topology", default="daisychain",
                         choices=sorted(TOPOLOGY_BUILDERS))
    trace_p.add_argument("--scale", default="small", choices=["small", "big"])
    trace_p.add_argument("--window-us", type=float, default=200.0)
    trace_p.add_argument("--seed", type=int, default=1)
    ev_group = trace_p.add_argument_group("event traces (--kind events)")
    ev_group.add_argument("--mechanism", default="VWL+ROO", choices=MECHANISM_NAMES)
    ev_group.add_argument("--policy", default="aware", choices=POLICY_NAMES)
    ev_group.add_argument("--alpha", type=float, default=0.05)
    ev_group.add_argument("--epoch-us", type=float, default=25.0)
    ev_group.add_argument("--format", default="jsonl", choices=list(TRACE_FORMATS))
    ev_group.add_argument(
        "--categories", default="", metavar="CATS",
        help="comma list of trace categories, or 'all' (default: link,epoch)")

    return parser


def _cmd_sweep_alpha(args) -> int:
    from repro.harness.charts import line_chart
    from repro.harness.pareto import pareto_frontier, sweep_alpha

    runner = _make_runner(args)
    config = ExperimentConfig(
        workload=args.workload,
        topology=args.topology,
        scale=args.scale,
        mechanism=args.mechanism,
        mechanism_overrides=args.mech_overrides,
        policy=args.policy,
        window_ns=args.window_us * 1000.0,
        epoch_ns=args.epoch_us * 1000.0,
    )
    try:
        points = sweep_alpha(runner, config, alphas=args.alphas)
    except ExperimentFailedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        _print_run_stats(runner)
        _close_journal(runner)
        return 3
    rows = [
        [f"{p.alpha:.1%}", f"{p.power_saved:.1%}", f"{p.degradation:.2%}"]
        for p in points
    ]
    print(format_table(
        ["alpha", "power saved", "throughput cost"], rows,
        title=f"{args.workload} / {args.scale} {args.topology} / "
              f"{args.mechanism} ({args.policy})",
    ))
    print()
    print(line_chart(
        [("sweep", [(p.degradation * 100, p.power_saved * 100) for p in points])],
        width=50, height=12,
        title="power saved (%) vs throughput cost (%)",
    ))
    frontier = pareto_frontier(points)
    print(f"\nPareto-optimal points: {len(frontier)}/{len(points)}")
    _print_run_stats(runner)
    _close_journal(runner)
    return 0


def _close_journal(runner: SweepRunner) -> None:
    if runner.journal is not None:
        runner.journal.close()


def _cmd_trace(args) -> int:
    if args.kind == "events":
        return _cmd_trace_events(args)
    from repro.harness.builder import SimulationBuilder
    from repro.workloads.traces import TraceRecorder, save_trace

    config = ExperimentConfig(
        workload=args.workload,
        topology=args.topology,
        scale=args.scale,
        mechanism="FP",
        policy="none",
        window_ns=args.window_us * 1000.0,
        seed=args.seed,
    )
    simulation = SimulationBuilder(config).build()
    network = simulation.network
    recorder = TraceRecorder(network)
    simulation.run()
    count = save_trace(args.path, recorder.records)
    print(f"Wrote {count} accesses ({network.injected_reads} reads, "
          f"{network.injected_writes} writes) to {args.path}")
    return 0


def _cmd_trace_events(args) -> int:
    from repro.harness.experiment import run_experiment
    from repro.obs.analysis import format_trace_summary, read_jsonl

    config = ExperimentConfig(
        workload=args.workload,
        topology=args.topology,
        scale=args.scale,
        mechanism=args.mechanism,
        policy=args.policy,
        alpha=args.alpha,
        window_ns=args.window_us * 1000.0,
        epoch_ns=args.epoch_us * 1000.0,
        seed=args.seed,
        trace_path=args.path,
        trace_format=args.format,
        trace_categories=args.categories,
    )
    result = run_experiment(config)
    print(f"Wrote {result.trace_events} events to {args.path} ({args.format})")
    if args.format == "jsonl":
        print()
        print(format_trace_summary(read_jsonl(args.path)))
    return 0


def _cmd_bench(args) -> int:
    import os

    from repro.perf import (
        BenchmarkError,
        ReportError,
        all_benchmarks,
        compare_outcome,
        compare_reports,
        format_comparison,
        load_report,
        make_report,
        run_benchmarks,
        write_report,
    )

    if args.list:
        width = max(len(s.name) for s in all_benchmarks())
        for spec in all_benchmarks():
            print(f"{spec.name:<{width}}  {spec.description}")
        return 0

    mode = "quick" if args.quick else "full"
    try:
        results = run_benchmarks(
            names=args.only or None,
            quick=args.quick,
            repeats=args.repeats,
            progress=lambda n: print(f"# bench [{mode}] {n} ...", file=sys.stderr),
        )
    except BenchmarkError as exc:
        raise SystemExit(f"error: {exc}")

    rows = [
        [r.name, f"{r.best_s * 1e3:.2f} ms", f"{r.mean_s * 1e3:.2f} ms",
         f"{r.stdev_s * 1e3:.2f} ms", f"{r.events_per_s:.3e}", r.fingerprint]
        for r in results
    ]
    print(format_table(
        ["bench", "best", "mean", "stdev", "events/s", "fingerprint"], rows,
        title=f"repro-mnet bench ({mode}, best of N)",
    ))

    report = make_report(results, args.quick)
    if args.out:
        write_report(args.out, report)
        print(f"Wrote {args.out}")

    if args.baseline:
        if not os.path.exists(args.baseline):
            print(f"error: baseline file {args.baseline!r} not found",
                  file=sys.stderr)
            return 2
        try:
            baseline = load_report(args.baseline)
        except (ReportError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        comparisons = compare_reports(report, baseline, args.max_regress)
        print()
        print(format_comparison(comparisons, args.max_regress))
        if compare_outcome(comparisons):
            print("FAIL: performance regression beyond threshold",
                  file=sys.stderr)
            return 1
        print("gate passed")
    return 0


def _cmd_validate(args) -> int:
    from repro.validation.checks import CHECKS
    from repro.validation.metamorphic import METAMORPHIC_RELATIONS
    from repro.validation.suite import SABOTAGES, run_suite

    if args.list_checks:
        rows = [
            [name, fn.scope, "" if fn.tolerance is None else f"{fn.tolerance:g}",
             fn.description]
            for name, fn in CHECKS.items()
        ]
        rows += [[name, "suite", "", desc] for name, desc, _ in METAMORPHIC_RELATIONS]
        print(format_table(
            ["check", "scope", "tolerance", "description"], rows,
            title="Invariant checkers (see docs/validation.md)",
        ))
        print()
        print("Sabotage kinds:",
              ", ".join(f"{k} ({desc})" for k, (desc, _) in sorted(SABOTAGES.items())))
        return 0

    if args.sabotage is not None and args.sabotage not in SABOTAGES:
        print(f"unknown sabotage {args.sabotage!r}; choose from "
              f"{sorted(SABOTAGES)}", file=sys.stderr)
        return 2

    report = run_suite(
        quick=args.quick,
        sabotage=args.sabotage,
        metamorphic=True if args.metamorphic else None,
        progress=lambda msg: print(f"# {msg}", file=sys.stderr),
    )
    if args.json:
        report.write_json(args.json)
        print(f"Wrote {args.json}")
    if args.markdown:
        with open(args.markdown, "w") as fh:
            fh.write(report.to_markdown())
        print(f"Wrote {args.markdown}")
    for violation in report.violations:
        print(f"  {violation.describe()}")
    print(report.summary())
    return 0 if report.passed else 1


def _cmd_serve(args) -> int:
    from repro.serve.http import run_server
    from repro.serve.service import ExperimentService, ServiceSettings

    executor = _make_executor_from_args(args)
    disk = _make_store_from_args(args)
    journal = _make_journal_from_args(args)
    try:
        settings = ServiceSettings(
            queue_limit=args.queue_limit,
            memory_entries=args.memory_entries,
            batch_window_s=args.batch_window_ms / 1000.0,
            batch_max=args.batch_max,
            request_timeout_s=args.request_timeout,
            socket_timeout_s=args.socket_timeout,
            degrade=args.degrade,
            breaker_threshold=args.breaker_threshold,
            breaker_cooldown_s=args.breaker_cooldown,
        )
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")
    service = ExperimentService(
        executor=executor, disk_cache=disk, settings=settings, journal=journal
    )
    if journal is not None and args.resume:
        warmed = service.warm_start(journal)
        print(f"# warm start: {warmed} results from {args.journal}",
              file=sys.stderr)
    return run_server(
        service,
        host=args.host,
        port=args.port,
        verbose=args.verbose,
        drain_timeout_s=args.drain_timeout,
    )


def _cmd_store(args) -> int:
    from repro.store.jsondir import JsonDirStore
    from repro.store.migrate import migrate_json_to_sqlite
    from repro.store.sqlite import DEFAULT_SQLITE_FILENAME, SqliteStore

    if args.action == "migrate":
        try:
            source = JsonDirStore(args.cache_dir)
            dest_path = (
                args.to
                if args.to
                else source.root / DEFAULT_SQLITE_FILENAME
            )
            dest = SqliteStore(dest_path)
        except (NotADirectoryError, IsADirectoryError) as exc:
            raise SystemExit(f"error: {exc}")
        print(f"migrating {source.directory} -> {dest.path}")
        report = migrate_json_to_sqlite(source, dest, sample=args.sample)
        for line in report.summary_lines():
            print(f"  {line}")
        if not report.ok:
            print("error: migration verification failed", file=sys.stderr)
            return 1
        return 0
    store = _make_store_from_args(args)
    summary = store.stats() if args.action == "stats" else store.compact()
    width = max(len(key) for key in summary)
    for key, value in summary.items():
        print(f"{key:<{width}}  {value}")
    return 0


def _cmd_batch(args) -> int:
    from repro.harness.io import load_batch, save_results_csv, save_results_json

    configs = load_batch(args.spec)
    print(f"Running {len(configs)} experiments from {args.spec} ...")
    runner = _make_runner(args)
    outcomes = runner.run_all(configs)
    failed = 0
    for i, (config, outcome) in enumerate(zip(configs, outcomes), 1):
        label = (f"{config.workload}/{config.topology}/"
                 f"{config.mechanism}/{config.policy}")
        if isinstance(outcome, FailedResult):
            failed += 1
            print(f"  [{i}/{len(configs)}] {label}: "
                  f"FAILED [{outcome.error_type}] {outcome.message}")
        else:
            print(f"  [{i}/{len(configs)}] {label}: "
                  f"{outcome.power_per_hmc_w:.2f} W/HMC")
    _print_run_stats(runner)
    results = [o for o in outcomes if not isinstance(o, FailedResult)]
    if args.out_json:
        save_results_json(args.out_json, results)
        print(f"Wrote {args.out_json}")
    if args.out_csv:
        save_results_csv(args.out_csv, results)
        print(f"Wrote {args.out_csv}")
    _close_journal(runner)
    if failed:
        print(f"{failed}/{len(configs)} experiments failed "
              f"(re-run with --journal/--resume to retry just those)",
              file=sys.stderr)
        return 3
    return 0


def main(argv=None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "list":
        return _cmd_list(args)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "figure":
        return _cmd_figure(args)
    if args.command == "sweep-alpha":
        return _cmd_sweep_alpha(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "bench":
        return _cmd_bench(args)
    if args.command == "batch":
        return _cmd_batch(args)
    if args.command == "validate":
        return _cmd_validate(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "store":
        return _cmd_store(args)
    return 2


if __name__ == "__main__":
    sys.exit(main())
