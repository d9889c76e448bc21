"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``apps`` — list the built-in benchmark applications.
* ``templates APP`` — print an application's query/update templates.
* ``ipm APP`` — print the full IPM characterization matrix (Table 4 style).
* ``analyze APP`` — print the Table 7 style summary and the free-encryption
  count.
* ``methodology APP`` — run the three-step design methodology and print
  initial → final exposure levels (Figure 7 style).
* ``scalability APP`` — measure cache behaviour per strategy class and
  report max users within the SLA (Figure 8 style).
* ``simulate APP --users N`` — one discrete-event simulation run.
* ``serve-home APP`` / ``serve-dssp APP`` — run the networked service
  layer (home organization / DSSP node) on real sockets.
* ``loadgen APP`` — closed- or open-loop load generator against live DSSP
  nodes (optionally with deterministic fault injection via ``--chaos-seed``).
* ``chaos APP`` — stand up a chaos-proxied cluster in-process, replay a
  recorded trace through it, and run the consistency oracle.
* ``stats HOST:PORT [HOST:PORT ...]`` — dump live STATS snapshots as JSON
  (several targets merge into a fleet view; ``--prom`` renders
  Prometheus text exposition instead).
* ``trace LOG [LOG ...]`` — assemble per-node span logs into trace
  trees, print phase aggregates and critical paths.

Global flags ``--log-level`` and ``--log-json`` configure structured
logging for every command (key=value text or JSON lines on stderr).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys

from repro.analysis import (
    characterize_application,
    design_exposure_policy,
    format_ipm_table,
    format_summary_table,
    summarize_characterization,
)
from repro.analysis.exposure import ExposurePolicy
from repro.crypto import Keyring
from repro.dssp import DsspNode, HomeServer, StrategyClass
from repro.simulation import (
    SimulationParams,
    find_scalability,
    simulate_users,
)
from repro.simulation.sweep import SweepTask, deploy, run_sweep
from repro.workloads import APPLICATIONS, get_application

__all__ = ["main"]


def _add_app_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "app",
        choices=sorted(APPLICATIONS),
        help="benchmark application name",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Simultaneous Scalability and Security for "
            "Data-Intensive Web Applications' (SIGMOD 2006)"
        ),
    )
    parser.add_argument(
        "--log-level",
        choices=["debug", "info", "warning", "error"],
        default="warning",
        help="structured-log threshold on stderr",
    )
    parser.add_argument(
        "--log-json",
        action="store_true",
        help="emit logs as JSON lines instead of key=value text",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("apps", help="list benchmark applications")

    templates = commands.add_parser(
        "templates", help="print an application's templates"
    )
    _add_app_argument(templates)

    ipm = commands.add_parser("ipm", help="print the IPM characterization")
    _add_app_argument(ipm)
    ipm.add_argument(
        "--no-constraints",
        action="store_true",
        help="disable the Section 4.5 integrity-constraint rules",
    )

    analyze = commands.add_parser("analyze", help="Table 7 style summary")
    _add_app_argument(analyze)
    analyze.add_argument("--no-constraints", action="store_true")

    methodology = commands.add_parser(
        "methodology", help="run the security design methodology"
    )
    _add_app_argument(methodology)

    scalability = commands.add_parser(
        "scalability", help="Figure 8 style scalability per strategy"
    )
    _add_app_argument(scalability)
    scalability.add_argument(
        "--pages", type=int, default=1500, help="measurement length"
    )
    scalability.add_argument(
        "--scale", type=float, default=0.2, help="data-size multiplier"
    )
    scalability.add_argument(
        "--nodes",
        type=int,
        default=1,
        help="DSSP fleet size (clients partitioned; invalidation fans out)",
    )
    scalability.add_argument(
        "--workers",
        type=int,
        default=None,
        help=(
            "worker processes for the per-strategy sweep "
            "(default: REPRO_SWEEP_WORKERS or the CPU count; single-node only)"
        ),
    )

    simulate = commands.add_parser(
        "simulate", help="one discrete-event simulation run"
    )
    _add_app_argument(simulate)
    simulate.add_argument("--users", type=int, default=25)
    simulate.add_argument("--duration", type=float, default=120.0)
    simulate.add_argument(
        "--strategy",
        choices=[s.name for s in StrategyClass],
        default="MVIS",
    )
    simulate.add_argument("--scale", type=float, default=0.2)
    simulate.add_argument("--seed", type=int, default=0)

    diagnose = commands.add_parser(
        "diagnose",
        help="check the paper's runtime assumptions on a sampled workload",
    )
    _add_app_argument(diagnose)
    diagnose.add_argument("--pages", type=int, default=300)
    diagnose.add_argument("--scale", type=float, default=0.2)
    diagnose.add_argument("--seed", type=int, default=0)

    export = commands.add_parser(
        "export", help="emit analysis results as CSV on stdout"
    )
    _add_app_argument(export)
    export.add_argument(
        "what",
        choices=["characterization", "methodology", "policy"],
        help="which artifact to export",
    )

    serve_home = commands.add_parser(
        "serve-home", help="run an application's home server on a socket"
    )
    _add_app_argument(serve_home)
    _add_serve_arguments(serve_home)
    serve_home.add_argument(
        "--strategy",
        choices=[s.name for s in StrategyClass],
        default="MVIS",
        help="uniform exposure policy for sealing results",
    )
    serve_home.add_argument("--scale", type=float, default=0.2)
    serve_home.add_argument("--seed", type=int, default=1)
    serve_home.add_argument(
        "--backend",
        choices=["memory", "sqlite"],
        default="memory",
        help="master-copy storage engine (sqlite is durable with --db-path)",
    )
    serve_home.add_argument(
        "--db-path",
        default=None,
        metavar="PATH",
        help="SQLite database file; an existing non-empty file is resumed "
        "as-is (restart durability) instead of regenerating data",
    )
    serve_home.add_argument(
        "--master",
        default="repro-demo",
        help="shared demo master secret (derives the application keyring; "
        "the DSSP never sees it)",
    )

    serve_dssp = commands.add_parser(
        "serve-dssp", help="run a DSSP cache node on a socket"
    )
    _add_app_argument(serve_dssp)
    _add_serve_arguments(serve_dssp)
    serve_dssp.add_argument(
        "--home",
        required=True,
        metavar="HOST:PORT",
        help="address of the application's home server",
    )
    serve_dssp.add_argument(
        "--node-id", default="dssp-0", help="identity on the invalidation stream"
    )
    serve_dssp.add_argument(
        "--capacity", type=int, default=None, help="cache capacity (views)"
    )
    serve_dssp.add_argument("--no-constraints", action="store_true")
    serve_dssp.add_argument(
        "--shards",
        default=None,
        metavar="ID,ID,...",
        help="comma-separated node ids of the whole sharded cluster "
        "(must include --node-id); enables consistent-hash placement: "
        "this node only admits keys it owns and the home narrows "
        "invalidation fan-out to owning shards",
    )

    from repro.net.scenarios import SCENARIOS
    from repro.net.traffic import ARRIVAL_KINDS

    loadgen = commands.add_parser(
        "loadgen",
        help="load generator against live DSSP nodes (closed-loop by "
        "default; --arrival switches to open-loop, --scenario runs a "
        "named in-process scenario)",
    )
    loadgen.add_argument(
        "app",
        nargs="?",
        default="bookstore",
        choices=sorted(APPLICATIONS),
        help="benchmark application name (default: bookstore)",
    )
    loadgen.add_argument(
        "--dssp",
        action="append",
        metavar="HOST:PORT",
        help="DSSP node address (repeat for a fleet); required unless "
        "--scenario deploys its own in-process topology",
    )
    loadgen.add_argument(
        "--scenario",
        choices=sorted(SCENARIOS),
        default=None,
        help="deploy and drive a named scenario in-process (ignores "
        "--dssp); reports offered vs achieved rate and, with --sweep, "
        "the knee",
    )
    loadgen.add_argument(
        "--arrival",
        choices=list(ARRIVAL_KINDS),
        default=None,
        help="open-loop arrival process driving the run (default: "
        "closed loop); pages launch on the schedule regardless of "
        "completions",
    )
    loadgen.add_argument(
        "--rate",
        type=float,
        default=50.0,
        metavar="PAGES_S",
        help="offered arrival rate for --arrival/--scenario (pages/s)",
    )
    loadgen.add_argument(
        "--arrival-seed",
        type=int,
        default=None,
        metavar="SEED",
        help="arrival-schedule seed (default: --seed); the report carries "
        "the schedule's sha256 digest for byte-for-byte reproducibility",
    )
    loadgen.add_argument(
        "--max-outstanding",
        type=int,
        default=64,
        metavar="N",
        help="open-loop guard: arrivals beyond N in-flight pages are "
        "dropped and counted, not queued",
    )
    loadgen.add_argument(
        "--sweep",
        default=None,
        metavar="R1,R2,...",
        help="ascending offered rates for a knee sweep (scenario mode)",
    )
    loadgen.add_argument(
        "--deadline",
        type=float,
        default=0.25,
        metavar="SECONDS",
        help="p99 deadline the knee is detected against (sweep mode)",
    )
    loadgen.add_argument(
        "--service-latency",
        type=float,
        default=0.004,
        metavar="SECONDS",
        help="injected per-request service latency in scenario "
        "deployments (stands in for the WAN/database round trip)",
    )
    loadgen.add_argument(
        "--strategy",
        choices=[s.name for s in StrategyClass],
        default="MVIS",
        help="uniform exposure level used to seal requests "
        "(must match the home server's)",
    )
    loadgen.add_argument("--clients", type=int, default=8)
    loadgen.add_argument(
        "--pipeline",
        type=int,
        default=None,
        metavar="N",
        help="open-loop pipelined mode: keep N pages in flight per client "
        "over one multiplexed connection (default: serial closed loop)",
    )
    loadgen.add_argument(
        "--pages", type=int, default=None, help="closed-loop page budget"
    )
    loadgen.add_argument(
        "--duration", type=float, default=None, help="wall-clock budget (s)"
    )
    loadgen.add_argument("--scale", type=float, default=0.2)
    loadgen.add_argument("--seed", type=int, default=1)
    loadgen.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="trace file: replayed if it exists, else recorded there first",
    )
    loadgen.add_argument(
        "--trace-pages",
        type=int,
        default=400,
        help="pages to record when creating a new trace",
    )
    loadgen.add_argument(
        "--master",
        default="repro-demo",
        help="shared demo master secret (must match serve-home)",
    )
    loadgen.add_argument(
        "--report",
        default=None,
        metavar="PATH",
        help="write the combined client+server report as JSON",
    )
    loadgen.add_argument(
        "--no-server-stats",
        action="store_true",
        help="skip the post-run STATS fetch from each DSSP node",
    )
    loadgen.add_argument(
        "--chaos-seed",
        type=int,
        default=None,
        metavar="SEED",
        help="inject deterministic frame faults through in-process proxies",
    )
    loadgen.add_argument(
        "--fault-rate",
        type=float,
        default=0.05,
        help="aggregate frame-fault probability (split across drop/delay/"
        "duplicate/truncate; used with --chaos-seed)",
    )
    loadgen.add_argument(
        "--kill-every",
        type=int,
        default=None,
        metavar="N",
        help="sever every proxied connection after each N completed pages "
        "(used with --chaos-seed)",
    )
    loadgen.add_argument(
        "--shards",
        default=None,
        metavar="ID,ID,...",
        help="route through a ShardRouter instead of partitioning clients: "
        "comma-separated node ids, one per --dssp address in order "
        "(must match the servers' --node-id/--shards)",
    )
    _add_trace_arguments(loadgen)

    chaos = commands.add_parser(
        "chaos",
        help="run the chaos + consistency-oracle harness on a live "
        "in-process cluster",
    )
    _add_app_argument(chaos)
    chaos.add_argument("--nodes", type=int, default=2)
    chaos.add_argument("--clients", type=int, default=4)
    chaos.add_argument(
        "--pipeline",
        type=int,
        default=None,
        metavar="N",
        help="give oracle clients an N-request window on their one "
        "connection (default: 1)",
    )
    chaos.add_argument(
        "--pages", type=int, default=60, help="trace length to record/replay"
    )
    chaos.add_argument("--chaos-seed", type=int, default=0, metavar="SEED")
    chaos.add_argument(
        "--fault-rate",
        type=float,
        default=0.1,
        help="aggregate frame-fault probability",
    )
    chaos.add_argument(
        "--kill-every",
        type=int,
        default=None,
        metavar="N",
        help="kill/restart a server every N pages",
    )
    chaos.add_argument(
        "--kill-target",
        choices=["all", "home", "dssp"],
        default="all",
        help="which servers the kill schedule rotates over",
    )
    chaos.add_argument(
        "--strategy",
        choices=[s.name for s in StrategyClass],
        default="MVIS",
    )
    chaos.add_argument("--scale", type=float, default=0.2)
    chaos.add_argument(
        "--shards",
        action="store_true",
        help="run the nodes as a consistent-hash sharded cluster: "
        "placement-routed queries, no-admit gating, filtered fan-out",
    )
    chaos.add_argument(
        "--seed", type=int, default=1, help="workload/trace seed"
    )
    chaos.add_argument(
        "--scenario",
        choices=["flash_crowd"],
        default=None,
        help="reshape the recorded trace before replay: flash_crowd "
        "concentrates the mid-run pages on the hottest query template, "
        "so the oracle covers hot-key invalidation at the spike",
    )
    chaos.add_argument(
        "--backend",
        choices=["memory", "sqlite"],
        default="memory",
        help="home master-copy storage engine",
    )
    chaos.add_argument(
        "--db-path",
        default=None,
        metavar="PATH",
        help="SQLite file for the home's master copy (sqlite backend); "
        "home kills then restart from the durable file",
    )
    chaos.add_argument(
        "--report",
        default=None,
        metavar="PATH",
        help="write the oracle report + canonical fault log as JSON",
    )
    chaos.add_argument(
        "--span-log",
        default=None,
        metavar="DIR",
        help="write per-node span logs (one JSON-lines file per node) "
        "into this directory",
    )
    chaos.add_argument(
        "--trace-sample",
        type=float,
        default=1.0,
        metavar="RATE",
        help="head-sampling rate by trace id, 0..1",
    )

    stats = commands.add_parser(
        "stats",
        help="dump live STATS snapshots as JSON (or Prometheus text)",
    )
    stats.add_argument(
        "addresses",
        nargs="+",
        metavar="HOST:PORT",
        help="wire servers (home or DSSP); several merge into a fleet view",
    )
    stats.add_argument(
        "--timeout", type=float, default=5.0, help="request timeout (s)"
    )
    stats.add_argument(
        "--prom",
        action="store_true",
        help="render the Prometheus text exposition format instead of "
        "JSON (per-node series labeled node=..., no merging)",
    )

    trace = commands.add_parser(
        "trace",
        help="assemble span logs into trace trees with critical paths",
    )
    trace.add_argument(
        "logs",
        nargs="+",
        metavar="SPAN_LOG",
        help="JSON-lines span log files (one per node, from --span-log)",
    )
    trace.add_argument(
        "--json",
        action="store_true",
        help="emit the full machine-readable report instead of tables",
    )
    trace.add_argument(
        "--trace",
        default=None,
        metavar="ID",
        help="print the span tree of one trace id",
    )
    trace.add_argument(
        "--slowest",
        type=int,
        default=5,
        metavar="N",
        help="slowest traces to summarize (default 5)",
    )
    return parser


def _add_serve_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=0, help="0 picks an ephemeral port"
    )
    parser.add_argument(
        "--max-in-flight",
        type=int,
        default=64,
        help="requests processed concurrently before shedding (OVERLOADED)",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=10.0,
        help="per-request timeout in seconds",
    )
    _add_trace_arguments(parser)


def _add_trace_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--span-log",
        default=None,
        metavar="PATH",
        help="write sampled request spans as JSON lines to this file "
        "(enables tracing; assemble with `repro trace`)",
    )
    parser.add_argument(
        "--trace-sample",
        type=float,
        default=1.0,
        metavar="RATE",
        help="head-sampling rate by trace id, 0..1 (must match across "
        "the fleet so traces assemble whole)",
    )


# -- command implementations ---------------------------------------------------------


def _cmd_apps(args, out) -> int:
    for name in sorted(APPLICATIONS):
        registry = get_application(name).registry
        print(
            f"{name:<12} {len(registry.queries):>3} query templates, "
            f"{len(registry.updates):>3} update templates",
            file=out,
        )
    return 0


def _cmd_templates(args, out) -> int:
    registry = get_application(args.app).registry
    print(f"# {args.app}: query templates", file=out)
    for template in registry.queries:
        print(f"{template.name:<28} {template.sql}", file=out)
    print(f"\n# {args.app}: update templates", file=out)
    for template in registry.updates:
        print(f"{template.name:<28} {template.sql}", file=out)
    return 0


def _cmd_ipm(args, out) -> int:
    registry = get_application(args.app).registry
    characterization = characterize_application(
        registry, use_integrity_constraints=not args.no_constraints
    )
    print(format_ipm_table(characterization), file=out)
    return 0


def _cmd_analyze(args, out) -> int:
    registry = get_application(args.app).registry
    characterization = characterize_application(
        registry, use_integrity_constraints=not args.no_constraints
    )
    summary = summarize_characterization(args.app, characterization)
    print(format_summary_table([summary]), file=out)
    result = design_exposure_policy(registry)
    print(
        f"\nquery results encryptable at zero scalability cost: "
        f"{result.encrypted_result_count()} of {len(registry.queries)}",
        file=out,
    )
    return 0


def _cmd_methodology(args, out) -> int:
    registry = get_application(args.app).registry
    result = design_exposure_policy(registry)
    print(f"# {args.app}: exposure levels (initial -> final)", file=out)
    for name, (initial, final) in sorted(
        result.exposure_reduction_summary().items()
    ):
        marker = "   [reduced]" if initial != final else ""
        print(f"{name:<28} {initial:>8} -> {final}{marker}", file=out)
    print(
        f"\nresidual (Step 3) queries: {', '.join(result.residual_queries)}",
        file=out,
    )
    return 0


def _cmd_scalability(args, out) -> int:
    params = SimulationParams()
    print(
        f"{'strategy':<8} {'hit rate':>9} {'inval/upd':>10} {'max users':>10}",
        file=out,
    )
    rows: list[tuple[StrategyClass, object, int]] = []
    if args.nodes > 1:
        for strategy in StrategyClass:
            behavior = _cluster_behavior(args, strategy)
            users = find_scalability(params, behavior=behavior)
            rows.append((strategy, behavior, users))
    else:
        # Single-node strategies are independent cells: sweep them across
        # worker processes when the host has the CPUs for it.
        tasks = [
            SweepTask(
                app_name=args.app,
                strategy=strategy,
                pages=args.pages,
                scale=args.scale,
                tag=strategy,
            )
            for strategy in StrategyClass
        ]
        for cell in run_sweep(tasks, params=params, workers=args.workers):
            rows.append((cell.tag, cell.behavior, cell.users))
    for strategy, behavior, users in rows:
        print(
            f"{strategy.name:<8} {behavior.hit_rate:>9.3f} "
            f"{behavior.invalidations_per_update:>10.2f} {users:>10}",
            file=out,
        )
    return 0


def _cluster_behavior(args, strategy: StrategyClass):
    from repro.dssp.cluster import DsspCluster, measure_cluster_behavior

    cluster, home, sampler = deploy(
        SweepTask(args.app, strategy, scale=args.scale),
        DsspCluster(nodes=args.nodes),
    )
    return measure_cluster_behavior(
        cluster, home, sampler, pages=args.pages, seed=5
    )


def _cmd_simulate(args, out) -> int:
    strategy = StrategyClass[args.strategy]
    node, home, sampler = deploy(
        SweepTask(args.app, strategy, scale=args.scale, data_seed=args.seed)
    )
    params = SimulationParams(duration_s=args.duration)
    report = simulate_users(
        node, home, sampler, args.users, params, seed=args.seed
    )
    print(
        f"app={args.app} strategy={strategy.name} users={args.users} "
        f"duration={args.duration:.0f}s",
        file=out,
    )
    print(
        f"pages={report.pages_completed} p90={report.p90:.3f}s "
        f"mean={report.latency.mean:.3f}s hit_rate={report.dssp.hit_rate:.3f}",
        file=out,
    )
    print(
        f"home_utilization={report.home_utilization:.2f} "
        f"dssp_utilization={report.dssp_utilization:.2f} "
        f"sla_met={report.meets_sla(params)}",
        file=out,
    )
    return 0


def _cmd_diagnose(args, out) -> int:
    from repro.analysis.diagnostics import check_runtime_assumptions

    spec = get_application(args.app)
    instance = spec.instantiate(scale=args.scale, seed=args.seed)
    report = check_runtime_assumptions(
        instance.database, instance.sampler, pages=args.pages, seed=args.seed
    )
    print(report.summary(), file=out)
    if report.ineffective_update_examples:
        print("ineffective update examples:", file=out)
        for name, params in report.ineffective_update_examples[:10]:
            print(f"  {name}{params}", file=out)
    if report.empty_result_examples:
        print("empty result examples:", file=out)
        for name, params in report.empty_result_examples[:10]:
            print(f"  {name}{params}", file=out)
    return 0


def _cmd_export(args, out) -> int:
    from repro.export import (
        characterization_to_csv,
        exposure_policy_to_csv,
        methodology_to_csv,
    )

    registry = get_application(args.app).registry
    if args.what == "characterization":
        print(
            characterization_to_csv(characterize_application(registry)),
            file=out,
            end="",
        )
    elif args.what == "methodology":
        print(
            methodology_to_csv(design_exposure_policy(registry)),
            file=out,
            end="",
        )
    else:
        print(
            exposure_policy_to_csv(design_exposure_policy(registry).final),
            file=out,
            end="",
        )
    return 0


# -- networked service layer ---------------------------------------------------------


def _demo_keyring(app: str, master: str):
    """Deterministic keyring both endpoints of a demo can derive."""
    digest = hashlib.sha256(f"{master}:{app}".encode()).digest()
    return Keyring(app, digest)


def _parse_address(text: str) -> tuple[str, int]:
    host, _, port = text.rpartition(":")
    if not host or not port.isdigit():
        raise SystemExit(f"bad address {text!r}: expected HOST:PORT")
    return host, int(port)


def _parse_shards(text: str | None) -> tuple[str, ...] | None:
    if text is None:
        return None
    shards = tuple(part.strip() for part in text.split(",") if part.strip())
    if not shards:
        raise SystemExit(f"bad shard list {text!r}: expected ID,ID,...")
    return shards


def _node_tracer(node_id: str, args):
    """SpanRecorder for a traced process, or None when --span-log is unset."""
    from repro.net.deploy import span_recorder

    return span_recorder(node_id, args.span_log, args.trace_sample)


def _serve(server, banner: str, out) -> int:
    """Run a wire server until SIGINT/SIGTERM; returns an exit code."""
    import asyncio
    import signal

    async def run() -> None:
        host, port = await server.start()
        print(banner.format(host=host, port=port), file=out, flush=True)
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop.set)
            except NotImplementedError:  # non-Unix event loops
                pass
        try:
            await stop.wait()
        finally:
            await server.stop()
        print("clean shutdown", file=out, flush=True)

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("clean shutdown", file=out, flush=True)
    return 0


def _cmd_serve_home(args, out) -> int:
    from repro.net.home_server import HomeNetServer
    from repro.storage.backends import wrap_database

    strategy = StrategyClass[args.strategy]
    spec = get_application(args.app)
    instance = spec.instantiate(scale=args.scale, seed=args.seed)
    policy = ExposurePolicy.uniform(spec.registry, strategy.exposure_level)
    # The backend seam: memory serves the generated instance directly;
    # sqlite copies it into a durable store — unless --db-path already
    # holds data, in which case the file's contents win (restart).
    database = wrap_database(args.backend, instance.database, path=args.db_path)
    home = HomeServer(
        args.app,
        database,
        spec.registry,
        policy,
        _demo_keyring(args.app, args.master),
    )
    server = HomeNetServer(
        home,
        args.host,
        args.port,
        max_in_flight=args.max_in_flight,
        request_timeout_s=args.timeout,
        tracer=_node_tracer("home", args),
    )
    return _serve(
        server,
        f"home[{args.app}] strategy={strategy.name} "
        "listening on {host}:{port}",
        out,
    )


def _cmd_serve_dssp(args, out) -> int:
    from repro.errors import ReproError
    from repro.net.dssp_server import DsspNetServer

    registry = get_application(args.app).registry
    node = DsspNode(
        cache_capacity=args.capacity,
        use_integrity_constraints=not args.no_constraints,
    )
    shards = _parse_shards(args.shards)
    try:
        server = DsspNetServer(
            node,
            args.host,
            args.port,
            node_id=args.node_id,
            max_in_flight=args.max_in_flight,
            request_timeout_s=args.timeout,
            shards=shards,
            tracer=_node_tracer(args.node_id, args),
        )
    except ReproError as error:
        raise SystemExit(f"bad shard set {args.shards!r}: {error}") from None
    server.register_application(args.app, registry, _parse_address(args.home))
    role = f"shard {args.node_id}/{len(shards)}" if shards else args.node_id
    return _serve(
        server,
        f"dssp[{role}] app={args.app} home={args.home} "
        "listening on {host}:{port}",
        out,
    )


def _parse_sweep(text: str) -> list[float]:
    try:
        rates = [float(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise SystemExit(f"bad sweep {text!r}: expected R1,R2,...")
    if not rates or rates != sorted(rates):
        raise SystemExit(f"sweep rates must ascend, got {text!r}")
    return rates


def _cmd_loadgen_scenario(args, out) -> int:
    """In-process scenario run or knee sweep (``--scenario``)."""
    import asyncio
    import pathlib

    from repro.net.scenarios import (
        deploy_scenario,
        run_scenario,
        sweep_scenario,
    )

    duration = args.duration or 2.0
    arrival_seed = (
        args.seed if args.arrival_seed is None else args.arrival_seed
    )
    rates = _parse_sweep(args.sweep) if args.sweep else None

    async def run():
        deployment = await deploy_scenario(
            args.scenario,
            heavy_app=args.app,
            scale=args.scale,
            seed=args.seed,
            trace_pages=args.trace_pages,
            service_latency_s=args.service_latency,
        )
        try:
            if rates is not None:
                return await sweep_scenario(
                    deployment,
                    rates=rates,
                    duration_s=duration,
                    deadline_s=args.deadline,
                    seed=arrival_seed,
                    max_outstanding=args.max_outstanding,
                )
            report = await run_scenario(
                deployment,
                rate=args.rate,
                duration_s=duration,
                seed=arrival_seed,
                max_outstanding=args.max_outstanding,
            )
            return report
        finally:
            await deployment.stop()

    result = asyncio.run(run())
    if rates is not None:
        print(
            f"scenario={args.scenario} app={args.app} "
            f"deadline={args.deadline * 1000:.0f}ms "
            f"duration={result['duration_s']:.1f}s/point",
            file=out,
        )
        print(
            f"{'offered/s':>10} {'achieved/s':>11} {'drop':>6} "
            f"{'p50 ms':>8} {'p90 ms':>8} {'p99 ms':>8} {'errors':>7}",
            file=out,
        )
        for point in result["points"]:
            print(
                f"{point['offered_rate_s']:>10.1f} "
                f"{point['achieved_rate_s']:>11.1f} "
                f"{point['drop_rate']:>6.1%} "
                f"{point['p50_s'] * 1000:>8.1f} "
                f"{point['p90_s'] * 1000:>8.1f} "
                f"{point['p99_s'] * 1000:>8.1f} "
                f"{point['errors']:>7}",
                file=out,
            )
        knee = result["knee_rate_s"]
        print(
            "knee: "
            + (
                f"{knee:.1f} pages/s offered with p99 under the deadline"
                if knee is not None
                else "not reached (first point already over the deadline)"
            ),
            file=out,
        )
    else:
        report = result
        print(
            f"scenario={args.scenario} app={args.app} "
            f"rate={args.rate:.1f}/s seed={arrival_seed}",
            file=out,
        )
        print(report.summary(), file=out)
        print(f"arrival digest: {report.arrival['digest']}", file=out)
        if report.per_app:
            for app, books in sorted(report.per_app.items()):
                print(
                    f"  app[{app}] offered={books['offered']} "
                    f"pages={books['pages']} dropped={books['dropped']} "
                    f"errors={books['errors']}",
                    file=out,
                )
        result = report.to_dict()
    if args.report is not None:
        pathlib.Path(args.report).write_text(
            json.dumps(result, indent=2, default=str)
        )
        print(f"report written to {args.report}", file=out)
    return 0


def _cmd_loadgen(args, out) -> int:
    import asyncio
    import pathlib

    from repro.crypto.envelope import EnvelopeCodec
    from repro.net.client import WireClient
    from repro.net.deploy import Deployment
    from repro.net.loadgen import TenantWorkload, run_load, run_open_load
    from repro.simulation import SimulationParams
    from repro.simulation.scalability import predict_p90
    from repro.workloads.trace import Trace, record_trace

    if args.pages is not None and (args.scenario or args.arrival):
        raise SystemExit(
            "--pages applies to closed-loop runs only; open-loop runs "
            "(--scenario, --arrival) are bounded by --duration"
        )
    if args.scenario is not None:
        return _cmd_loadgen_scenario(args, out)
    if not args.dssp:
        raise SystemExit("loadgen needs --dssp HOST:PORT (or --scenario)")
    placement = None
    if args.shards is not None:
        from repro.dssp.placement import Placement
        from repro.errors import CacheError

        try:
            placement = Placement(_parse_shards(args.shards), sharded=True)
        except CacheError as error:
            raise SystemExit(
                f"bad shard set {args.shards!r}: {error}"
            ) from None
        if len(placement.node_ids) != len(args.dssp):
            raise SystemExit(
                f"--shards names {len(placement.node_ids)} shards but "
                f"--dssp gives {len(args.dssp)} addresses; they must pair "
                "up in order"
            )
    if args.pages is None and args.duration is None:
        args.duration = 5.0
    strategy = StrategyClass[args.strategy]
    spec = get_application(args.app)
    policy = ExposurePolicy.uniform(spec.registry, strategy.exposure_level)
    codec = EnvelopeCodec(_demo_keyring(args.app, args.master))

    trace_path = pathlib.Path(args.trace) if args.trace else None
    if trace_path is not None and trace_path.exists():
        trace = Trace.from_json(trace_path.read_text())
        print(f"replaying {len(trace)}-page trace {trace_path}", file=out)
    else:
        sampler = spec.instantiate(scale=args.scale, seed=args.seed).sampler
        trace = record_trace(
            sampler, args.trace_pages, seed=args.seed, application=args.app
        )
        if trace_path is not None:
            trace_path.write_text(trace.to_json())
            print(f"recorded {len(trace)}-page trace to {trace_path}", file=out)
    trace.bind(spec.registry)
    schedule = hot_page = None
    if args.arrival is not None:
        from repro.net.traffic import make_arrivals

        arrival_seed = (
            args.seed if args.arrival_seed is None else args.arrival_seed
        )
        arrivals = make_arrivals(args.arrival, args.rate, arrival_seed)
        schedule = arrivals.schedule(args.duration)
        if args.arrival == "flash_crowd":
            from repro.net.scenarios import hot_query_page

            hot_page = hot_query_page(trace, spec.registry)
    workload = TenantWorkload(
        args.app, codec, policy, trace, hot_page=hot_page
    )

    chaos_log = None
    chaos_plan = None
    if args.chaos_seed is not None:
        from repro.net.chaos import ChaosLog, FaultPlan

        chaos_plan = FaultPlan.uniform(args.chaos_seed, args.fault_rate)
        chaos_log = ChaosLog()

    tracer = _node_tracer("client", args)

    async def run():
        fleet = Deployment(
            nodes=[_parse_address(address) for address in args.dssp],
            pipeline=args.pipeline,
            plan=chaos_plan,
            log=chaos_log,
        )
        if tracer is not None:
            fleet.tracers["client"] = tracer
        on_page = None
        if chaos_plan is not None and args.kill_every:

            async def on_page(completed):
                if completed % args.kill_every == 0:
                    for handle in fleet.handles:
                        await handle.client_proxy.kill_connections()

        async with fleet:
            drivers = fleet.clients
            if placement is not None:
                from repro.net.router import ShardRouter

                # One router fronts the whole cluster: every client lane
                # routes by placement key instead of pinning to one node.
                drivers = [ShardRouter(placement, fleet.clients)]
            if schedule is not None:
                return await run_open_load(
                    drivers,
                    [workload],
                    schedule,
                    max_outstanding=args.max_outstanding,
                    on_page=on_page,
                )
            return await run_load(
                drivers,
                workload,
                clients=args.clients,
                pages=args.pages,
                duration_s=args.duration,
                pipeline=args.pipeline or 1,
                on_page=on_page,
            )

    async def fetch_stats():
        snapshots = []
        for address in args.dssp:
            client = WireClient(*_parse_address(address))
            try:
                snapshots.append(await client.stats())
            finally:
                await client.aclose()
        return snapshots

    def sum_invalidations(snapshots) -> int:
        return sum(
            int(
                snapshot.get("dssp", {}).get("stats", {}).get(
                    "invalidations", 0
                )
            )
            for snapshot in snapshots
        )

    # The nodes' counters are cumulative, so the run's own invalidation
    # count is the delta between a pre-run baseline and the post-run
    # snapshot; both fetches are best-effort reporting.
    baseline_invalidations = None
    if not args.no_server_stats:
        try:
            baseline_invalidations = sum_invalidations(
                asyncio.run(fetch_stats())
            )
        except Exception as error:
            print(f"server stats baseline unavailable: {error}", file=out)

    report = asyncio.run(run())
    if tracer is not None:
        from repro.obs.assemble import phase_aggregates

        report = report.with_phases(
            phase_aggregates(list(tracer.sink.spans))
        )
        print(
            f"span log: {args.span_log} ({len(tracer.sink)} spans)", file=out
        )
    print(
        f"app={args.app} strategy={strategy.name} clients={args.clients} "
        f"pipeline={args.pipeline or 1} "
        f"nodes={len(args.dssp)} duration={report.duration_s:.2f}s",
        file=out,
    )
    print(report.summary(), file=out)
    # Server-side view of the same run: the nodes' own counters should
    # corroborate what the client loops observed.
    server_snapshots = []
    if not args.no_server_stats:
        try:
            server_snapshots = asyncio.run(fetch_stats())
        except Exception as error:  # stats are best-effort reporting
            print(f"server stats unavailable: {error}", file=out)
        if server_snapshots and baseline_invalidations is not None:
            delta = (
                sum_invalidations(server_snapshots) - baseline_invalidations
            )
            if delta >= 0:
                report = report.with_invalidations(delta)
    predicted = None
    profilable = report.pages and (
        not report.updates or report.invalidations is not None
    )
    if profilable:
        behavior = report.behavior()
        predicted = predict_p90(args.clients, SimulationParams(), behavior)
        print(
            f"analytic cross-check: predict_p90({args.clients} users) = "
            f"{predicted:.3f}s with invalidations_per_update="
            f"{behavior.invalidations_per_update:.2f} "
            f"(model WAN/SLA units, not localhost time)",
            file=out,
        )
    elif report.pages:
        print(
            "analytic cross-check skipped: updates ran but server-side "
            "invalidations were not measured",
            file=out,
        )
    if not args.no_server_stats:
        for snapshot in server_snapshots:
            dssp = snapshot.get("dssp", {}).get("stats", {})
            print(
                f"server[{snapshot.get('node_id', '?')}] "
                f"hits={dssp.get('hits', 0)} "
                f"misses={dssp.get('misses', 0)} "
                f"hit_rate={dssp.get('hit_rate', 0.0):.3f} "
                f"invalidations={dssp.get('invalidations', 0)}",
                file=out,
            )
    if chaos_log is not None:
        print(f"chaos faults: {chaos_log.counts() or 'none'}", file=out)
    if args.report is not None:
        combined = {
            "client": report.to_dict(),
            "servers": server_snapshots,
            "predict_p90_s": predicted,
        }
        if chaos_log is not None:
            combined["chaos"] = json.loads(chaos_log.to_json())
        pathlib.Path(args.report).write_text(
            json.dumps(combined, indent=2, default=str)
        )
        print(f"report written to {args.report}", file=out)
    return 0


def _cmd_chaos(args, out) -> int:
    import asyncio
    import pathlib

    from repro.net.chaos import FaultPlan
    from repro.net.oracle import run_chaos
    from repro.workloads.trace import record_trace

    strategy = StrategyClass[args.strategy]
    spec = get_application(args.app)
    instance = spec.instantiate(scale=args.scale, seed=args.seed)
    policy = ExposurePolicy.uniform(spec.registry, strategy.exposure_level)
    trace = record_trace(
        instance.sampler, args.pages, seed=args.seed, application=args.app
    )
    if args.scenario == "flash_crowd":
        from repro.net.scenarios import flash_crowd_trace

        # Same seeded reshaping the open-loop scenario uses: mid-run
        # pages pile onto the hottest query, and the oracle's reference
        # replay sees the identical stream.
        trace = flash_crowd_trace(trace, spec.registry, seed=args.seed)
    if args.kill_target == "home":
        targets: tuple[str, ...] = ("home",)
    elif args.kill_target == "dssp":
        targets = tuple(f"dssp-{i}" for i in range(args.nodes))
    else:
        targets = ("home",) + tuple(f"dssp-{i}" for i in range(args.nodes))
    plan = FaultPlan.uniform(
        args.chaos_seed,
        args.fault_rate,
        kill_every=args.kill_every,
        kill_targets=targets if args.kill_every else (),
    )
    report, log = asyncio.run(
        run_chaos(
            args.app,
            spec.registry,
            instance.database,
            policy,
            trace,
            plan,
            nodes=args.nodes,
            clients=args.clients,
            pipeline=args.pipeline,
            shards=args.shards,
            backend=args.backend,
            db_path=args.db_path,
            trace_dir=args.span_log,
            trace_sample=args.trace_sample,
        )
    )
    print(
        f"app={args.app} strategy={strategy.name} nodes={args.nodes} "
        f"sharded={args.shards} "
        f"clients={args.clients} pipeline={args.pipeline or 1} "
        f"fault_rate={args.fault_rate} kill_every={args.kill_every}"
        + (f" scenario={args.scenario}" if args.scenario else ""),
        file=out,
    )
    print(report.summary(), file=out)
    print(f"fault counts: {log.counts() or 'none'}", file=out)
    for violation in report.violations:
        print(f"VIOLATION: {violation.to_dict()}", file=out)
    phases = None
    if args.span_log is not None:
        from repro.obs.assemble import load_spans, phase_aggregates

        span_logs = sorted(pathlib.Path(args.span_log).glob("*.spans.jsonl"))
        phases = phase_aggregates(load_spans(span_logs))
        print(
            f"span logs: {len(span_logs)} files in {args.span_log}", file=out
        )
    if args.report is not None:
        path = pathlib.Path(args.report)
        path.parent.mkdir(parents=True, exist_ok=True)
        combined = {
            "oracle": report.to_dict(),
            "fault_log": json.loads(log.to_json()),
        }
        if phases is not None:
            combined["phases"] = phases
        path.write_text(json.dumps(combined, indent=2, default=str))
        print(f"report written to {args.report}", file=out)
    return 0 if report.ok else 1


def _cmd_stats(args, out) -> int:
    import asyncio

    from repro.net.client import WireClient

    async def fetch_all():
        snapshots = []
        for address in args.addresses:
            client = WireClient(
                *_parse_address(address), request_timeout_s=args.timeout
            )
            try:
                snapshots.append(await client.stats())
            finally:
                await client.aclose()
        return snapshots

    snapshots = asyncio.run(fetch_all())
    if args.prom:
        from repro.obs import render_prometheus_fleet

        parts = [
            (
                snapshot.get("metrics", {}),
                {"node": str(snapshot.get("node_id", "unknown"))},
            )
            for snapshot in snapshots
        ]
        print(render_prometheus_fleet(parts), file=out, end="")
        return 0
    if len(snapshots) == 1:
        print(json.dumps(snapshots[0], indent=2, sort_keys=True), file=out)
        return 0
    from repro.obs import merge_snapshots

    combined = {
        "nodes": snapshots,
        "fleet": merge_snapshots(
            *(snapshot.get("metrics", {}) for snapshot in snapshots)
        ),
    }
    print(json.dumps(combined, indent=2, sort_keys=True), file=out)
    return 0


def _print_trace_tree(tree, out) -> None:
    print(
        f"trace {tree.trace_id}: {tree.duration_s * 1000:.2f}ms, "
        f"{len(tree.spans)} spans on {len(tree.node_ids)} nodes",
        file=out,
    )

    def walk(node, depth):
        span = node.span
        line = (
            f"{'  ' * depth}{span.name} [{span.node}] "
            f"{span.duration_s * 1000:.2f}ms"
        )
        if span.status != "ok":
            line += f" status={span.status}"
        if span.attrs:
            details = " ".join(
                f"{key}={value}" for key, value in sorted(span.attrs.items())
            )
            line += f" {details}"
        print(line, file=out)
        for child in node.children:
            walk(child, depth + 1)

    for root in sorted(tree.roots, key=lambda node: node.span.start_s):
        walk(root, 0)


def _cmd_trace(args, out) -> int:
    from repro.obs.assemble import (
        assemble,
        critical_path,
        load_spans,
        summarize,
    )

    trees = assemble(load_spans(args.logs))
    if args.trace is not None:
        tree = trees.get(args.trace)
        if tree is None:
            print(f"trace {args.trace!r} not found in span logs", file=out)
            return 1
        path = critical_path(tree)
        if args.json:
            report = {
                "trace": tree.trace_id,
                "duration_s": tree.duration_s,
                "complete_update": tree.is_complete_update(),
                "spans": [span.to_dict() for span in tree.spans],
                "critical_path": path,
            }
            print(json.dumps(report, indent=2), file=out)
            return 0
        _print_trace_tree(tree, out)
        print(
            f"\ncritical path (covers {path['covered_s'] * 1000:.2f}ms of "
            f"{path['total_s'] * 1000:.2f}ms):",
            file=out,
        )
        for entry in path["entries"]:
            print(
                f"  {entry['name']:<22} {entry['node']:<10} "
                f"{entry['self_s'] * 1000:>9.3f}ms "
                f"{entry['share'] * 100:>5.1f}%",
                file=out,
            )
        return 0
    summary = summarize(trees, slowest=args.slowest)
    if args.json:
        print(json.dumps(summary, indent=2), file=out)
        return 0
    print(
        f"traces={summary['traces']} spans={summary['spans']} "
        f"nodes={','.join(summary['nodes']) or 'none'} "
        f"complete_update_traces={summary['complete_update_traces']}",
        file=out,
    )
    print(
        f"\n{'phase':<22} {'count':>6} {'mean ms':>9} {'p50 ms':>9} "
        f"{'p90 ms':>9} {'p99 ms':>9} {'max ms':>9}",
        file=out,
    )
    for name, aggregate in summary["phases"].items():
        print(
            f"{name:<22} {aggregate['count']:>6} "
            f"{aggregate['mean_s'] * 1000:>9.3f} "
            f"{aggregate['p50_s'] * 1000:>9.3f} "
            f"{aggregate['p90_s'] * 1000:>9.3f} "
            f"{aggregate['p99_s'] * 1000:>9.3f} "
            f"{aggregate['max_s'] * 1000:>9.3f}",
            file=out,
        )
    if summary["slowest"]:
        print("\nslowest traces (self-time critical path):", file=out)
    for entry in summary["slowest"]:
        print(
            f"  {entry['trace']} {entry['duration_s'] * 1000:>8.2f}ms "
            f"root={entry['root']} spans={entry['spans']}",
            file=out,
        )
        for step in entry["critical_path"]:
            print(
                f"      {step['name']:<22} {step['node']:<10} "
                f"{step['self_s'] * 1000:>8.3f}ms "
                f"({step['share'] * 100:.0f}%)",
                file=out,
            )
    return 0


_COMMANDS = {
    "apps": _cmd_apps,
    "templates": _cmd_templates,
    "ipm": _cmd_ipm,
    "analyze": _cmd_analyze,
    "methodology": _cmd_methodology,
    "scalability": _cmd_scalability,
    "simulate": _cmd_simulate,
    "diagnose": _cmd_diagnose,
    "export": _cmd_export,
    "serve-home": _cmd_serve_home,
    "serve-dssp": _cmd_serve_dssp,
    "loadgen": _cmd_loadgen,
    "chaos": _cmd_chaos,
    "stats": _cmd_stats,
    "trace": _cmd_trace,
}


def main(argv: list[str] | None = None, out=None) -> int:
    """Entry point; returns a process exit code."""
    from repro.obs import configure_logging

    out = out or sys.stdout
    args = build_parser().parse_args(argv)
    configure_logging(level=args.log_level, json_mode=args.log_json)
    return _COMMANDS[args.command](args, out)
