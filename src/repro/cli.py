"""Command-line interface: run any of the paper's experiments directly.

Examples::

    repro quickstart --n 200
    repro figure 2 --n 500 --messages 100
    repro figure table1
    repro healing --n 300 --failures 0.5 0.8
    repro ablation passive --n 300
    repro compare --n 300 --failures 0.3 0.6 0.8
    repro bench --tier smoke --workers 2 --out benchmarks/results
    repro bench --tier paper --scenario fig2_reliability
    repro bench --list

Every command prints the same plain-text reports the benchmark harness
writes to ``benchmarks/results/``; scale and seed are flags, so the full
paper-scale run is ``--n 10000 --messages 1000 --paper-params``.  The
``bench`` subcommand drives the parallel orchestrator over the tiered
scenario registry and persists ``BENCH_<scenario>.json`` artifacts.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
from typing import Optional, Sequence

from .common.errors import ConfigurationError
from .experiments.ablations import (
    default_passive_sizes,
    run_passive_size_ablation,
    run_resend_ablation,
    run_shuffle_ttl_ablation,
)
from .experiments.failures import (
    FIGURE2_FRACTIONS,
    FIGURE3_FRACTIONS,
    PAPER_PROTOCOLS,
    run_failure_experiment,
    stabilized_scenario,
)
from .experiments.fanout import FIGURE1_FANOUTS, hyparview_reference_point, run_fanout_sweep
from .experiments.graphprops import TABLE1_PROTOCOLS, run_graph_properties
from .experiments.healing import FIGURE4_PROTOCOLS, run_healing_experiment
from .experiments.params import ExperimentParams
from .experiments.registry import REGISTRY, TIER_NAMES, get_scenario
from .experiments.reporting import (
    format_histogram,
    format_series,
    format_table,
    sparkline,
)
from .experiments.scenario import Scenario


def _params(args: argparse.Namespace) -> ExperimentParams:
    if getattr(args, "paper_params", False):
        return ExperimentParams.paper(n=args.n, seed=args.seed)
    return ExperimentParams.scaled(args.n, seed=args.seed)


def _add_scale_flags(parser: argparse.ArgumentParser, default_n: int = 500) -> None:
    parser.add_argument("--n", type=int, default=default_n, help="system size")
    parser.add_argument("--seed", type=int, default=42, help="root random seed")
    parser.add_argument(
        "--paper-params",
        action="store_true",
        help="use the exact Section 5.1 view sizes regardless of --n",
    )


# ----------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------
def cmd_quickstart(args: argparse.Namespace) -> int:
    params = _params(args)
    print(f"building a {params.n}-node HyParView overlay (seed {params.seed}) ...")
    scenario = Scenario("hyparview", params)
    scenario.build_overlay()
    scenario.stabilize()
    summaries = scenario.send_broadcasts(args.messages)
    snapshot = scenario.snapshot()
    print(
        format_table(
            ["metric", "value"],
            [
                ["nodes", params.n],
                ["avg reliability", sum(s.reliability for s in summaries) / len(summaries)],
                ["max hops", max(s.max_hops for s in summaries)],
                ["connected", str(snapshot.is_connected())],
                ["symmetry", snapshot.symmetry_fraction()],
                ["avg clustering", snapshot.average_clustering()],
            ],
            title="quickstart",
        )
    )
    return 0


def cmd_figure(args: argparse.Namespace) -> int:
    params = _params(args)
    name = args.which
    if name in ("1a", "1b"):
        protocol = "cyclon" if name == "1a" else "scamp"
        points = run_fanout_sweep(protocol, FIGURE1_FANOUTS, params, messages=args.messages)
        reference = hyparview_reference_point(params, messages=args.messages)
        rows = [[p.fanout, p.average_reliability, p.atomic_fraction] for p in points]
        rows.append(["flood", reference.average_reliability, reference.atomic_fraction])
        print(
            format_table(
                ["fanout", "avg reliability", "atomic"],
                rows,
                title=f"Figure {name} — {protocol} fanout sweep (n={params.n})",
            )
        )
        return 0
    if name == "1c":
        for protocol in ("cyclon", "scamp"):
            result = run_failure_experiment(protocol, params, 0.5, args.messages)
            print(f"\n{protocol}: avg={result.average:.3f}  {sparkline(result.series)}")
            print(format_series(result.series))
        return 0
    if name == "2":
        rows = []
        for fraction in FIGURE2_FRACTIONS:
            rows.append([f"{fraction:.0%}"])
        for protocol in PAPER_PROTOCOLS:
            base = stabilized_scenario(protocol, params)
            print(f"  measured {protocol}", file=sys.stderr)
            for index, fraction in enumerate(FIGURE2_FRACTIONS):
                result = run_failure_experiment(
                    protocol, params, fraction, args.messages, base=base
                )
                rows[index].append(result.average)
        print(
            format_table(
                ["failure %"] + list(PAPER_PROTOCOLS),
                rows,
                title=f"Figure 2 — avg reliability (n={params.n}, {args.messages} msgs)",
            )
        )
        return 0
    if name == "3":
        for protocol in PAPER_PROTOCOLS:
            base = stabilized_scenario(protocol, params)
            for fraction in FIGURE3_FRACTIONS:
                result = run_failure_experiment(
                    protocol, params, fraction, args.messages, base=base
                )
                print(
                    f"{protocol:13s} {fraction:4.0%}  avg={result.average:.3f} "
                    f"tail={result.tail_average():.3f}  {sparkline(result.series)}"
                )
        return 0
    if name == "5":
        for protocol in TABLE1_PROTOCOLS:
            result = run_graph_properties(protocol, params, messages=5)
            print()
            print(format_histogram(result.in_degree_histogram, title=f"{protocol}:"))
        return 0
    if name == "table1":
        rows = []
        for protocol in TABLE1_PROTOCOLS:
            result = run_graph_properties(protocol, params, messages=args.messages)
            rows.append(
                [
                    protocol,
                    f"{result.average_clustering:.6f}",
                    f"{result.path_stats.average:.4f}",
                    f"{result.max_hops_to_delivery:.1f}",
                ]
            )
        print(
            format_table(
                ["protocol", "avg clustering", "avg shortest path", "max hops"],
                rows,
                title=f"Table 1 (n={params.n})",
            )
        )
        return 0
    print(f"unknown figure: {name}", file=sys.stderr)
    return 2


def cmd_healing(args: argparse.Namespace) -> int:
    params = _params(args)
    rows = []
    for protocol in FIGURE4_PROTOCOLS:
        base = stabilized_scenario(protocol, params)
        for fraction in args.failures:
            result = run_healing_experiment(
                protocol, params, fraction, max_cycles=args.max_cycles, base=base
            )
            healed = result.cycles_to_heal
            rows.append(
                [
                    protocol,
                    f"{fraction:.0%}",
                    str(healed) if healed is not None else f">{args.max_cycles}",
                    result.baseline_reliability,
                ]
            )
    print(
        format_table(
            ["protocol", "failure %", "cycles to heal", "baseline"],
            rows,
            title=f"Figure 4 — healing time (n={params.n})",
        )
    )
    return 0


def cmd_ablation(args: argparse.Namespace) -> int:
    params = _params(args)
    if args.which == "passive":
        points = run_passive_size_ablation(
            params, default_passive_sizes(params.hyparview),
            failure_fraction=args.failure, messages=args.messages,
        )
        print(
            format_table(
                ["passive capacity", "avg reliability", "tail", "largest component"],
                [
                    [p.passive_capacity, p.average_reliability, p.tail_reliability,
                     p.largest_component_fraction]
                    for p in points
                ],
                title=f"passive view size ablation ({args.failure:.0%} failures)",
            )
        )
        return 0
    if args.which == "shuffle-ttl":
        points = run_shuffle_ttl_ablation(
            params, (1, 3, 6, 9), failure_fraction=args.failure, messages=args.messages
        )
        print(
            format_table(
                ["shuffle TTL", "clustering", "passive in-degree CV", "recovery avg"],
                [
                    [p.shuffle_ttl, p.average_clustering, p.passive_balance,
                     p.recovery_average]
                    for p in points
                ],
                title="shuffle TTL ablation",
            )
        )
        return 0
    if args.which == "resend":
        points = run_resend_ablation(
            params, failure_fraction=args.failure, messages=args.messages
        )
        print(
            format_table(
                ["resend", "avg reliability", "first-10", "payload msgs"],
                [
                    [str(p.resend_on_repair), p.average_reliability, p.first10_average,
                     p.data_transmissions]
                    for p in points
                ],
                title=f"flood resend ablation ({args.failure:.0%} failures)",
            )
        )
        return 0
    print(f"unknown ablation: {args.which}", file=sys.stderr)
    return 2


def cmd_compare(args: argparse.Namespace) -> int:
    params = _params(args)
    rows = [[f"{fraction:.0%}"] for fraction in args.failures]
    for protocol in PAPER_PROTOCOLS:
        base = stabilized_scenario(protocol, params)
        print(f"  measured {protocol}", file=sys.stderr)
        for index, fraction in enumerate(args.failures):
            result = run_failure_experiment(
                protocol, params, fraction, args.messages, base=base
            )
            rows[index].append(result.average)
    print(
        format_table(
            ["failure %"] + list(PAPER_PROTOCOLS),
            rows,
            title=f"protocol comparison (n={params.n}, {args.messages} msgs)",
        )
    )
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    # Imported lazily: the runner pulls in multiprocessing machinery the
    # lightweight figure commands never need.
    from .experiments.runner import profile_unit, run_and_report

    if args.list:
        rows = [
            [spec.id, spec.group, ", ".join(sorted(spec.tiers)), spec.title]
            for spec in sorted(REGISTRY.values(), key=lambda s: s.id)
        ]
        print(format_table(["scenario", "group", "tiers", "title"], rows,
                           title="registered scenarios"))
        return 0
    if args.estimate is not None:
        from .experiments.estimate import run_estimate

        return run_estimate(args.estimate, args.scenario)
    if args.scenario:
        scenario_ids = []
        for scenario_id in args.scenario:
            spec = get_scenario(scenario_id)  # raises with the available ids
            if args.tier not in spec.tiers:
                raise ConfigurationError(
                    f"scenario {scenario_id!r} has no {args.tier!r} tier "
                    f"(available: {', '.join(sorted(spec.tiers))})"
                )
            if scenario_id not in scenario_ids:
                scenario_ids.append(scenario_id)
    else:
        # An unfiltered run takes whatever provides the requested tier.
        scenario_ids = [
            scenario_id
            for scenario_id in sorted(REGISTRY)
            if args.tier in get_scenario(scenario_id).tiers
        ]
    if not scenario_ids:
        print(f"no scenario provides tier {args.tier!r}", file=sys.stderr)
        return 2
    if args.profile:
        # One work unit under cProfile, in-process; no artifacts.
        profile_unit(
            scenario_ids[0],
            args.tier,
            root_seed=args.seed,
            n=args.n,
            messages=args.messages,
            unit_index=args.profile_unit,
        )
        return 0
    runs = run_and_report(
        scenario_ids,
        args.tier,
        workers=args.workers,
        root_seed=args.seed,
        n=args.n,
        messages=args.messages,
        replicates=args.replicates,
        cells=args.cells != "off",
        snapshot_cache=not args.no_snapshot_cache,
        trace=args.trace,
        trace_dir=args.trace_out,
        out_dir=None if args.no_artifacts else args.out,
        timings_dir=args.timings_out,
        check=args.check,
    )
    for run in runs.values():
        print(f"\n===== {run.spec.id} =====")
        print(run.render())
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Run one scenario with dissemination tracing and inspect the result.

    Summary mode (default) prints one row per traced message: deliveries,
    tree depth, fan-out, redundancy, time-to-full-delivery.  With
    ``--message`` it dumps the reconstructed broadcast tree of one message
    as Chrome trace-event JSON (``chrome://tracing`` / Perfetto).
    """
    import json

    # Imported lazily, mirroring cmd_bench: the orchestrator pulls in
    # multiprocessing machinery the figure commands never need.
    from .experiments.runner import run_scenarios
    from .obs.trace import DisseminationTrace

    spec = get_scenario(args.scenario)  # raises with the available ids
    if args.tier not in spec.tiers:
        raise ConfigurationError(
            f"scenario {args.scenario!r} has no {args.tier!r} tier "
            f"(available: {', '.join(sorted(spec.tiers))})"
        )
    traces: dict[str, list] = {}
    run_scenarios(
        [args.scenario],
        args.tier,
        workers=args.workers,
        root_seed=args.seed,
        n=args.n,
        messages=args.messages,
        replicates=args.replicates,
        cells=args.cells != "off",
        snapshot_cache=not args.no_snapshot_cache,
        trace=True,
        traces=traces,
        progress=lambda note: print(f"  [{args.tier}] {note}", file=sys.stderr),
    )
    entries = traces.get(args.scenario, [])
    entry = next((e for e in entries if e["replicate"] == args.replicate), None)
    if entry is None:
        raise ConfigurationError(
            f"replicate {args.replicate} not traced "
            f"(have {[e['replicate'] for e in entries]})"
        )
    view = DisseminationTrace(entry["segments"])
    if args.message is not None:
        try:
            message = view.message(args.message)
        except KeyError as error:
            raise ConfigurationError(
                f"{error.args[0]} — run without --message for the id list"
            ) from error
        payload = json.dumps(message.chrome_trace(), indent=2, sort_keys=True) + "\n"
        if args.out is not None:
            args.out.parent.mkdir(parents=True, exist_ok=True)
            args.out.write_text(payload)
            print(f"wrote {args.out}", file=sys.stderr)
        else:
            print(payload, end="")
        return 0
    print(
        format_table(
            [
                "message",
                "deliveries",
                "depth",
                "max fanout",
                "redundant",
                "acks",
                "drops",
                "t_full (s)",
            ],
            view.summary_rows(),
            title=(
                f"dissemination trace: {args.scenario} tier={args.tier} "
                f"replicate={args.replicate}"
            ),
        )
    )
    print(
        f"{view.segment_count} segment(s), {view.record_count} record(s), "
        f"{view.dropped_records} dropped"
    )
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    """Live-cluster chaos demo: one fault plan against loopback TCP.

    Spins up a real :class:`LocalCluster`, replays a partition / crash /
    flash-restart plan through :class:`ChaosController`, and probes
    delivery before, during and after the faults — the same plan
    vocabulary the ``faults_*`` simulator scenarios use.
    """
    # Imported lazily: asyncio runtime machinery that the simulator
    # commands never need.
    import asyncio

    from .faults.chaos import ChaosController, reject_simulator_only
    from .faults.plan import (
        CrashEvent,
        FaultPlan,
        PartitionEvent,
        RestartEvent,
        plan_from_file,
    )
    from .runtime.cluster import LocalCluster

    if args.plan is not None:
        plan = plan_from_file(args.plan)
    else:
        plan = FaultPlan(
            events=(
                PartitionEvent(at=0.0, weights=(0.5, 0.5), heal_at=1.0, rejoin=3),
                CrashEvent(at=1.5, fraction=0.25),
                RestartEvent(at=2.0, fraction=1.0),
            ),
            label="chaos-demo",
        )
    # Reject impossible plans before a single socket is opened — the
    # structured ConfigurationError surfaces as `error: ...`, exit 2.
    plan.validate_for(args.nodes)
    reject_simulator_only(plan)

    async def demo() -> list[list[object]]:
        cluster = LocalCluster(args.nodes, base_seed=args.seed)
        await cluster.start()
        rows: list[list[object]] = []

        async def probe(label: str) -> None:
            origin = cluster.alive_nodes()[0]
            message_id = origin.broadcast(label)
            await asyncio.sleep(args.settle)
            rows.append(
                [label, cluster.delivery_count(message_id),
                 len(cluster.alive_nodes())]
            )

        controller = ChaosController(
            cluster, plan, time_scale=args.time_scale, seed=args.seed
        )
        await probe("before")
        chaos = asyncio.create_task(controller.run())
        await asyncio.sleep(0.4 * args.time_scale)
        await probe("partitioned")
        await chaos
        await asyncio.sleep(args.settle)
        await probe("after")
        await cluster.stop()
        for at, description in controller.applied:
            print(f"  t={at:g}  {description}", file=sys.stderr)
        return rows

    budget = (plan.horizon + 1.0) * args.time_scale + 4 * args.settle + 30.0
    rows = asyncio.run(asyncio.wait_for(demo(), timeout=budget))
    print(
        format_table(
            ["probe", "delivered", "alive"],
            rows,
            title=f"repro chaos — {args.nodes} loopback-TCP nodes, plan: "
            f"{'; '.join(plan.describe())}",
        )
    )
    return 0


def cmd_service_bench(args: argparse.Namespace) -> int:
    """Sustained-throughput live benchmark of the pub/sub service layer.

    Many multiplexed clients publish on a few topics over a loopback-TCP
    cluster while (by default) one node crashes mid-run and restarts on
    the *same* port — exercising the epoch handshake, circuit breakers
    and per-phase latency measurement end to end.
    """
    # Imported lazily: asyncio runtime machinery that the simulator
    # commands never need.
    import asyncio

    from .service.bench import format_report, run_service_bench, write_artifacts

    budget = args.duration * 3.0 + 60.0
    report = asyncio.run(
        asyncio.wait_for(
            run_service_bench(
                nodes=args.nodes,
                clients=args.clients,
                topics=args.topics,
                duration=args.duration,
                rate=args.rate,
                seed=args.seed,
                chaos=not args.no_chaos,
                metrics_port=args.metrics_port,
            ),
            timeout=budget,
        )
    )
    print(format_report(report))
    if args.out is not None:
        for path in write_artifacts(report, args.out):
            print(f"wrote {path}", file=sys.stderr)
    if report["staleness"]["stale_deliveries"]:
        print(
            f"error: {report['staleness']['stale_deliveries']} stale-incarnation "
            "deliveries reached clients",
            file=sys.stderr,
        )
        return 1
    return 0


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="HyParView (DSN 2007) reproduction — experiments CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("quickstart", help="build an overlay, broadcast, report")
    _add_scale_flags(p, default_n=200)
    p.add_argument("--messages", type=int, default=10)
    p.set_defaults(func=cmd_quickstart)

    p = sub.add_parser("figure", help="reproduce a figure/table of the paper")
    p.add_argument("which", choices=["1a", "1b", "1c", "2", "3", "5", "table1"])
    _add_scale_flags(p)
    p.add_argument("--messages", type=int, default=50)
    p.set_defaults(func=cmd_figure)

    p = sub.add_parser("healing", help="Figure 4 — healing time")
    _add_scale_flags(p)
    p.add_argument("--failures", type=float, nargs="+", default=[0.3, 0.6, 0.9])
    p.add_argument("--max-cycles", type=int, default=30)
    p.set_defaults(func=cmd_healing)

    p = sub.add_parser("ablation", help="design-choice ablations")
    p.add_argument("which", choices=["passive", "shuffle-ttl", "resend"])
    _add_scale_flags(p, default_n=300)
    p.add_argument("--failure", type=float, default=0.8)
    p.add_argument("--messages", type=int, default=30)
    p.set_defaults(func=cmd_ablation)

    p = sub.add_parser("compare", help="head-to-head reliability comparison")
    _add_scale_flags(p, default_n=300)
    p.add_argument("--failures", type=float, nargs="+", default=[0.3, 0.6, 0.8])
    p.add_argument("--messages", type=int, default=30)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser(
        "bench",
        help="run registered scenarios through the parallel orchestrator",
    )
    p.add_argument(
        "--tier", choices=list(TIER_NAMES), default="smoke",
        help="scale tier: smoke (CI), paper (DSN'07 figures) or full",
    )
    p.add_argument(
        "--workers", type=int, default=1,
        help="worker processes to shard replicates across",
    )
    p.add_argument(
        "--scenario", action="append", metavar="ID",
        help="run only this scenario (repeatable); default: all registered",
    )
    p.add_argument("--seed", type=int, default=42, help="sweep root seed")
    p.add_argument(
        "--n", type=int, default=None,
        help="override the tier's system size (disables paper params)",
    )
    p.add_argument(
        "--messages", type=int, default=None,
        help="override the tier's messages per measurement batch",
    )
    p.add_argument(
        "--replicates", type=int, default=None,
        help="override the tier's replicate count",
    )
    p.add_argument(
        "--cells", choices=["auto", "off"], default="auto",
        help="auto (default): shard grid scenarios into per-cell work "
        "units; off: one work unit per replicate (PR-1 behaviour). "
        "Artifacts are byte-identical either way.",
    )
    p.add_argument(
        "--no-snapshot-cache", action="store_true",
        help="rebuild every stabilised base overlay instead of serving "
        "frozen snapshots from the per-worker cache (slower, identical "
        "artifacts; for debugging/verification)",
    )
    p.add_argument(
        "--profile", action="store_true",
        help="run one work unit under cProfile and print the top 20 "
        "functions by cumulative time (combine with --scenario/--tier; "
        "no artifacts are written)",
    )
    p.add_argument(
        "--profile-unit", type=int, default=0, metavar="INDEX",
        help="which work unit --profile profiles (default: the first)",
    )
    p.add_argument(
        "--out", type=pathlib.Path, default=pathlib.Path("benchmarks/results"),
        help="directory for BENCH_<scenario>.json artifacts",
    )
    p.add_argument(
        "--no-artifacts", action="store_true",
        help="print reports without writing JSON artifacts (suppresses "
        "TIMINGS files too unless --timings-out is given)",
    )
    p.add_argument(
        "--timings-out", type=pathlib.Path, default=None, metavar="DIR",
        help="directory for TIMINGS_<scenario>.json wall-clock records "
        "(default: the --out directory; these are intentionally "
        "non-deterministic and uploaded separately by CI)",
    )
    p.add_argument(
        "--check", action="store_true",
        help="run each scenario's shape assertions on the results",
    )
    p.add_argument(
        "--trace", action="store_true",
        help="collect dissemination traces and write TRACE_/METRICS_ "
        "files alongside (never into) the BENCH artifacts; traces are "
        "deterministic but live in their own files",
    )
    p.add_argument(
        "--trace-out", type=pathlib.Path, default=None, metavar="DIR",
        help="directory for TRACE_/METRICS_ files (default: the --out "
        "directory)",
    )
    p.add_argument(
        "--list", action="store_true",
        help="list registered scenarios and exit",
    )
    p.add_argument(
        "--estimate", type=pathlib.Path, default=None, metavar="DIR",
        help="dry run: project each scenario's paper-tier wall-clock from "
        "the smoke-tier TIMINGS_*.json under DIR and print a 6-hour "
        "budget verdict; nothing is executed (combine with --scenario "
        "to restrict the projection)",
    )
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser(
        "trace",
        help="trace one scenario's dissemination and reconstruct broadcast trees",
    )
    p.add_argument(
        "--scenario", default="fig2_reliability", metavar="ID",
        help="scenario to trace (default: fig2_reliability)",
    )
    p.add_argument(
        "--tier", choices=list(TIER_NAMES), default="smoke",
        help="scale tier (default: smoke)",
    )
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes (traces are identical at any count)")
    p.add_argument("--seed", type=int, default=42, help="sweep root seed")
    p.add_argument("--n", type=int, default=None,
                   help="override the tier's system size")
    p.add_argument("--messages", type=int, default=None,
                   help="override the tier's messages per measurement batch")
    p.add_argument("--replicates", type=int, default=None,
                   help="override the tier's replicate count")
    p.add_argument("--replicate", type=int, default=0,
                   help="which replicate to inspect (default: 0)")
    p.add_argument("--cells", choices=["auto", "off"], default="auto",
                   help="cell sharding (traces are identical either way)")
    p.add_argument("--no-snapshot-cache", action="store_true",
                   help="rebuild stabilised bases instead of thawing cached "
                   "snapshots (traces are identical either way)")
    p.add_argument(
        "--message", default=None, metavar="KEY",
        help="dump one message's broadcast tree as Chrome trace JSON; KEY "
        "is a 'segment/origin#seq' id from the summary table (a bare id "
        "works when unique)",
    )
    p.add_argument(
        "--out", type=pathlib.Path, default=None, metavar="FILE",
        help="write the Chrome trace JSON here instead of stdout "
        "(only with --message)",
    )
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser(
        "chaos",
        help="live-cluster fault-plan demo (loopback TCP + ChaosController)",
    )
    p.add_argument("--nodes", type=int, default=8, help="cluster size")
    p.add_argument(
        "--plan", type=pathlib.Path, default=None, metavar="FILE",
        help="JSON fault plan to replay (default: the built-in demo plan)",
    )
    p.add_argument(
        "--time-scale", type=float, default=1.0,
        help="wall seconds per plan second (stretch for slow machines)",
    )
    p.add_argument(
        "--settle", type=float, default=0.5,
        help="seconds to let each probe broadcast disseminate",
    )
    p.add_argument("--seed", type=int, default=7, help="chaos RNG seed")
    p.set_defaults(func=cmd_chaos)

    p = sub.add_parser(
        "service-bench",
        help="sustained-throughput pub/sub benchmark on a live cluster",
    )
    p.add_argument("--nodes", type=int, default=3, help="cluster size")
    p.add_argument("--clients", type=int, default=100, help="multiplexed clients")
    p.add_argument("--topics", type=int, default=2, help="topic count")
    p.add_argument(
        "--duration", type=float, default=6.0,
        help="seconds of sustained publish load (split into phases)",
    )
    p.add_argument(
        "--rate", type=float, default=60.0,
        help="aggregate publish rate (messages/second across all clients)",
    )
    p.add_argument("--seed", type=int, default=7, help="base seed")
    p.add_argument(
        "--no-chaos", action="store_true",
        help="skip the mid-run crash/restart (steady-state baseline)",
    )
    p.add_argument(
        "--out", type=pathlib.Path, default=None, metavar="DIR",
        help="write BENCH_service_live.json / TIMINGS_service_live.json here",
    )
    p.add_argument(
        "--metrics-port", type=int, default=0, metavar="PORT",
        help="TCP port for the Prometheus exposition endpoint the bench "
        "serves and self-scrapes (default: an ephemeral port)",
    )
    p.set_defaults(func=cmd_service_bench)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
