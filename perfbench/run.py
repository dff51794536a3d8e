"""Repository benchmark: one command, three workloads, split by layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig2-hyparview --seed 1 --seconds 10 --trace 0

Workloads (see ``BENCHMARK.json`` and ``perfbench/README.md``):

* ``fig2-hyparview`` — the paper's Figure 2 sweep, low/middle/catastrophic
  failure levels, in the simulator;
* ``brb-sampled`` — sampled-quorum Byzantine reliable broadcast under
  payload-mutating relays, in the simulator;
* ``live-pubsub`` — open-loop topic publishes through a 3-node loopback
  cluster.

``--trace 0`` measures untraced and prints every end-to-end metric.
``--trace 1`` first repeats the untraced measurement, then installs span
wrappers around each layer's functions, builds a fresh deployment and
measures again; it prints every per-layer metric, per-layer self-time
tables and the tracing overhead (traced minus untraced).

Human-readable lines go first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit status is 0 only if every correctness check passed.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import pathlib
import sys
import time
from statistics import median
from typing import Optional

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Raw span dumps of traced runs land here, inside the checkout.
SPAN_DIR = ROOT / ".perfbench"
#: Set-ups per run; ``setup_s`` is their median.  A simulated run sets up
#: one scenario per seed ``SIM_SETUPS * seed + i`` and measures every one,
#: so each run averages over several overlays and failure draws.  Two, not
#: more, because one fig2 set-up costs about 15 s.  A live run sets up
#: clusters with the seeds ``LIVE_SETUPS * seed + i`` and measures the
#: last: one set-up takes 2-3.5 ms, depending on the cluster seed's join
#: path and on the host's wake-up latency, hence many: in one process,
#: medians of 31 consecutive set-ups ranged over 45%, of 150 over 21%.
SIM_SETUPS = 2
LIVE_SETUPS = 151
SIM_WORKLOADS = ("fig2-hyparview", "brb-sampled")
LIVE_WORKLOAD = "live-pubsub"


def _parse(argv: Optional[list[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=SIM_WORKLOADS + (LIVE_WORKLOAD,))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the measured phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# ----------------------------------------------------------------------
# Simulator workloads
# ----------------------------------------------------------------------
def _settle() -> None:
    """Collect the set-up's garbage and exempt what survives from the
    collector, so collections while measuring scan only what the measured
    phase allocates.  ``gc.unfreeze()`` ends it."""
    gc.collect()
    gc.freeze()


def _sim_rounds(workload, blobs: list[bytes], seconds: float, checks):
    """Measured rounds over ``blobs`` in turn until ``seconds`` pass, and
    the host's slowdown while they ran, from the probes after each step."""
    from report import host_slowdown
    from simload import run_round

    rounds = []
    _settle()
    start = time.perf_counter()
    while len(rounds) < len(blobs) or time.perf_counter() - start < seconds:
        rounds.append(run_round(workload, blobs[len(rounds) % len(blobs)], checks))
    gc.unfreeze()
    for index in range(len(blobs)):
        checks.expect(len({r.fingerprint for r in rounds[index::len(blobs)]}) == 1,
                      "rounds of one snapshot disagree on the fingerprint")
    return rounds, host_slowdown([probe for r in rounds for probe in r.probes_s])


def run_sim(args, checks) -> tuple[dict, int, list[str]]:
    from report import host_slowdown, peak_rss_mb
    from simload import SCALED, WORKLOADS, end_to_end, set_up

    workload = WORKLOADS[args.workload]
    seeds = [args.seed * SIM_SETUPS + index for index in range(SIM_SETUPS)]
    if args.trace:
        return trace_sim(workload, seeds[0], workload.n, args.seconds, checks)
    setups = [set_up(workload, seed, workload.n, checks) for seed in seeds]
    setup_slowdown = host_slowdown([probe for setup in setups for probe in setup.probes_s])
    setup_s = median(setup.total_s for setup in setups)
    rounds, slowdown = _sim_rounds(workload, [setup.blob for setup in setups],
                                   args.seconds, checks)
    metrics = end_to_end(rounds, setup_s / setup_slowdown, peak_rss_mb(), slowdown)
    unscaled = end_to_end(rounds, setup_s, peak_rss_mb(), 1.0)
    broadcasts = sum(r.broadcasts for r in rounds)
    notes = [f"{args.workload} n={workload.n}: {len(rounds)} rounds, {broadcasts} broadcasts"]
    notes.append(f"host slowdown {setup_slowdown:.4f} in set-up, {slowdown:.4f} in rounds; "
                 "unscaled host-time readings: "
                 + ", ".join(f"{name} {unscaled[name]:.6g}" for name in ("setup_s",) + SCALED))
    notes += [f"scenario seed {seed}: fingerprint {r.fingerprint}"
              for seed, r in zip(seeds, rounds)]
    return metrics, broadcasts, notes


def trace_sim(workload, seed: int, n: int, seconds: float, checks):
    """The traced simulator run at system size ``n``: untraced rounds for
    ``seconds``, then one traced set-up and round of the same seed."""
    from simload import run_round, set_up
    from spans import HARNESS, Tracer, install_sim

    untraced_setup = set_up(workload, seed, n, checks)
    rounds, slowdown = _sim_rounds(workload, [untraced_setup.blob], seconds, checks)
    untraced_wall = median([r.wall_s for r in rounds])

    tracer = Tracer()
    patches = install_sim(tracer)
    try:
        setup = set_up(workload, seed, n, checks)
        setup_table = tracer.table(setup.total_s, "traced set-up (wall)")
        tracer.reset()
        _settle()
        traced = run_round(workload, setup.blob, checks)
        gc.unfreeze()
    finally:
        patches.undo()
    checks.expect(setup.blob == untraced_setup.blob,
                  "traced set-up froze a different snapshot")
    checks.expect(traced.fingerprint == rounds[0].fingerprint,
                  "traced round changed the fingerprint")
    span_file = SPAN_DIR / f"spans-{workload.name}-{seed}.jsonl"
    tracer.dump(span_file)

    layers = tracer.layer_self_s()
    calls = tracer.calls
    counters = traced.counters
    handled = calls["gossip/handle"] + calls["gossip.byzantine/handle"]
    metrics = _zero_layer_metrics()
    metrics.update({
        "sim.engine.events": counters.events,
        "sim.engine.self_s": layers.get("sim.engine", 0.0),
        "sim.engine.timers_scheduled": tracer.counts["sim.engine.timers_scheduled"],
        "sim.engine.timers_cancelled": tracer.counts["sim.engine.timers_cancelled"],
        "sim.network.sends": counters.sends,
        "sim.network.send_self_s": layers.get("sim.network", 0.0),
        "sim.network.delivered": counters.delivered,
        "sim.network.dropped": counters.dropped,
        "sim.network.send_failures": counters.send_failures,
        "sim.network.byz_mutated": counters.byz_mutated,
        "core.protocol.msgs": calls["core.protocol/handle"],
        "core.protocol.handle_self_s": layers.get("core.protocol", 0.0),
        "core.protocol.cycle_s": setup.cycle_s,
        "core.protocol.join_s": setup.join_s,
        "core.protocol.repairs": counters.repairs,
        "core.views.ops": tracer.counts["core.views.ops"],
        "gossip.msgs": calls["gossip/handle"],
        "gossip.handle_self_s": layers.get("gossip", 0.0),
        "gossip.useful_ratio": traced.receiver_deliveries / handled if handled else 0.0,
        "gossip.byzantine.msgs_per_bcast": calls["gossip.byzantine/handle"] / traced.broadcasts,
        "gossip.byzantine.handle_self_s": layers.get("gossip.byzantine", 0.0),
        "common.rng.words": counters.rng_words,
        "common.ids.hash_calls": tracer.counts["common.ids.hash_calls"],
        "experiments.freeze_s": setup.freeze_s,
        "experiments.thaw_s": traced.thaw_s,
        "experiments.snapshot_bytes": traced.snapshot_bytes,
        "experiments.finalize_s": tracer.self_s[HARNESS + "/finalize"],
        "trace.overhead_s": traced.wall_s - untraced_wall,
        "trace.overhead_ratio": traced.wall_s / untraced_wall - 1.0,
        "trace.unattributed_s": traced.wall_s - sum(layers.values()),
    })
    notes = [setup_table, tracer.table(traced.wall_s, "traced measured round (wall)"),
             f"untraced round median {untraced_wall:.3f} s over {len(rounds)} rounds, "
             f"host slowdown {slowdown:.4f}",
             f"{len(tracer.spans)} of {tracer.spans_total} spans written to {span_file}",
             f"scenario seed {seed}: fingerprint {traced.fingerprint}"]
    return metrics, traced.broadcasts + sum(r.broadcasts for r in rounds), notes


# ----------------------------------------------------------------------
# Live workload
# ----------------------------------------------------------------------
async def _live_untraced(seed: int, seconds: float, checks, setups: int):
    import liveload

    setup_times = []
    for index in range(setups):
        start = time.perf_counter()
        deployment = await liveload.deploy(setups * seed + index)
        setup_times.append(time.perf_counter() - start)
        liveload.check_overlay(deployment, checks)
        if index < setups - 1:
            await liveload.teardown(deployment)
    _settle()
    try:
        result = await liveload.measure(deployment, seed, seconds, checks)
    finally:
        gc.unfreeze()
        await liveload.teardown(deployment)
    return setup_times, result


async def _run_live(args, checks) -> tuple[dict, int, list[str]]:
    import liveload
    from report import peak_rss_mb, percentile

    if not args.trace:
        setup_times, result = await _live_untraced(args.seed, args.seconds, checks, LIVE_SETUPS)
        metrics = liveload.end_to_end(result, median(setup_times), peak_rss_mb())
        notes = [f"live-pubsub seed={args.seed}: {result.due} publishes due at "
                 f"{liveload.RATE:g}/s, delivery p99 "
                 f"{percentile(result.pooled_ms(), 99):.3f} ms, generator late p99 "
                 f"{percentile(result.late_ms, 99):.3f} ms"]
        return metrics, result.due, notes

    from spans import PUBSUB, TRANSPORT, Tracer, install_live

    _setup_times, untraced = await _live_untraced(args.seed, args.seconds, checks, 1)
    tracer = Tracer()
    patches = install_live(tracer)
    try:
        deployment = await liveload.deploy(args.seed)
        tracer.reset()
        _settle()
        try:
            traced = await liveload.measure(deployment, args.seed, args.seconds, checks)
        finally:
            gc.unfreeze()
            await liveload.teardown(deployment)
    finally:
        patches.undo()
    span_file = SPAN_DIR / f"spans-live-pubsub-{args.seed}.jsonl"
    tracer.dump(span_file)

    layers = tracer.layer_self_s()
    calls = tracer.calls
    metrics = _zero_layer_metrics()
    metrics.update({
        "core.protocol.msgs": calls["core.protocol/handle"],
        "core.protocol.handle_self_s": layers.get("core.protocol", 0.0),
        "core.views.ops": tracer.counts["core.views.ops"],
        "gossip.msgs": calls["gossip/handle"],
        "gossip.handle_self_s": layers.get("gossip", 0.0),
        "gossip.useful_ratio": (traced.receiver_deliveries / calls["gossip/handle"]
                                if calls["gossip/handle"] else 0.0),
        "common.ids.hash_calls": tracer.counts["common.ids.hash_calls"],
        "runtime.transport.frames_sent": traced.frames_sent,
        "runtime.transport.frames_received": traced.frames_received,
        "runtime.transport.send_s": tracer.self_s[TRANSPORT + "/send"],
        "runtime.transport.encode_s": tracer.self_s[TRANSPORT + "/encode"],
        "runtime.transport.decode_s": tracer.self_s[TRANSPORT + "/decode"],
        "service.pubsub.publish_s": tracer.self_s[PUBSUB + "/publish"],
        "service.pubsub.queue_peak": tracer.peaks["service.pubsub.queue_peak"],
        "service.pubsub.shed": traced.shed,
        "service.limits.denied": traced.denied,
        "loadgen.late_ms_p99": percentile(untraced.late_ms, 99),
        "trace.overhead_s": traced.cpu_s - untraced.cpu_s,
        "trace.overhead_ratio": traced.cpu_s / untraced.cpu_s - 1.0,
        "trace.unattributed_s": traced.cpu_s - sum(layers.values()),
    })
    notes = [tracer.table(traced.cpu_s, "traced measured phase (process CPU)"),
             f"{len(tracer.spans)} of {tracer.spans_total} spans written to {span_file}",
             f"untraced CPU {untraced.cpu_s:.3f} s, traced CPU {traced.cpu_s:.3f} s; "
             f"traced generator late p99 {percentile(traced.late_ms, 99):.3f} ms"]
    return metrics, untraced.due + traced.due, notes


def run_live(args, checks) -> tuple[dict, int, list[str]]:
    return asyncio.run(_run_live(args, checks))


# ----------------------------------------------------------------------
def _zero_layer_metrics() -> dict[str, float]:
    """Every per-layer metric, zero where the workload has no such layer."""
    from report import load_spec

    return {metric["name"]: 0 for metric in load_spec()["per_layer"]}


def main(argv: Optional[list[str]] = None) -> int:
    args = _parse(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: the repro package is missing under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from report import Checks, load_spec

    spec = load_spec()
    checks = Checks()
    runner = run_live if args.workload == LIVE_WORKLOAD else run_sim
    metrics, operations, notes = runner(args, checks)
    for note in notes:
        print(note)
    for failure in checks.failures:
        print(f"check failed: {failure}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in wanted}
    if set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} do not match "
              f"BENCHMARK.json", file=sys.stderr)
        return 2
    failed = checks.failed
    report = {
        "correct": failed == 0,
        "attempted": operations + checks.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(report))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
