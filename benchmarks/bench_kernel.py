"""Microbenchmark of the simulation kernel's hot loop.

Tracks events/second through :meth:`Engine.run_until_idle` for the
traffic classes the experiments generate, and compares the bucket-queue
engine against an in-bench reimplementation of the previous heapq kernel
(the PR-2 baseline) on the workload the queue redesign targets:

* **burst cascades** — ``WIDTH`` concurrent delivery chains sharing
  constant-latency timestamps, the shape of every gossip hop (one
  broadcast hop delivers to many nodes at the same instant).  This is
  where the bucket queue's O(1) append/pop pays: the acceptance target is
  >= 2x posted events/s over the heapq baseline;
* **serial chains** — a single chain of distinct timestamps, the bucket
  queue's worst case (every event opens a fresh bucket); reported so a
  regression in the degenerate shape is visible too;
* **timer events** — cancellable handles, most of which are cancelled
  before firing (ack/retransmit timers), exercising lazy removal and
  compaction;
* **retransmit mix** — the reliable-delivery shape (``gossip/reliable``):
  ``TIMER_WIDTH`` concurrent ack'd transfers, each round posting the data
  copy and the ack, arming a cancellable retransmit timer and cancelling
  it on the ack, with every tenth copy lost so its retransmit actually
  expires.  Timers ride the hierarchical timer wheel; the acceptance
  target is >= 1.5x events/s over the heapq baseline running the same
  mix (the pre-wheel engine measured ~0.6x on its timer path);
* **jittered chains, quantised tick** — the PR-8 follow-up measurement:
  ``WIDTH`` concurrent chains whose hop delays carry continuous uniform
  jitter, so every raw timestamp is distinct and the untick'd bucket
  queue degenerates to one event per bucket.  Run once on ``Engine()``
  and once on ``Engine(tick=ENGINE_TICK)`` (the tick the ``faults_*``
  and ``topo_*`` scenarios use), reporting the coalescing win as a
  ratio.  Measured ~1.0-1.1x in the dev container — the honest answer
  to the "quantify the tick speedup" follow-up is that coalescing
  roughly pays for the rounding, no more; the gate only requires ticked
  mode never be materially *slower* (>= 0.9x), since bucketing that
  loses throughput would mean the rounding path gained per-event
  overhead.

Numbers go to stdout (CI job logs) and — with ``--json PATH`` — into a
``TIMINGS_kernel_microbench.json`` record that CI folds into the timings
artifact for commit-over-commit trending.  The assertion floors are set
far below any real machine's throughput so the bench only trips on a
catastrophic kernel regression, never on a noisy runner; the 2x
burst-speedup assertion takes the best of several repeats for the same
reason.

Run directly (``python benchmarks/bench_kernel.py [--json PATH]``) or via
pytest (``pytest benchmarks/bench_kernel.py -s``; slow-marked).
"""

from __future__ import annotations

import argparse
import heapq
import json
import pathlib
import random
import time
from itertools import count

import pytest

from repro.experiments.reporting import TIMINGS_SCHEMA
from repro.sim.engine import Engine

#: Events per measured batch — large enough to amortise timer noise.
BATCH = 200_000

#: Concurrent chains in the burst workload (events sharing a timestamp
#: per instant) — the magnitude of one gossip hop at bench scale.
WIDTH = 256

#: Measurement repeats; the best run is kept (noise floor, not variance).
REPEATS = 3

#: Catastrophic-regression floor (events/second).  Real hardware does
#: millions; tripping this means the hot loop gained per-event overhead.
FLOOR = 50_000

#: Required advantage of the bucket queue over the heapq baseline on the
#: burst workload (the tentpole acceptance criterion).
BURST_SPEEDUP = 2.0

#: Concurrent ack'd transfers in the retransmit mix — thousands of
#: outstanding retransmit timers, the reliable-delivery workload scale.
TIMER_WIDTH = 4_096

#: Required advantage of the timer wheel over the heapq baseline on the
#: retransmit mix (the PR-5 acceptance criterion; the pre-wheel bucket
#: queue sat at ~0.6x on its timer path).
TIMER_SPEEDUP = 1.5

#: Tick of the quantised-bucket run — the value the fault and topology
#: scenarios configure (``extra={"engine_tick": 0.002}``).
ENGINE_TICK = 0.002

#: Required ratio of the ticked engine over the untick'd engine on the
#: jittered-chain workload.  Not a speedup target (the measured win is
#: ~1.1x): a floor below 1.0 that only trips if timestamp rounding makes
#: the engine materially slower than not rounding at all.
TICK_SPEEDUP_FLOOR = 0.9


class _BaselineHandle:
    """Lazy-cancellation flag of the heapq baseline's timer entries."""

    __slots__ = ("_cancelled",)

    def __init__(self) -> None:
        self._cancelled = False

    def cancel(self) -> None:
        self._cancelled = True


class HeapqBaseline:
    """The PR-2 kernel's hot path, reimplemented for comparison.

    A heap of ``(time, seq, callback, args, handle)`` tuples with the
    same inlined drain loop the previous ``Engine.run_until_idle`` used;
    ``handle`` is ``None`` for posted events and a lazily-cancelled flag
    object for timers, matching how the old kernel parked cancelled
    timers in the heap until they were popped.  Kept here (not in the
    library) so the baseline stays frozen while the real engine evolves.
    """

    __slots__ = ("_now", "_queue", "_sequence")

    def __init__(self) -> None:
        self._now = 0.0
        self._queue: list[tuple] = []
        self._sequence = count()

    def post(self, delay: float, callback, *args) -> None:
        heapq.heappush(
            self._queue, (self._now + delay, next(self._sequence), callback, args, None)
        )

    def schedule(self, delay: float, callback, *args) -> _BaselineHandle:
        handle = _BaselineHandle()
        heapq.heappush(
            self._queue,
            (self._now + delay, next(self._sequence), callback, args, handle),
        )
        return handle

    def run_until_idle(self) -> int:
        queue = self._queue
        pop = heapq.heappop
        fired = 0
        while queue:
            entry = pop(queue)
            handle = entry[4]
            if handle is not None and handle._cancelled:
                continue
            self._now = entry[0]
            fired += 1
            entry[2](*entry[3])
        return fired


def _events_per_second(total_events: int, elapsed: float) -> float:
    return total_events / elapsed if elapsed > 0 else float("inf")


def _drive_posted(engine, total: int, width: int) -> None:
    """``width`` self-sustaining delivery chains at one constant latency.

    All chains share timestamps (they advance in lock step), so each
    instant carries a bucket of ``width`` events — the gossip-hop shape.
    """
    remaining = [total]

    def fire() -> None:
        remaining[0] -= 1
        if remaining[0] > 0:
            engine.post(0.001, fire)

    for _ in range(min(width, total)):
        engine.post(0.001, fire)
    engine.run_until_idle()


def _drive_jittered(engine, total: int, width: int, *, seed: int = 2026) -> None:
    """``width`` delivery chains whose hop delays carry continuous uniform
    jitter in [1ms, 2ms) — the zoned-RTT/WAN-degrade traffic shape.  Raw
    timestamps are all distinct, so without a tick every event opens its
    own bucket; with ``tick=ENGINE_TICK`` they coalesce."""
    rng = random.Random(seed)
    remaining = [total]

    def fire() -> None:
        remaining[0] -= 1
        if remaining[0] > 0:
            engine.post(0.001 * (1.0 + rng.random()), fire)

    for _ in range(min(width, total)):
        engine.post(0.001 * (1.0 + rng.random()), fire)
    engine.run_until_idle()


def _best_jittered_eps(engine_factory, total: int, width: int) -> float:
    best = 0.0
    for _ in range(REPEATS):
        engine = engine_factory()
        started = time.perf_counter()
        _drive_jittered(engine, total, width)
        best = max(best, _events_per_second(total, time.perf_counter() - started))
    return best


def _drive_timers(engine: Engine, total: int) -> None:
    """A cascade of cancellable timers; each firing also schedules a decoy
    that is immediately cancelled (the ack-timer pattern), so half of all
    scheduled events are lazily-removed garbage the engine must reclaim."""
    remaining = [total]

    def fire() -> None:
        remaining[0] -= 1
        engine.schedule(30.0, fire).cancel()
        if remaining[0] > 0:
            engine.schedule(0.001, fire)

    engine.schedule(0.001, fire)
    engine.run_until_idle()


def _drive_retransmit_mix(engine, rounds: int, width: int) -> int:
    """``width`` concurrent reliable transfers: post the data copy, post
    the ack back, arm a retransmit timer, cancel it when the ack lands.
    Every tenth copy is lost, so its retransmit timer actually expires and
    resends — the post/cancel/expire mix of ack'd gossip
    (:mod:`repro.gossip.reliable`).  Returns the number of fired events.

    Works against both the engine (timers on the wheel, messages in the
    buckets) and the heapq baseline (everything through one heap).
    """
    remaining = [rounds]

    def deliver(state) -> None:
        engine.post(0.001, ack, state)

    def ack(state) -> None:
        state[0].cancel()
        remaining[0] -= 1
        if remaining[0] > 0:
            send(state)

    def retransmit(state) -> None:
        engine.post(0.001, deliver, state)

    def send(state) -> None:
        state[1] += 1
        state[0] = engine.schedule(0.25, retransmit, state)
        if state[1] % 10:
            engine.post(0.001, deliver, state)

    for transfer in range(min(width, rounds)):
        send([None, transfer % 10])
    return engine.run_until_idle()


def _best_posted_eps(engine_factory, total: int, width: int) -> float:
    best = 0.0
    for _ in range(REPEATS):
        engine = engine_factory()
        started = time.perf_counter()
        _drive_posted(engine, total, width)
        best = max(best, _events_per_second(total, time.perf_counter() - started))
    return best


def _best_retransmit_eps(engine_factory, rounds: int, width: int) -> float:
    best = 0.0
    for _ in range(REPEATS):
        engine = engine_factory()
        started = time.perf_counter()
        fired = _drive_retransmit_mix(engine, rounds, width)
        best = max(best, _events_per_second(fired, time.perf_counter() - started))
    return best


def run_kernel_bench() -> dict:
    """Measure every workload; returns the machine-readable record."""
    burst_eps = _best_posted_eps(Engine, BATCH, WIDTH)
    burst_heapq_eps = _best_posted_eps(HeapqBaseline, BATCH, WIDTH)
    serial_eps = _best_posted_eps(Engine, BATCH, 1)
    serial_heapq_eps = _best_posted_eps(HeapqBaseline, BATCH, 1)
    retransmit_eps = _best_retransmit_eps(Engine, BATCH, TIMER_WIDTH)
    retransmit_heapq_eps = _best_retransmit_eps(HeapqBaseline, BATCH, TIMER_WIDTH)
    jitter_unticked_eps = _best_jittered_eps(Engine, BATCH, WIDTH)
    jitter_ticked_eps = _best_jittered_eps(
        lambda: Engine(tick=ENGINE_TICK), BATCH, WIDTH
    )

    engine = Engine()
    started = time.perf_counter()
    _drive_timers(engine, BATCH // 2)
    timer_eps = _events_per_second(BATCH // 2, time.perf_counter() - started)
    # The decoy cancellations must have been reclaimed, not accumulated.
    assert engine.pending <= 1
    assert engine.live_pending == engine.pending

    return {
        "schema": TIMINGS_SCHEMA,
        "scenario": "kernel_microbench",
        "tier": "kernel",
        "workers": 1,
        "units": [
            {
                "cell": f"posted-burst-{WIDTH}",
                "events": BATCH,
                "events_per_second": burst_eps,
                "heapq_baseline_events_per_second": burst_heapq_eps,
                "speedup_vs_heapq": burst_eps / burst_heapq_eps,
            },
            {
                "cell": "posted-serial",
                "events": BATCH,
                "events_per_second": serial_eps,
                "heapq_baseline_events_per_second": serial_heapq_eps,
                "speedup_vs_heapq": serial_eps / serial_heapq_eps,
            },
            {
                "cell": "timers-all-cancel",
                "events": BATCH // 2,
                "events_per_second": timer_eps,
            },
            {
                "cell": f"timers-retransmit-mix-{TIMER_WIDTH}",
                "events": BATCH,
                "events_per_second": retransmit_eps,
                "heapq_baseline_events_per_second": retransmit_heapq_eps,
                "speedup_vs_heapq": retransmit_eps / retransmit_heapq_eps,
                # Hard-gated ratio: perf_trend.py --enforce-kernel-gates
                # fails the build when the speedup drops below this floor.
                "speedup_floor": TIMER_SPEEDUP,
            },
            {
                "cell": f"posted-jitter-ticked-{WIDTH}",
                "events": BATCH,
                "events_per_second": jitter_ticked_eps,
                "unticked_events_per_second": jitter_unticked_eps,
                # The quantised-tick coalescing win on continuous-jitter
                # traffic (~1.1x measured); the floor < 1.0 only trips if
                # rounding makes the engine materially slower.
                "speedup_vs_unticked": jitter_ticked_eps / jitter_unticked_eps,
                "speedup_floor": TICK_SPEEDUP_FLOOR,
            },
        ],
        "totals": {
            "units": 5,
            "events": 4 * BATCH + BATCH // 2,
            # The headline figure the perf-trend job follows.
            "events_per_second": burst_eps,
            "worker_seconds": None,
        },
    }


def report(record: dict) -> None:
    burst, serial, timers, retransmit, jitter = record["units"]
    print(
        f"\nkernel hot loop (bucket queue + timer wheel vs heapq baseline):\n"
        f"  posted burst x{WIDTH}: {burst['events_per_second']:,.0f} ev/s "
        f"(heapq {burst['heapq_baseline_events_per_second']:,.0f}, "
        f"speedup {burst['speedup_vs_heapq']:.2f}x)\n"
        f"  posted serial:      {serial['events_per_second']:,.0f} ev/s "
        f"(heapq {serial['heapq_baseline_events_per_second']:,.0f}, "
        f"speedup {serial['speedup_vs_heapq']:.2f}x)\n"
        f"  timers (all-cancel decoys): {timers['events_per_second']:,.0f} ev/s\n"
        f"  retransmit mix x{TIMER_WIDTH}: "
        f"{retransmit['events_per_second']:,.0f} ev/s "
        f"(heapq {retransmit['heapq_baseline_events_per_second']:,.0f}, "
        f"speedup {retransmit['speedup_vs_heapq']:.2f}x)\n"
        f"  jittered chains x{WIDTH}, tick={ENGINE_TICK}: "
        f"{jitter['events_per_second']:,.0f} ev/s "
        f"(untick'd {jitter['unticked_events_per_second']:,.0f}, "
        f"coalescing win {jitter['speedup_vs_unticked']:.2f}x)"
    )


@pytest.mark.slow
def bench_kernel_hot_loop() -> None:
    record = run_kernel_bench()
    report(record)
    burst, serial, timers, retransmit, jitter = record["units"]
    assert burst["events_per_second"] > FLOOR
    assert serial["events_per_second"] > FLOOR
    assert timers["events_per_second"] > FLOOR
    assert retransmit["events_per_second"] > FLOOR
    assert jitter["events_per_second"] > FLOOR
    # The tentpole claims: on gossip-burst traffic the bucket queue must
    # comfortably outrun the old mixed-tuple heap, and on the ack'd
    # retransmit mix the timer wheel must as well.
    assert burst["speedup_vs_heapq"] >= BURST_SPEEDUP
    assert retransmit["speedup_vs_heapq"] >= TIMER_SPEEDUP
    # Quantised buckets must never be materially slower than raw ones.
    assert jitter["speedup_vs_unticked"] >= TICK_SPEEDUP_FLOOR


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--json", type=pathlib.Path, default=None, metavar="PATH",
        help="also write the machine-readable record (repro-timings/1 "
        "schema) to PATH for the CI timings artifact",
    )
    args = parser.parse_args(argv)
    record = run_kernel_bench()
    report(record)
    burst, serial, timers, retransmit, jitter = record["units"]
    if args.json is not None:
        args.json.parent.mkdir(parents=True, exist_ok=True)
        args.json.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.json}")
    # Hard gate: the catastrophic-regression floors, on every workload —
    # these are orders of magnitude below real throughput, so tripping one
    # means the kernel broke, not that the runner was busy.
    ok = all(
        unit["events_per_second"] > FLOOR
        for unit in (burst, serial, timers, retransmit, jitter)
    )
    # Hard gate: the timer-wheel speedup floor.  Unlike the absolute
    # events/s numbers this is a *ratio* of two runs on the same machine,
    # so runner load largely cancels out; measured ~2x in the dev
    # container against the 1.5x floor.
    if retransmit["speedup_vs_heapq"] < TIMER_SPEEDUP:
        print(
            f"::error title=kernel bench::retransmit-mix speedup "
            f"{retransmit['speedup_vs_heapq']:.2f}x below the "
            f"{TIMER_SPEEDUP:.1f}x timer-wheel floor"
        )
        ok = False
    # Hard gate: quantised-tick bucketing must never make the engine
    # materially slower than raw timestamps (same-machine ratio again).
    if jitter["speedup_vs_unticked"] < TICK_SPEEDUP_FLOOR:
        print(
            f"::error title=kernel bench::quantised-tick ratio "
            f"{jitter['speedup_vs_unticked']:.2f}x below the "
            f"{TICK_SPEEDUP_FLOOR:.1f}x floor (tick rounding gained "
            f"per-event overhead)"
        )
        ok = False
    print(
        f"::notice title=quantised tick::jittered chains at "
        f"tick={ENGINE_TICK}: {jitter['events_per_second']:,.0f} ev/s, "
        f"{jitter['speedup_vs_unticked']:.2f}x vs untick'd "
        f"(floor {TICK_SPEEDUP_FLOOR:.1f}x)"
    )
    # Timer-path trend line for the job summary (the perf-trend job
    # follows totals.events_per_second, which is the burst figure).
    print(
        f"::notice title=timer wheel::retransmit mix "
        f"{retransmit['events_per_second']:,.0f} ev/s, "
        f"{retransmit['speedup_vs_heapq']:.2f}x vs heapq baseline "
        f"(floor {TIMER_SPEEDUP:.1f}x); all-cancel timers "
        f"{timers['events_per_second']:,.0f} ev/s"
    )
    # Soft gate: the 2x burst-speedup ratio is wall-clock-relative and may
    # be squeezed on a contended hosted runner; warn (GitHub annotation),
    # never fail — matching the perf-trend job's noise policy.  The
    # slow-marked pytest path still asserts it where the pin matters.
    if burst["speedup_vs_heapq"] < BURST_SPEEDUP:
        print(
            f"::warning title=kernel bench::burst speedup "
            f"{burst['speedup_vs_heapq']:.2f}x below the {BURST_SPEEDUP:.1f}x "
            f"target (noisy runner?)"
        )
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
