"""The two simulator workloads: ``fig2-hyparview`` and ``brb-sampled``.

Both follow the repository's experiment recipe through its public API:
set-up is ``Scenario`` construction, ``build_overlay()`` (sequential
joins), ``stabilize()`` (membership cycles) and ``freeze()``; every
measured *round* thaws the frozen blob once per measurement and runs the
measurement function on the copy.  Rounds repeat until the run's time is
used up.  A round always does the same simulated work for a given seed,
so every round yields the same determinism fingerprint.

* ``fig2-hyparview`` — the paper's Figure 2: ``hyparview`` at n = 1000
  with :meth:`ExperimentParams.scaled`; one thaw and one
  ``measure_failure(..., paced=True)`` per failure level.
* ``brb-sampled`` — ``hyparview-brb`` with sampled (SBRB) quorums at
  n = 512; a :class:`FaultPlan` turns 20% of the nodes into mutating
  relays and ``measure_byzantine_plan`` judges the delivered values.
"""

from __future__ import annotations

import gc
import hashlib
import json
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

from repro.common.errors import ProtocolError
from repro.common.rng import StreamRandom
from repro.experiments import ExperimentParams, Scenario
from repro.experiments.failures import measure_failure
from repro.experiments.registry import SHAPE_CHECK_MIN_N
from repro.faults.byzantine import measure_byzantine_plan
from repro.faults.plan import FaultPlan, MutationEvent
from repro.gossip.byzantine import BRBConfig

from report import Checks, host_probe_s, percentile

#: fig2-hyparview: system size, the Figure 2 levels measured (low, middle,
#: catastrophic) and broadcasts per level.
FIG2_N = 1000
FIG2_LEVELS = (0.1, 0.5, 0.9)
FIG2_MESSAGES = 50
#: Least average reliability per level: the repository's Figure 2 shape
#: (``_check_fig2``), HyParView essentially unaffected below 90%.  Not
#: exactly 1.0 even at 10%: the paced batch runs while the overlay
#: repairs, and a node whose last live neighbour evicts it to accept a
#: high-priority NEIGHBOR request misses the broadcasts until it rejoins.
#: Like ``_check_fig2``, it holds from ``SHAPE_CHECK_MIN_N`` nodes up.
FIG2_FLOOR = {0.1: 0.95, 0.5: 0.95, 0.9: 0.8}
#: brb-sampled: system size, Byzantine (mutating) share and broadcasts
#: per round.
BRB_N = 512
BRB_MUTATING = 0.2
BRB_MESSAGES = 4


@dataclass(frozen=True)
class SimWorkload:
    name: str
    protocol: str
    #: Simulated system size.
    n: int
    params: Callable[[int, int], ExperimentParams]
    #: One measurement per entry: a failure level, or ``None`` for a
    #: Byzantine round.
    steps: tuple[Optional[float], ...]


def _fig2_params(seed: int, n: int) -> ExperimentParams:
    return ExperimentParams.scaled(n, seed=seed)


def _brb_params(seed: int, n: int) -> ExperimentParams:
    return replace(ExperimentParams.scaled(n, seed=seed), brb=BRBConfig(mode="sampled"))


WORKLOADS = {
    "fig2-hyparview": SimWorkload("fig2-hyparview", "hyparview", FIG2_N, _fig2_params,
                                  FIG2_LEVELS),
    "brb-sampled": SimWorkload("brb-sampled", "hyparview-brb", BRB_N, _brb_params, (None,)),
}


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------
@dataclass
class Setup:
    blob: bytes
    total_s: float
    join_s: float
    cycle_s: float
    freeze_s: float
    #: Seconds of a host probe taken after each phase, off the clock.
    probes_s: list[float]


def set_up(workload: SimWorkload, seed: int, n: int, checks: Checks) -> Setup:
    """Construct, join, stabilise and freeze; check the overlay at rest."""
    phases: list[float] = []
    probes: list[float] = []

    def timed(call):
        start = time.perf_counter()
        value = call()
        phases.append(time.perf_counter() - start)
        probes.append(host_probe_s())
        return value

    scenario = timed(lambda: Scenario(workload.protocol, workload.params(seed, n)))
    timed(scenario.build_overlay)
    timed(scenario.stabilize)
    blob = timed(scenario.freeze)
    check_overlay(scenario, checks)
    return Setup(blob, sum(phases), phases[1], phases[2], phases[3], probes)


def check_overlay(scenario: Scenario, checks: Checks) -> None:
    """Overlay invariants at quiescence, read through the public views:
    symmetric active views, disjoint and bounded views, no self-links."""
    config = scenario.params.hyparview
    alive = scenario.alive_ids()
    active = {node: set(scenario.membership(node).active_members()) for node in alive}
    passive = {node: set(scenario.membership(node).passive_members()) for node in alive}
    self_links = overlaps = over = asymmetric = 0
    for node in alive:
        self_links += node in active[node] or node in passive[node]
        overlaps += bool(active[node] & passive[node])
        over += (len(active[node]) > config.active_view_capacity
                 or len(passive[node]) > config.passive_view_capacity)
        asymmetric += sum(1 for peer in active[node] if node not in active.get(peer, ()))
    checks.expect(self_links == 0, f"{self_links} self-links after set-up")
    checks.expect(overlaps == 0, f"{overlaps} nodes with overlapping views after set-up")
    checks.expect(over == 0, f"{over} views over capacity after set-up")
    checks.expect(asymmetric == 0, f"{asymmetric} asymmetric active links after set-up")


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------
class DeliveryProbe:
    """Counts each broadcast's first deliveries, the origin's own included.

    Wraps the two tracker sinks of one scenario instance; the simulation
    itself is untouched.
    """

    def __init__(self) -> None:
        self.first_deliveries = 0
        #: First deliveries at nodes other than the broadcast's origin.
        self.receiver_deliveries = 0

    def attach(self, tracker) -> None:
        origins: dict = {}
        on_broadcast = tracker.on_broadcast
        on_deliver = tracker.on_deliver
        record = tracker.record

        def broadcast_probe(message_id, origin, now):
            origins[message_id] = origin
            on_broadcast(message_id, origin, now)

        def deliver_probe(message_id, node, now, hops):
            origin = origins.get(message_id)
            if origin is not None:
                try:
                    first = not record(message_id).delivered_to(node)
                except ProtocolError:
                    first = False
                if first:
                    self.first_deliveries += 1
                    self.receiver_deliveries += node != origin
            on_deliver(message_id, node, now, hops)

        tracker.on_broadcast = broadcast_probe
        tracker.on_deliver = deliver_probe


def rng_words(scenario: Scenario) -> int:
    """32-bit words drawn by every RNG stream the scenario owns."""
    streams = {id(scenario._rng): scenario._rng}
    network = scenario.network
    for stream in (network._rng, network._fault_rng):
        if stream is not None:
            streams[id(stream)] = stream
    for node in scenario.nodes.values():
        streams[id(node.rng)] = node.rng
        for slot in ("membership", "gossip"):
            if not node.has_protocol(slot):
                continue
            for value in vars(node.protocol(slot)).values():
                stream = getattr(value, "rng", value)
                if isinstance(stream, StreamRandom):
                    streams[id(stream)] = stream
    return sum(stream.words_consumed for stream in streams.values())


@dataclass
class Counters:
    """Program counters read before and after one measurement."""

    events: int = 0
    rng_words: int = 0
    sends: int = 0
    delivered: int = 0
    dropped: int = 0
    send_failures: int = 0
    byz_mutated: int = 0
    repairs: int = 0

    @classmethod
    def read(cls, scenario: Scenario) -> "Counters":
        stats = scenario.network.stats
        return cls(
            events=scenario.engine.processed,
            rng_words=rng_words(scenario),
            sends=stats.sent,
            delivered=stats.delivered,
            dropped=(stats.dropped_loss + stats.dropped_dead + stats.dropped_fault
                     + stats.dropped_adversary + stats.dropped_collusion),
            send_failures=stats.send_failures,
            byz_mutated=stats.mutated_byz,
            repairs=sum(scenario.membership(node).stats.promotions_completed
                        for node in scenario.node_ids),
        )

    def minus(self, other: "Counters") -> "Counters":
        return Counters(**{key: value - getattr(other, key) for key, value in vars(self).items()})

    def plus(self, other: "Counters") -> "Counters":
        return Counters(**{key: value + getattr(other, key) for key, value in vars(self).items()})


@dataclass
class RoundResult:
    """One round: every step's timings, outcomes and counters."""

    broadcasts: int = 0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    thaw_s: float = 0.0
    snapshot_bytes: int = 0
    delivered: int = 0
    expected: int = 0
    first_deliveries: int = 0
    receiver_deliveries: int = 0
    #: (step, host seconds, broadcasts) of each step, in step order.
    steps: list[tuple[Optional[float], float, int]] = field(default_factory=list)
    #: Seconds of a host probe taken after each step, off the clock.
    probes_s: list[float] = field(default_factory=list)
    counters: Counters = field(default_factory=Counters)
    fingerprint: str = ""


def run_round(workload: SimWorkload, blob: bytes, checks: Checks) -> RoundResult:
    """One thaw plus one measurement per step; checks every outcome.

    Timings cover thaw, failure injection, dissemination and finalisation;
    the counter reads around them and the host probe after each step do
    not count.
    """
    result = RoundResult(snapshot_bytes=len(blob))
    digest = hashlib.sha256()
    for step in workload.steps:
        probe = DeliveryProbe()
        wall, cpu = time.perf_counter(), time.process_time()
        scenario = Scenario.thaw(blob)
        thawed_wall, thawed_cpu = time.perf_counter(), time.process_time()
        # Reading the counters is bookkeeping: it stays out of the timings.
        before = Counters.read(scenario)
        probe.attach(scenario.tracker)
        measure_wall, measure_cpu = time.perf_counter(), time.process_time()
        validated = _measure(scenario, step, checks)
        done_wall, done_cpu = time.perf_counter(), time.process_time()
        result.thaw_s += thawed_wall - wall
        step_wall = (thawed_wall - wall) + (done_wall - measure_wall)
        result.cpu_s += (thawed_cpu - cpu) + (done_cpu - measure_cpu)
        after = Counters.read(scenario)
        result.counters = result.counters.plus(after.minus(before))
        summaries = scenario.tracker.summaries()
        broadcasts = len(summaries)
        result.broadcasts += broadcasts
        if validated is None:
            result.delivered += sum(s.delivered for s in summaries)
            result.expected += sum(s.population_size for s in summaries)
        else:
            result.delivered += sum(validated)
            result.expected += len(validated) * len(scenario.alive_ids())
        result.first_deliveries += probe.first_deliveries
        result.receiver_deliveries += probe.receiver_deliveries
        digest.update(json.dumps({
            "step": step,
            "deliveries": [(s.delivered, s.redundant, s.transmissions, s.max_hops)
                           for s in summaries],
            "validated": validated,
            "events": after.events,
            "rng_words": after.rng_words,
        }).encode())
        # Discarding the thawed copy is part of the step: its object graph
        # is cyclic, so only a collection frees it.  Collecting here, on
        # the clock, also starts every step from the same collector state.
        del scenario, summaries
        wall, cpu = time.perf_counter(), time.process_time()
        gc.collect()
        step_wall += time.perf_counter() - wall
        result.cpu_s += time.process_time() - cpu
        result.wall_s += step_wall
        result.steps.append((step, step_wall, broadcasts))
        result.probes_s.append(host_probe_s())
    result.fingerprint = digest.hexdigest()
    return result


def _measure(scenario: Scenario, step: Optional[float],
             checks: Checks) -> Optional[list[int]]:
    """Run one measurement and check it.

    A failure level runs Figure 2's paced batch; ``None`` runs the
    Byzantine plan and returns each broadcast's count of correct-value
    deliveries.
    """
    if step is not None:
        result = measure_failure(scenario, step, FIG2_MESSAGES, paced=True)
        checks.expect(all(0.0 <= value <= 1.0 for value in result.series),
                      f"reliability outside [0, 1] at failure level {step}")
        if scenario.params.n >= SHAPE_CHECK_MIN_N:
            checks.expect(result.average > FIG2_FLOOR[step],
                          f"average reliability {result.average} at failure level "
                          f"{step} is not above {FIG2_FLOOR[step]}")
        return None
    plan = FaultPlan(events=(MutationEvent(at=0.0, fraction=BRB_MUTATING),),
                     label="perfbench-mutation")
    outcome = measure_byzantine_plan(scenario, plan, messages=BRB_MESSAGES)
    checks.expect(all(0.0 <= value <= 1.0 for value in outcome["series"])
                  and all(0.0 <= value <= 1.0 for value in outcome["validated_series"]),
                  "reliability outside [0, 1]")
    checks.expect(outcome["wrong_deliveries"] == 0,
                  f"{outcome['wrong_deliveries']} deliveries of a wrong value")
    checks.expect(outcome["agreement"] == 1.0, f"agreement {outcome['agreement']} < 1.0")
    checks.expect(outcome["fault_stats"]["mutated_byz"] > 0, "no payload was mutated")
    population = outcome["final"]["alive"]
    return [round(value * population) for value in outcome["validated_series"]]


#: The end-to-end metrics that time the program, scaled to the reference
#: host speed.
SCALED = ("bcast_per_s", "deliver_p50_ms", "deliver_p90_ms", "cpu_us_per_delivery")


def end_to_end(rounds: list[RoundResult], setup_s: float, rss_mb: float,
               slowdown: float) -> dict[str, float]:
    """The end-to-end metrics of a run's measured rounds.

    The delivery percentiles are taken over the run's broadcasts, each
    charged its step's mean host milliseconds per broadcast over the run
    (one figure per failure level), not over single deliveries: a
    delivery's host latency depends on how each overlay's paced broadcasts
    overlap, and its simulated latency is a multiple of the one link delay.
    The mean, not the median of the step's measurements: the host slows
    runs of steps by a quarter or more, and the median of a few such
    measurements jumps between the slow and the fast figure.

    The timings in ``SCALED`` are divided by ``slowdown``, the host's
    slowdown against the reference speed while the rounds ran; the caller
    scales ``setup_s`` by the slowdown during set-up.
    """
    broadcasts = sum(r.broadcasts for r in rounds)
    step_wall: dict[Optional[float], float] = defaultdict(float)
    step_broadcasts: Counter = Counter()
    for r in rounds:
        for step, seconds, count in r.steps:
            step_wall[step] += seconds / slowdown
            step_broadcasts[step] += count
    per_broadcast_ms = [1000.0 * step_wall[step] / count
                        for step, count in step_broadcasts.items() for _ in range(count)]
    deliveries = sum(r.first_deliveries for r in rounds)
    wall_s = sum(r.wall_s for r in rounds) / slowdown
    cpu_s = sum(r.cpu_s for r in rounds) / slowdown
    return {
        "setup_s": setup_s,
        "bcast_per_s": broadcasts / wall_s,
        "peak_rss_mb": rss_mb,
        "deliver_p50_ms": percentile(per_broadcast_ms, 50),
        "deliver_p90_ms": percentile(per_broadcast_ms, 90),
        "delivered_ratio": sum(r.delivered for r in rounds) / sum(r.expected for r in rounds),
        "cpu_us_per_delivery": cpu_s * 1e6 / deliveries,
    }
