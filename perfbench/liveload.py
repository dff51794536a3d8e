"""``live-pubsub``: open-loop publishes through a 3-node loopback cluster.

One process, one event loop.  A :class:`~repro.runtime.cluster.LocalCluster`
of three nodes joins over loopback TCP; a
:class:`~repro.service.pubsub.PubSubCluster` multiplexes in-process
:class:`~repro.service.pubsub.PubSubClient` handles over it, spread over a
few topics.  The handles open no sockets: the only sockets are the
cluster's own peer links.  No chaos.

The load generator is open loop: publish ``k`` is due at ``start + k /
RATE`` whatever happened to earlier ones, and every latency is measured
from the due time, so a stall is charged to every publish it delays.  The
schedule and each publish's origin client come from the seed.
"""

from __future__ import annotations

import asyncio
import random
import time
from collections import Counter
from dataclasses import dataclass, field
from statistics import median

from repro.common.errors import RateLimitedError, ServiceError
from repro.runtime.cluster import LocalCluster
from repro.service.bench import BENCH_CONFIG
from repro.service.pubsub import PubSubCluster, ServiceConfig, Subscription

from report import Checks, percentile

NODES = 3
TOPICS = 3
CLIENTS_PER_NODE = 20
#: Publishes per second, offered open loop: about half of the rate at
#: which this cluster saturates one core of the benchmark host.
RATE = 1000.0
#: Latency percentiles are taken per window of due times this long: 750
#: node deliveries at RATE, so a window's p90 has 75 samples beyond it.
WINDOW_S = 0.25
#: Limits for convergence and for the last deliveries to land.
CONVERGE_TIMEOUT_S = 10.0
DRAIN_TIMEOUT_S = 10.0
#: Client budgets far above the offered load: the limiter must not fire.
SERVICE_CONFIG = ServiceConfig(
    publish_rate=10 * RATE,
    publish_burst=10 * RATE,
    subscriber_queue=4096,
)


@dataclass
class Deployment:
    """A converged cluster with its clients and their subscriptions."""

    cluster: LocalCluster
    service: PubSubCluster
    #: (node index, client name, topic) of every client.
    clients: list[tuple[int, str, str]]
    subscriptions: list[Subscription]


@dataclass
class LiveResult:
    """What one measured phase saw."""

    due: int = 0
    completed: int = 0
    node_deliveries: int = 0
    #: Node deliveries other than each publish's local one at its origin.
    receiver_deliveries: int = 0
    client_deliveries: int = 0
    #: Latency samples keyed by the window their publish was due in.
    latencies_ms: dict[int, list[float]] = field(default_factory=dict)
    late_ms: list[float] = field(default_factory=list)
    wall_s: float = 0.0
    cpu_s: float = 0.0
    frames_sent: int = 0
    frames_received: int = 0
    shed: int = 0
    denied: int = 0

    def pooled_ms(self) -> list[float]:
        return [value for samples in self.latencies_ms.values() for value in samples]


async def deploy(seed: int) -> Deployment:
    """Start, join and converge the cluster, then create every client."""
    cluster = LocalCluster(NODES, config=BENCH_CONFIG, base_seed=seed)
    await cluster.start(join_delay=0.0, settle=0.0)
    await _converge(cluster)
    service = PubSubCluster(cluster, config=SERVICE_CONFIG)
    topics = [f"topic-{index}" for index in range(TOPICS)]
    clients = []
    subscriptions = []
    for index in range(NODES * CLIENTS_PER_NODE):
        node_index = index % NODES
        topic = topics[(index // NODES) % TOPICS]
        client = service.facade(node_index).client(f"client-{index}")
        subscriptions.append(client.subscribe(topic))
        clients.append((node_index, client.name, topic))
    return Deployment(cluster, service, clients, subscriptions)


class _Convergence:
    """Membership listener that fires once every node's active view holds
    every other node (event-driven: no polling interval in set-up time)."""

    def __init__(self, cluster: LocalCluster) -> None:
        self.cluster = cluster
        self.done = asyncio.Event()
        self.everyone = {node.node_id for node in cluster.nodes}
        self.check()

    def check(self) -> None:
        if all(set(node.active_view()) == self.everyone - {node.node_id}
               for node in self.cluster.nodes):
            self.done.set()

    def on_neighbor_up(self, _peer) -> None:
        self.check()

    def on_neighbor_down(self, _peer) -> None:
        self.check()


async def _converge(cluster: LocalCluster) -> None:
    """Wait until every node's active view holds every other node."""
    convergence = _Convergence(cluster)
    for node in cluster.nodes:
        node.membership.add_listener(convergence)
    try:
        await asyncio.wait_for(convergence.done.wait(), CONVERGE_TIMEOUT_S)
    finally:
        for node in cluster.nodes:
            node.membership.remove_listener(convergence)


async def teardown(deployment: Deployment) -> None:
    deployment.service.detach()
    await deployment.cluster.stop()


def check_overlay(deployment: Deployment, checks: Checks) -> None:
    """Overlay invariants at quiescence, read through the public views."""
    nodes = deployment.cluster.nodes
    active = {node.node_id: set(node.active_view()) for node in nodes}
    passive = {node.node_id: set(node.passive_view()) for node in nodes}
    config = BENCH_CONFIG
    for node_id, view in active.items():
        checks.expect(node_id not in view and node_id not in passive[node_id],
                      f"self-link at {node_id}")
        checks.expect(not view & passive[node_id], f"active and passive overlap at {node_id}")
        checks.expect(len(view) <= config.active_view_capacity
                      and len(passive[node_id]) <= config.passive_view_capacity,
                      f"view over capacity at {node_id}")
        checks.expect(all(node_id in active.get(peer, ()) for peer in view),
                      f"asymmetric active link at {node_id}")


def _counter_sums(deployment: Deployment) -> tuple[int, int, int, int]:
    frames_sent = frames_received = rejected = 0
    for node in deployment.cluster.nodes:
        frames_sent += node.transport.frames_sent
        frames_received += node.transport.frames_received
        rejected += node.transport.frames_rejected
    service = deployment.service
    denied = rejected + sum(
        facade.topic_rate_limited
        + sum(client.rate_limited for client in facade.clients.values())
        for facade in service.facades
    )
    return frames_sent, frames_received, service.total_dropped(), denied


async def measure(deployment: Deployment, seed: int, seconds: float,
                  checks: Checks) -> LiveResult:
    """Publish open loop for ``seconds``, wait for the deliveries, check."""
    loop = asyncio.get_running_loop()
    log = deployment.cluster.delivery_log
    service = deployment.service
    rng = random.Random(f"live-pubsub/{seed}")
    result = LiveResult()
    received: list[Counter] = [Counter() for _ in deployment.subscriptions]
    wrong_topic = 0
    client_deliveries = 0

    async def drain(index: int, subscription: Subscription) -> None:
        nonlocal wrong_topic, client_deliveries
        seen = received[index]
        async for message in subscription:
            if message.topic != subscription.topic:
                wrong_topic += 1
            seen[message.message_id] += 1
            client_deliveries += 1

    drains = [asyncio.create_task(drain(index, subscription))
              for index, subscription in enumerate(deployment.subscriptions)]
    before = _counter_sums(deployment)
    first_record = len(log.records)
    published: dict = {}  # message id -> (due time, topic)
    failed_publishes = 0
    interval = 1.0 / RATE
    cpu_start = time.process_time()
    start = loop.time()
    due_count = int(seconds * RATE)
    for index in range(due_count):
        due = start + index * interval
        now = loop.time()
        if due > now:
            await asyncio.sleep(due - now)
            now = loop.time()
        else:
            # Behind schedule: publish at once, but let I/O run in between,
            # as independent publishers would.
            await asyncio.sleep(0)
        result.late_ms.append((now - due) * 1000.0)
        node_index, name, topic = deployment.clients[rng.randrange(len(deployment.clients))]
        try:
            message_id = service.facade(node_index).client(name).publish(topic, index)
        except (RateLimitedError, ServiceError):
            failed_publishes += 1
        else:
            published[message_id] = (due, topic)
    expected_node = NODES * len(published)
    per_topic = Counter(topic for _due, topic in published.values())
    expected_client = sum(per_topic[subscription.topic]
                          for subscription in deployment.subscriptions)
    deadline = loop.time() + DRAIN_TIMEOUT_S
    while loop.time() < deadline and (
        len(log.records) - first_record < expected_node
        or client_deliveries < expected_client
    ):
        await asyncio.sleep(0.001)
    records = log.records[first_record:]
    end = max((record.at for record in records), default=loop.time())
    result.cpu_s = time.process_time() - cpu_start
    result.wall_s = end - start
    for task in drains:
        task.cancel()
    await asyncio.gather(*drains, return_exceptions=True)
    after = _counter_sums(deployment)
    result.frames_sent, result.frames_received, result.shed, result.denied = (
        b - a for a, b in zip(before, after))

    # --- correctness: each publish reaches each live node exactly once --
    incarnations = {node.node_id: node.incarnation for node in deployment.cluster.nodes}
    per_node = Counter((record.message_id, record.node) for record in records)
    nodes_of = Counter(message_id for message_id, _node in per_node)
    stale = sum(1 for record in records
                if incarnations.get(record.node) != record.incarnation)
    checks.expect(failed_publishes == 0, f"{failed_publishes} publishes refused")
    checks.expect(all(count == 1 for count in per_node.values()),
                  "a node delivered a publish more than once")
    checks.expect(set(nodes_of) == set(published)
                  and all(nodes_of[mid] == NODES for mid in published),
                  "a publish missed a live node")
    checks.expect(stale == 0, f"{stale} stale-incarnation deliveries")
    checks.expect(wrong_topic == 0, f"{wrong_topic} deliveries to another topic")
    for index, subscription in enumerate(deployment.subscriptions):
        wanted = {mid for mid, (_due, topic) in published.items()
                  if topic == subscription.topic}
        seen = received[index]
        checks.expect(set(seen) == wanted and all(c == 1 for c in seen.values()),
                      f"subscriber {index} did not see its topic exactly once")

    result.due = due_count
    result.completed = sum(1 for mid in published if nodes_of[mid] == NODES)
    result.node_deliveries = len(per_node)
    result.receiver_deliveries = result.node_deliveries - len(published)
    result.client_deliveries = client_deliveries
    for record in records:
        due = published[record.message_id][0]
        window = result.latencies_ms.setdefault(int((due - start) / WINDOW_S), [])
        window.append((record.at - due) * 1000.0)
    return result


def windowed(latencies_ms: dict[int, list[float]], q: float) -> float:
    """Median over the due-time windows of each window's percentile ``q``.

    A host stall delays every publish due while it lasts, and the
    development host stalls the process for tens of milliseconds at a time
    in some periods.  Pooled over the run, such stalls move the p90 by up
    to twenty times; per window, they move only the windows they hit.
    """
    return median([percentile(samples, q) for samples in latencies_ms.values()])


def end_to_end(result: LiveResult, setup_s: float, rss_mb: float) -> dict[str, float]:
    return {
        "setup_s": setup_s,
        "bcast_per_s": result.completed / result.wall_s,
        "peak_rss_mb": rss_mb,
        "deliver_p50_ms": windowed(result.latencies_ms, 50),
        "deliver_p90_ms": windowed(result.latencies_ms, 90),
        "delivered_ratio": result.node_deliveries / (result.due * NODES),
        "cpu_us_per_delivery": result.cpu_s * 1e6 / result.client_deliveries,
    }
