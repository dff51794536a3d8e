"""Bind existing stat sources to a :class:`MetricsRegistry`.

Each ``bind_*`` helper registers a collect-on-demand callback that mirrors
a source's plain-int counters into typed instruments at snapshot/scrape
time.  The sources keep their hot-path representation untouched — the
registry costs nothing until someone asks for a snapshot.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from .metrics import MetricsRegistry


def bind_network(registry: MetricsRegistry, network: Any, **labels: str) -> None:
    """Mirror a simulation ``Network``'s ``NetworkStats`` counters."""
    totals = registry.counter("repro_net_events_total", "Simulated network events by outcome")
    by_type = registry.counter("repro_net_messages_total", "Delivered messages by type")

    def collect() -> None:
        snapshot = network.stats.snapshot()
        for outcome, value in snapshot.items():
            if outcome == "messages_by_type":
                for type_name, count in value.items():
                    by_type.set_total(count, type=type_name, **labels)
            else:
                totals.set_total(value, outcome=outcome, **labels)

    registry.register_collector(collect)


def bind_kernel(registry: MetricsRegistry) -> None:
    """Mirror the process-wide simulation kernel event counter."""
    from ..sim.engine import events_fired_total

    fired = registry.counter(
        "repro_kernel_events_fired_total", "Events fired by the simulation kernel"
    )
    registry.register_collector(lambda: fired.set_total(events_fired_total()))


def bind_latency(
    registry: MetricsRegistry,
    name: str,
    supplier: Callable[[], Optional[Any]],
    **labels: str,
) -> None:
    """Expose a ``LatencyHistogram`` (via its ``summary()``) as gauges.

    ``supplier`` is called at scrape time so a histogram that is rebuilt
    per phase keeps working; returning ``None`` skips the refresh.
    """
    quantiles = registry.gauge(name, "Latency quantiles in seconds")
    count = registry.gauge(f"{name}_count", "Samples behind the latency quantiles")

    def collect() -> None:
        histogram = supplier()
        if histogram is None:
            return
        summary = histogram.summary()
        count.set(summary["count"], **labels)
        for quantile, key in (("0.5", "p50"), ("0.99", "p99"), ("0.999", "p999")):
            quantiles.set(summary[key], quantile=quantile, **labels)
        quantiles.set(summary["mean"], quantile="mean", **labels)
        quantiles.set(summary["max"], quantile="max", **labels)

    registry.register_collector(collect)


_TRANSPORT_COUNTERS = (
    "frames_sent",
    "frames_received",
    "frames_stale",
    "stale_handshakes",
    "frames_overflow",
    "frames_rejected",
    "frames_faulted",
)


def bind_transport(registry: MetricsRegistry, transport: Any, **labels: str) -> None:
    """Mirror an ``AsyncioTransport``'s frame counters and epoch audits."""
    frames = registry.counter(
        "repro_transport_frames_total", "Transport frames by outcome (staleness included)"
    )
    epoch = registry.gauge("repro_transport_epoch", "Current transport incarnation epoch")

    def collect() -> None:
        for counter_name in _TRANSPORT_COUNTERS:
            frames.set_total(
                getattr(transport, counter_name), outcome=counter_name, **labels
            )
        epoch.set(transport.epoch, **labels)

    registry.register_collector(collect)


def bind_pubsub_cluster(registry: MetricsRegistry, service: Any) -> None:
    """Mirror every facade of a ``PubSubCluster``: service counters,
    breaker state, token-bucket denials and transport epoch/staleness.

    The facade list is read at collect time, so facades swapped in by a
    node restart are picked up without re-binding.
    """
    published = registry.counter("repro_service_published_total", "Messages published")
    delivered = registry.counter("repro_service_delivered_total", "Messages delivered to subscribers")
    dropped = registry.counter("repro_service_dropped_total", "Subscriber-queue overflow sheds")
    ignored = registry.counter("repro_service_ignored_total", "Deliveries without a topic envelope")
    topic_limited = registry.counter(
        "repro_service_topic_rate_limited_total", "Publishes refused by per-topic budgets"
    )
    client_limited = registry.counter(
        "repro_service_client_rate_limited_total", "Publishes refused by per-client buckets"
    )
    trips = registry.counter("repro_breaker_trips_total", "Circuit-breaker trips")
    rejected = registry.counter("repro_breaker_rejected_total", "Sends rejected by open breakers")
    open_breakers = registry.gauge("repro_breaker_open", "Peers currently behind an open breaker")
    frames = registry.counter(
        "repro_transport_frames_total", "Transport frames by outcome (staleness included)"
    )
    epoch = registry.gauge("repro_transport_epoch", "Current transport incarnation epoch")

    def collect() -> None:
        for facade in service.facades:
            node = str(facade.node.node_id)
            published.set_total(facade.messages_published, node=node)
            delivered.set_total(facade.messages_delivered, node=node)
            dropped.set_total(facade.messages_dropped, node=node)
            ignored.set_total(facade.messages_ignored, node=node)
            topic_limited.set_total(facade.topic_rate_limited, node=node)
            client_limited.set_total(
                sum(client.rate_limited for client in facade.clients.values()), node=node
            )
            trips.set_total(facade.guard.trips(), node=node)
            rejected.set_total(facade.guard.rejected, node=node)
            open_breakers.set(len(facade.guard.open_peers()), node=node)
            transport = facade.node.transport
            for counter_name in _TRANSPORT_COUNTERS:
                frames.set_total(
                    getattr(transport, counter_name), outcome=counter_name, node=node
                )
            epoch.set(transport.epoch, node=node)

    registry.register_collector(collect)
