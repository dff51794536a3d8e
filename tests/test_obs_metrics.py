"""Tests for the unified metrics plane (repro.obs.metrics / collectors / http).

Instruments must render deterministically (sorted names, sorted label
sets) for the ``METRICS_*.json`` artifacts; the collectors must mirror
the codebase's scattered plain-int counters without touching them; the
exposition endpoint must serve valid Prometheus text format over a bare
socket.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.metrics.latency import LatencyHistogram
from repro.obs.collectors import (
    bind_kernel,
    bind_latency,
    bind_network,
    bind_pubsub_cluster,
    bind_transport,
)
from repro.obs.http import CONTENT_TYPE, MetricsServer, scrape
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry


def run(coroutine, timeout=30.0):
    return asyncio.run(asyncio.wait_for(coroutine, timeout))


class TestInstruments:
    def test_counter_inc_and_mirror(self):
        counter = Counter("c_total")
        counter.inc()
        counter.inc(2, node="a")
        assert counter.value() == 1
        assert counter.value(node="a") == 2
        counter.set_total(9, node="a")
        assert counter.value(node="a") == 9

    def test_counter_rejects_decrease(self):
        with pytest.raises(ValueError):
            Counter("c_total").inc(-1)

    def test_gauge_moves_both_ways(self):
        gauge = Gauge("g")
        gauge.set(5, node="a")
        gauge.inc(-2, node="a")
        assert gauge.value(node="a") == 3

    def test_histogram_cumulative_buckets(self):
        histogram = Histogram("h", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 5.0):
            histogram.observe(value)
        samples = {name + str(dict(key)): value for name, key, value in histogram.samples()}
        assert samples["h_bucket{'le': '0.1'}"] == 1
        assert samples["h_bucket{'le': '1'}"] == 2
        assert samples["h_bucket{'le': '+Inf'}"] == 3
        assert samples["h_count{}"] == 3
        assert samples["h_sum{}"] == pytest.approx(5.55)


class TestRegistry:
    def test_same_name_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("x_total") is registry.counter("x_total")

    def test_type_conflicts_are_errors(self):
        registry = MetricsRegistry()
        registry.counter("x_total")
        with pytest.raises(TypeError, match="already registered as counter"):
            registry.gauge("x_total")
        with pytest.raises(TypeError):
            registry.histogram("x_total")

    def test_snapshot_is_sorted_and_insertion_order_free(self):
        def build(order):
            registry = MetricsRegistry()
            for name, labels in order:
                registry.counter(name).inc(1, **labels)
            return registry.snapshot()

        series = [("b_total", {"node": "n2"}), ("a_total", {}), ("b_total", {"node": "n1"})]
        snapshot = build(series)
        assert snapshot == build(list(reversed(series)))
        assert list(snapshot) == ["a_total", "b_total"]
        assert list(snapshot["b_total"]) == ['b_total{node="n1"}', 'b_total{node="n2"}']

    def test_prometheus_rendering(self):
        registry = MetricsRegistry()
        registry.counter("req_total", "Requests served").inc(3, path='/a"b\n')
        registry.gauge("depth").set(1.5)
        text = registry.render_prometheus()
        assert "# HELP req_total Requests served\n" in text
        assert "# TYPE req_total counter\n" in text
        assert 'req_total{path="/a\\"b\\n"} 3\n' in text
        assert "# TYPE depth gauge" in text
        assert "depth 1.5" in text
        assert text.endswith("\n")

    def test_collectors_run_at_snapshot_time(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("live")
        state = {"value": 1}
        registry.register_collector(lambda: gauge.set(state["value"]))
        assert registry.snapshot()["live"] == {"live": 1}
        state["value"] = 7
        assert registry.snapshot()["live"] == {"live": 7}


class FakeStats:
    def __init__(self, snapshot):
        self._snapshot = snapshot

    def snapshot(self):
        return dict(self._snapshot)


class TestCollectors:
    def test_bind_network(self):
        registry = MetricsRegistry()

        class Net:
            stats = FakeStats(
                {"delivered": 10, "dropped_loss": 2, "messages_by_type": {"GossipData": 8}}
            )

        bind_network(registry, Net())
        snapshot = registry.snapshot()
        assert snapshot["repro_net_events_total"]['repro_net_events_total{outcome="delivered"}'] == 10
        assert snapshot["repro_net_messages_total"]['repro_net_messages_total{type="GossipData"}'] == 8

    def test_bind_kernel_tracks_the_live_counter(self):
        from repro.sim.engine import Engine, events_fired_total

        registry = MetricsRegistry()
        bind_kernel(registry)
        engine = Engine()
        engine.post(0.0, lambda: None)
        engine.run_until_idle()
        value = registry.snapshot()["repro_kernel_events_fired_total"][
            "repro_kernel_events_fired_total"
        ]
        assert value == events_fired_total() > 0

    def test_bind_latency_quantile_gauges(self):
        registry = MetricsRegistry()
        histogram = LatencyHistogram()
        for i in range(1, 101):
            histogram.record(i / 1000.0)
        bind_latency(registry, "repro_lat", lambda: histogram, phase="steady")
        series = registry.snapshot()["repro_lat"]
        assert series['repro_lat{phase="steady",quantile="0.5"}'] == pytest.approx(0.05)
        assert series['repro_lat{phase="steady",quantile="0.999"}'] == pytest.approx(0.1)
        counts = registry.snapshot()["repro_lat_count"]
        assert counts['repro_lat_count{phase="steady"}'] == 100

    def test_bind_latency_none_supplier_skips(self):
        registry = MetricsRegistry()
        bind_latency(registry, "repro_lat", lambda: None)
        assert registry.snapshot()["repro_lat"] == {}

    def test_bind_transport(self):
        registry = MetricsRegistry()

        class Transport:
            frames_sent = 5
            frames_received = 4
            frames_stale = 1
            stale_handshakes = 0
            frames_overflow = 0
            frames_rejected = 2
            frames_faulted = 0
            epoch = 3

        bind_transport(registry, Transport(), node="n1")
        snapshot = registry.snapshot()
        frames = snapshot["repro_transport_frames_total"]
        assert frames['repro_transport_frames_total{node="n1",outcome="frames_sent"}'] == 5
        assert frames['repro_transport_frames_total{node="n1",outcome="frames_stale"}'] == 1
        assert snapshot["repro_transport_epoch"]['repro_transport_epoch{node="n1"}'] == 3

    def test_bind_pubsub_cluster_reads_facades_at_collect_time(self):
        class Guard:
            rejected = 2

            def trips(self):
                return 1

            def open_peers(self):
                return ["x"]

        class Transport:
            frames_sent = 7
            frames_received = 6
            frames_stale = 0
            stale_handshakes = 0
            frames_overflow = 0
            frames_rejected = 0
            frames_faulted = 0
            epoch = 1

        class Inner:
            node_id = "127.0.0.1:9001"
            transport = Transport()

        class Client:
            rate_limited = 4

        class Facade:
            node = Inner()
            guard = Guard()
            clients = {"c1": Client(), "c2": Client()}
            messages_published = 20
            messages_delivered = 18
            messages_dropped = 1
            messages_ignored = 0
            topic_rate_limited = 3

        class Service:
            facades = []

        service = Service()
        registry = MetricsRegistry()
        bind_pubsub_cluster(registry, service)
        # No facades yet: the binding itself publishes nothing.
        assert registry.snapshot()["repro_service_published_total"] == {}
        # Facades appearing later (e.g. after a node restart) are picked up.
        service.facades = [Facade()]
        snapshot = registry.snapshot()
        label = '{node="127.0.0.1:9001"}'
        assert snapshot["repro_service_published_total"][f"repro_service_published_total{label}"] == 20
        assert (
            snapshot["repro_service_client_rate_limited_total"][
                f"repro_service_client_rate_limited_total{label}"
            ]
            == 8
        )
        assert snapshot["repro_breaker_trips_total"][f"repro_breaker_trips_total{label}"] == 1
        assert snapshot["repro_breaker_open"][f"repro_breaker_open{label}"] == 1
        assert (
            snapshot["repro_transport_frames_total"][
                'repro_transport_frames_total{node="127.0.0.1:9001",outcome="frames_sent"}'
            ]
            == 7
        )


class TestMetricsServer:
    def test_serves_and_scrapes_exposition(self):
        async def exercise():
            registry = MetricsRegistry()
            registry.counter("up_total", "Liveness").inc(1)
            server = await MetricsServer(registry).start()
            try:
                body = await scrape("127.0.0.1", server.port)
                root = await scrape("127.0.0.1", server.port, path="/")
            finally:
                await server.close()
            return body, root

        body, root = run(exercise())
        assert "# TYPE up_total counter" in body
        assert "up_total 1" in body
        assert body == root

    def test_unknown_path_is_http_404(self):
        async def exercise():
            server = await MetricsServer(MetricsRegistry()).start()
            try:
                with pytest.raises(RuntimeError, match="HTTP 404"):
                    await scrape("127.0.0.1", server.port, path="/nope")
            finally:
                await server.close()

        run(exercise())

    def test_port_requires_running_server(self):
        with pytest.raises(RuntimeError):
            MetricsServer(MetricsRegistry()).port

    def test_content_type_is_prometheus_text(self):
        assert CONTENT_TYPE.startswith("text/plain; version=0.0.4")
