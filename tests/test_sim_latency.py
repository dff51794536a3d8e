"""Tests for latency models."""

import pickle
import random
from types import SimpleNamespace

import pytest

from repro.common.errors import ConfigurationError
from repro.common.ids import NodeId
from repro.sim.latency import (
    ConstantLatency,
    CoordinateLatency,
    UniformLatency,
    ZonedLatency,
    build_latency_model,
)

A = NodeId("a", 1)
B = NodeId("b", 2)


class TestConstantLatency:
    def test_constant(self):
        model = ConstantLatency(0.05)
        rng = random.Random(0)
        assert model.delay(A, B, rng) == 0.05
        assert model.delay(B, A, rng) == 0.05

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            ConstantLatency(-1.0)


class TestUniformLatency:
    def test_within_bounds(self):
        model = UniformLatency(0.01, 0.05)
        rng = random.Random(0)
        for _ in range(100):
            delay = model.delay(A, B, rng)
            assert 0.01 <= delay <= 0.05

    def test_invalid_range_rejected(self):
        with pytest.raises(ConfigurationError):
            UniformLatency(0.05, 0.01)
        with pytest.raises(ConfigurationError):
            UniformLatency(-0.1, 0.1)

    def test_varies_per_message(self):
        model = UniformLatency(0.0, 1.0)
        rng = random.Random(0)
        delays = {model.delay(A, B, rng) for _ in range(10)}
        assert len(delays) > 1


class TestCoordinateLatency:
    def test_symmetric_and_stable(self):
        model = CoordinateLatency()
        rng = random.Random(0)
        d1 = model.delay(A, B, rng)
        d2 = model.delay(A, B, rng)
        d3 = model.delay(B, A, rng)
        assert d1 == d2 == d3

    def test_self_delay_is_base(self):
        model = CoordinateLatency(base=0.005)
        rng = random.Random(0)
        assert model.delay(A, A, rng) == pytest.approx(0.005)

    def test_distance_increases_delay(self):
        model = CoordinateLatency(base=0.0, per_unit=1.0)
        rng = random.Random(0)
        assert model.delay(A, B, rng) > 0.0

    def test_stable_across_instances(self):
        rng = random.Random(0)
        assert CoordinateLatency().delay(A, B, rng) == CoordinateLatency().delay(A, B, rng)

    def test_negative_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            CoordinateLatency(base=-1.0)
        with pytest.raises(ConfigurationError):
            CoordinateLatency(per_unit=-1.0)


class TestZonedLatency:
    def test_base_delay_symmetric_and_stable_across_instances(self):
        a, b = NodeId("n3", 9000), NodeId("n11", 9000)
        assert ZonedLatency().base_delay(a, b) == ZonedLatency().base_delay(b, a)

    def test_zone_assignment_is_a_pure_function_of_identity(self):
        node = NodeId("n42", 9000)
        assert ZonedLatency().zone_of(node) == ZonedLatency().zone_of(node)
        assert 0 <= ZonedLatency(zones=4).zone_of(node) < 4

    def test_intra_zone_cheaper_than_inter_zone_band(self):
        model = ZonedLatency(zones=4)
        nodes = [NodeId(f"n{i}", 9000) for i in range(64)]
        intra_high, inter_low = model.intra[1], model.inter[0]
        assert intra_high < inter_low  # the default bands must not overlap
        for a in nodes[:8]:
            for b in nodes:
                if a == b:
                    continue
                base = model.base_delay(a, b)
                if model.zone_of(a) == model.zone_of(b):
                    assert model.intra[0] <= base <= intra_high
                else:
                    assert inter_low <= base <= model.inter[1]

    def test_jitter_stays_within_fraction_and_above_intra_floor(self):
        model = ZonedLatency()
        rng = random.Random(3)
        a, b = NodeId("n1", 9000), NodeId("n2", 9000)
        base = model.base_delay(a, b)
        for _ in range(200):
            delay = model.delay(a, b, rng)
            assert base * (1.0 - model.jitter) <= delay <= base * (1.0 + model.jitter)
            assert delay >= model.intra[0] * (1.0 - model.jitter)

    def test_zero_jitter_reproduces_base_delay(self):
        model = ZonedLatency(jitter=0.0)
        rng = random.Random(0)
        a, b = NodeId("n1", 9000), NodeId("n2", 9000)
        assert model.delay(a, b, rng) == model.base_delay(a, b)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            ZonedLatency(zones=0)
        with pytest.raises(ConfigurationError):
            ZonedLatency(intra=(0.01, 0.005))
        with pytest.raises(ConfigurationError):
            ZonedLatency(jitter=1.0)

    def test_model_pickles_with_caches(self):
        model = ZonedLatency()
        a, b = NodeId("n1", 9000), NodeId("n2", 9000)
        expected = model.base_delay(a, b)  # populate the caches first
        clone = pickle.loads(pickle.dumps(model))
        assert clone.base_delay(a, b) == expected


class TestBuildLatencyModel:
    def test_default_is_the_historical_constant_model(self):
        model = build_latency_model(SimpleNamespace(latency_seconds=0.01))
        assert isinstance(model, ConstantLatency)
        assert model.delay(A, B, random.Random(0)) == 0.01

    def test_zoned_selector_reads_zone_count(self):
        model = build_latency_model(
            SimpleNamespace(latency_model="zoned", latency_zones=5)
        )
        assert isinstance(model, ZonedLatency)
        assert model.zones == 5

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError):
            build_latency_model(SimpleNamespace(latency_model="wormhole"))
