"""Tests for HyParView and experiment configuration validation."""

import pytest

from repro.common.errors import ConfigurationError
from repro.core.config import HyParViewConfig
from repro.experiments.params import ExperimentParams
from repro.protocols.cyclon import CyclonConfig
from repro.protocols.scamp import ScampConfig


class TestHyParViewConfig:
    def test_paper_defaults(self):
        config = HyParViewConfig.paper()
        assert config.active_view_capacity == 5
        assert config.passive_view_capacity == 30
        assert config.arwl == 6
        assert config.prwl == 3
        assert config.shuffle_ka == 3
        assert config.shuffle_kp == 4
        assert config.fanout == 4

    def test_shuffle_ttl_defaults_to_arwl(self):
        assert HyParViewConfig().effective_shuffle_ttl == 6
        assert HyParViewConfig(shuffle_ttl=2).effective_shuffle_ttl == 2

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            HyParViewConfig(active_view_capacity=0)
        with pytest.raises(ConfigurationError):
            HyParViewConfig(passive_view_capacity=0)
        with pytest.raises(ConfigurationError):
            HyParViewConfig(prwl=7, arwl=6)  # PRWL must be <= ARWL
        with pytest.raises(ConfigurationError):
            HyParViewConfig(arwl=-1)
        with pytest.raises(ConfigurationError):
            HyParViewConfig(shuffle_ka=-1)
        with pytest.raises(ConfigurationError):
            HyParViewConfig(shuffle_ttl=0)
        with pytest.raises(ConfigurationError):
            HyParViewConfig(shuffle_period=0)
        with pytest.raises(ConfigurationError):
            HyParViewConfig(neighbor_request_timeout=0)
        with pytest.raises(ConfigurationError):
            HyParViewConfig(promotion_retry_delay=0)
        with pytest.raises(ConfigurationError):
            HyParViewConfig(promotion_max_passes=-1)

    def test_scaled_keeps_active_view(self):
        scaled = HyParViewConfig().scaled(500)
        assert scaled.active_view_capacity == 5
        assert scaled.passive_view_capacity < 30

    def test_scaled_at_paper_size_matches_paper(self):
        assert HyParViewConfig().scaled(10_000).passive_view_capacity == 30

    def test_scaled_respects_log_floor(self):
        import math

        for n in (50, 200, 1000, 10000):
            scaled = HyParViewConfig().scaled(n)
            assert scaled.passive_view_capacity > math.log(n)

    def test_scaled_rejects_tiny_system(self):
        with pytest.raises(ConfigurationError):
            HyParViewConfig().scaled(1)


class TestBaselineConfigs:
    def test_cyclon_paper_values(self):
        config = CyclonConfig()
        assert config.view_size == 35
        assert config.shuffle_length == 14
        assert config.walk_ttl == 5
        assert config.effective_join_walks == 35

    def test_cyclon_validation(self):
        with pytest.raises(ConfigurationError):
            CyclonConfig(view_size=0)
        with pytest.raises(ConfigurationError):
            CyclonConfig(shuffle_length=0)
        with pytest.raises(ConfigurationError):
            CyclonConfig(view_size=5, shuffle_length=6)
        with pytest.raises(ConfigurationError):
            CyclonConfig(walk_ttl=-1)
        with pytest.raises(ConfigurationError):
            CyclonConfig(join_walks=0)

    def test_scamp_paper_values(self):
        assert ScampConfig().c == 4

    def test_scamp_validation(self):
        with pytest.raises(ConfigurationError):
            ScampConfig(c=-1)
        with pytest.raises(ConfigurationError):
            ScampConfig(max_forward_hops=0)
        with pytest.raises(ConfigurationError):
            ScampConfig(lease_cycles=0)
        with pytest.raises(ConfigurationError):
            ScampConfig(isolation_cycles=0)


class TestExperimentParams:
    def test_paper_configuration(self):
        params = ExperimentParams.paper()
        assert params.n == 10_000
        assert params.fanout == 4
        assert params.stabilization_cycles == 50
        assert params.cyclon.view_size == 35
        assert params.scamp.c == 4

    def test_scaled_preserves_relations(self):
        params = ExperimentParams.scaled(500)
        hv = params.hyparview
        assert params.cyclon.view_size == hv.active_view_capacity + hv.passive_view_capacity
        assert params.fanout == 4

    def test_scaled_cyclon_view_bounded_by_n(self):
        params = ExperimentParams.scaled(20)
        assert params.cyclon.view_size <= 19

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ExperimentParams(n=1)
        with pytest.raises(ConfigurationError):
            ExperimentParams(fanout=0)
        with pytest.raises(ConfigurationError):
            ExperimentParams(stabilization_cycles=-1)
        with pytest.raises(ConfigurationError):
            ExperimentParams(latency_seconds=-1)

    def test_with_seed(self):
        params = ExperimentParams.scaled(100).with_seed(7)
        assert params.seed == 7
        assert params.n == 100
