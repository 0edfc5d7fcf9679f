"""Tests for the configuration dataclasses."""

from __future__ import annotations

from dataclasses import fields

import pytest

from repro import config
from repro.config import ADMMConfig, NHPPConfig, PlannerConfig, SimulationConfig
from repro.exceptions import ConfigurationError, ValidationError


def test_settable_fields_are_pinned():
    """Adding or removing a setting is a deliberate change to this table."""
    pinned = {
        "ADMMConfig": ("max_iterations", "tolerance"),
        "NHPPConfig": ("beta_smooth", "beta_period", "admm"),
        "PlannerConfig": ("planning_interval", "monte_carlo_samples"),
        "SimulationConfig": (
            "pending_time",
            "pending_time_jitter",
            "charge_decision_latency",
            "scheduling_latency",
            "seed",
            "engine",
        ),
    }
    assert sorted(config.__all__) == sorted(pinned)
    for name, names in pinned.items():
        assert tuple(f.name for f in fields(getattr(config, name))) == names, name


class TestADMMConfig:
    def test_defaults_valid(self):
        cfg = ADMMConfig()
        assert cfg.tolerance > 0
        assert cfg.max_iterations >= 1

    @pytest.mark.parametrize(
        "kwargs",
        [{"max_iterations": 0}, {"max_iterations": 1.5}, {"tolerance": 0.0}, {"tolerance": -1.0}],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValidationError):
            ADMMConfig(**kwargs)


class TestNHPPConfig:
    def test_defaults_valid(self):
        cfg = NHPPConfig()
        assert cfg.beta_smooth >= 0
        assert cfg.beta_period >= 0

    def test_negative_betas_rejected(self):
        with pytest.raises(ValidationError):
            NHPPConfig(beta_smooth=-1.0)
        with pytest.raises(ValidationError):
            NHPPConfig(beta_period=-1.0)

    def test_zero_betas_allowed(self):
        cfg = NHPPConfig(beta_smooth=0.0, beta_period=0.0)
        assert cfg.beta_smooth == 0.0


class TestPlannerConfig:
    def test_defaults_valid(self):
        cfg = PlannerConfig()
        assert cfg.planning_interval > 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"planning_interval": 0.0},
            {"monte_carlo_samples": 0},
            {"planning_interval": -1.0},
            {"monte_carlo_samples": 1.5},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValidationError):
            PlannerConfig(**kwargs)


class TestSimulationConfig:
    def test_defaults_valid(self):
        cfg = SimulationConfig()
        assert cfg.pending_time >= 0

    def test_jitter_larger_than_pending_rejected(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(pending_time=5.0, pending_time_jitter=6.0)

    def test_negative_latency_rejected(self):
        with pytest.raises(ValidationError):
            SimulationConfig(scheduling_latency=-1.0)

    @pytest.mark.parametrize(
        "kwargs",
        [{"pending_time": -1.0}, {"pending_time_jitter": -0.5}, {"seed": -1}],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValidationError):
            SimulationConfig(**kwargs)

    def test_unknown_engine_rejected(self):
        with pytest.raises(ConfigurationError, match="engine"):
            SimulationConfig(engine="turbo")
