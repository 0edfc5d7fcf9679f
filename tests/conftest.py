"""Shared fixtures for the RobustScaler reproduction test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import ADMMConfig, NHPPConfig, PlannerConfig, SimulationConfig
from repro.nhpp.intensity import PiecewiseConstantIntensity
from repro.nhpp.sampling import sample_arrival_times, sample_homogeneous_arrivals
from repro.pending import DeterministicPendingTime
from repro.traces.synthetic import periodic_bump_intensity
from repro.types import ArrivalTrace, QPSSeries


@pytest.fixture(autouse=True)
def _isolated_store_dir(tmp_path, monkeypatch):
    """Point the artifact store at a per-test directory.

    The CLI enables the disk store by default; without this, tests would
    write into (and read warm state from) the developer's real
    ``~/.cache/repro/store``.
    """
    monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "repro-store"))


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic random generator for tests."""
    return np.random.default_rng(12345)


@pytest.fixture
def constant_intensity() -> PiecewiseConstantIntensity:
    """A constant 0.5 queries/second intensity held forever."""
    return PiecewiseConstantIntensity(np.array([0.5]), 60.0, extrapolation="hold")


@pytest.fixture
def periodic_intensity() -> PiecewiseConstantIntensity:
    """A periodic bump intensity with a 600-second period, 10-second bins."""
    return periodic_bump_intensity(
        peak=2.0,
        period_seconds=600.0,
        exponent=8.0,
        base=0.05,
        horizon_seconds=600.0,
        bin_seconds=10.0,
    )


@pytest.fixture
def small_poisson_trace() -> ArrivalTrace:
    """A homogeneous Poisson trace (rate 0.3/s over one hour) with constant processing."""
    arrivals = sample_homogeneous_arrivals(0.3, 3600.0, 7)
    return ArrivalTrace(arrivals, 15.0, name="hpp-small", horizon=3600.0)


@pytest.fixture
def periodic_trace(periodic_intensity: PiecewiseConstantIntensity) -> ArrivalTrace:
    """An NHPP trace drawn from the periodic bump intensity over one hour."""
    arrivals = sample_arrival_times(periodic_intensity, 3600.0, 11)
    return ArrivalTrace(arrivals, 10.0, name="periodic-small", horizon=3600.0)


@pytest.fixture
def small_qps_series(periodic_trace: ArrivalTrace) -> QPSSeries:
    """QPS series of the periodic trace at 30-second bins."""
    return periodic_trace.to_qps_series(30.0)


@pytest.fixture
def fast_admm() -> ADMMConfig:
    """An ADMM configuration sized for unit tests."""
    return ADMMConfig(max_iterations=150, tolerance=1e-3)


@pytest.fixture
def fast_nhpp(fast_admm: ADMMConfig) -> NHPPConfig:
    """An NHPP configuration sized for unit tests."""
    return NHPPConfig(beta_smooth=20.0, beta_period=10.0, admm=fast_admm)


@pytest.fixture
def fast_planner() -> PlannerConfig:
    """A planner configuration with few Monte Carlo samples for fast tests."""
    return PlannerConfig(planning_interval=5.0, monte_carlo_samples=200)


@pytest.fixture
def sim_config() -> SimulationConfig:
    """Simulator configuration with a 10-second deterministic pending time."""
    return SimulationConfig(pending_time=10.0)


@pytest.fixture
def pending_model() -> DeterministicPendingTime:
    """A deterministic 10-second pending time."""
    return DeterministicPendingTime(10.0)
