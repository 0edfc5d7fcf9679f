"""Tests for the rolling NHPP forecaster."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import ADMMConfig, NHPPConfig
from repro.exceptions import ModelNotFittedError, ValidationError
from repro.nhpp.intensity import PiecewiseConstantIntensity
from repro.nhpp.online import RollingNHPPForecaster
from repro.nhpp.sampling import sample_arrival_times
from repro.traces.synthetic import periodic_bump_intensity


class TestRollingNHPPForecaster:
    def _bump(self) -> PiecewiseConstantIntensity:
        return periodic_bump_intensity(
            peak=0.8,
            period_seconds=1800.0,
            exponent=8.0,
            base=0.05,
            horizon_seconds=3600.0,
            bin_seconds=30.0,
        )

    def test_not_ready_before_first_refit(self):
        forecaster = RollingNHPPForecaster()
        assert not forecaster.is_ready
        with pytest.raises(ModelNotFittedError):
            forecaster.forecast_at(0.0)

    def test_refit_and_forecast(self):
        intensity = self._bump()
        arrivals = sample_arrival_times(intensity, 5400.0, 2)
        forecaster = RollingNHPPForecaster(
            bin_seconds=30.0,
            window_seconds=5400.0,
            refresh_seconds=600.0,
            config=NHPPConfig(admm=ADMMConfig(max_iterations=120)),
            min_observations=20,
        )
        forecaster.observe(arrivals)
        assert forecaster.maybe_refit(5400.0)
        assert forecaster.is_ready
        forecast = forecaster.forecast_at(5400.0)
        # The forecast should predict roughly the right volume for the next cycle.
        predicted = forecast.cumulative(1800.0)
        expected = intensity.cumulative(7200.0) - intensity.cumulative(5400.0)
        assert predicted == pytest.approx(expected, rel=0.5)

    def test_refresh_interval_respected(self):
        forecaster = RollingNHPPForecaster(
            bin_seconds=30.0, window_seconds=3600.0, refresh_seconds=600.0, min_observations=5
        )
        forecaster.observe(np.linspace(0.0, 900.0, 40))
        assert forecaster.maybe_refit(900.0)
        # Too soon: no refit.
        forecaster.observe(np.linspace(901.0, 1000.0, 10))
        assert not forecaster.maybe_refit(1000.0)
        # Force works regardless.
        assert forecaster.maybe_refit(1000.0, force=True)
        assert len(forecaster.refit_history) == 2

    def test_too_few_observations_skips_refit(self):
        forecaster = RollingNHPPForecaster(min_observations=100)
        forecaster.observe(np.linspace(0, 100, 10))
        assert not forecaster.maybe_refit(100.0)

    def test_out_of_order_observations_rejected(self):
        forecaster = RollingNHPPForecaster()
        forecaster.observe([10.0, 20.0])
        with pytest.raises(ValidationError):
            forecaster.observe(5.0)

    def test_window_trimming(self):
        forecaster = RollingNHPPForecaster(
            bin_seconds=30.0, window_seconds=600.0, refresh_seconds=60.0, min_observations=5
        )
        forecaster.observe(np.linspace(0.0, 2000.0, 300))
        forecaster.maybe_refit(2000.0)
        # Only arrivals within the trailing 600-second window are retained.
        assert forecaster.n_observations <= 300
        assert forecaster.n_observations > 0
        history = forecaster.refit_history
        assert history[-1].n_observations == forecaster.n_observations
