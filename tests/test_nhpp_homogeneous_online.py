"""Tests for the homogeneous baseline, model comparison, and rolling forecaster."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import ADMMConfig, NHPPConfig
from repro.exceptions import ModelNotFittedError, ValidationError
from repro.nhpp.homogeneous import (
    HomogeneousPoissonModel,
    compare_aic,
    effective_degrees_of_freedom,
    poisson_log_likelihood,
)
from repro.nhpp.intensity import PiecewiseConstantIntensity
from repro.nhpp.model import NHPPModel
from repro.nhpp.online import RollingNHPPForecaster
from repro.nhpp.sampling import sample_arrival_times, sample_counts
from repro.traces.synthetic import periodic_bump_intensity
from repro.types import ArrivalTrace, QPSSeries


class TestHomogeneousPoissonModel:
    def test_fit_from_series(self):
        series = QPSSeries([6, 6, 6, 6], 60.0)
        model = HomogeneousPoissonModel().fit(series)
        assert model.rate == pytest.approx(0.1)

    def test_fit_from_trace(self):
        trace = ArrivalTrace(np.linspace(1, 99, 50), 1.0, horizon=100.0)
        model = HomogeneousPoissonModel().fit(trace)
        assert model.rate == pytest.approx(0.5)

    def test_unfitted_raises(self):
        with pytest.raises(ModelNotFittedError):
            _ = HomogeneousPoissonModel().rate

    def test_forecast_constant(self):
        series = QPSSeries([3, 3, 3, 3, 3], 60.0)
        forecast = HomogeneousPoissonModel().fit(series).forecast()
        assert forecast.value(10.0) == pytest.approx(0.05)
        assert forecast.value(100_000.0) == pytest.approx(0.05)

    def test_expected_count(self):
        series = QPSSeries([6, 6], 60.0)
        model = HomogeneousPoissonModel().fit(series)
        assert model.expected_count(0.0, 600.0) == pytest.approx(60.0)
        with pytest.raises(ValidationError):
            model.expected_count(10.0, 0.0)

    def test_invalid_data_rejected(self):
        with pytest.raises(ValidationError):
            HomogeneousPoissonModel().fit([1, 2, 3])


class TestPoissonLogLikelihood:
    def test_matches_scipy(self):
        from scipy import stats

        counts = np.array([0.0, 2.0, 5.0])
        values = np.array([0.01, 0.05, 0.08])
        ll = poisson_log_likelihood(counts, values, 60.0)
        expected = float(np.sum(stats.poisson.logpmf(counts, values * 60.0)))
        assert ll == pytest.approx(expected)

    def test_zero_intensity_with_count_is_minus_inf(self):
        ll = poisson_log_likelihood(np.array([1.0]), np.array([0.0]), 60.0)
        assert ll == float("-inf")

    def test_zero_intensity_zero_count_ok(self):
        ll = poisson_log_likelihood(np.array([0.0]), np.array([0.0]), 60.0)
        assert ll == pytest.approx(0.0)

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            poisson_log_likelihood(np.array([1.0]), np.array([1.0, 2.0]), 60.0)


class TestDegreesOfFreedomAndAIC:
    def test_constant_log_intensity_single_piece(self):
        assert effective_degrees_of_freedom(np.zeros(50)) == 2

    def test_piecewise_linear_counts_knots(self):
        r = np.concatenate([np.linspace(0, 1, 25), np.linspace(1, 0, 25)])
        assert effective_degrees_of_freedom(r) >= 3

    def test_nhpp_preferred_over_constant_on_periodic_workload(self, fast_nhpp):
        bin_seconds = 60.0
        period_bins = 60
        horizon = period_bins * 6 * bin_seconds
        truth = periodic_bump_intensity(
            peak=0.5,
            period_seconds=period_bins * bin_seconds,
            exponent=6.0,
            base=0.02,
            horizon_seconds=horizon,
            bin_seconds=bin_seconds,
        )
        counts = sample_counts(truth, horizon, 0)
        series = QPSSeries(counts, bin_seconds)
        nhpp = NHPPModel(fast_nhpp).fit(series, period_bins=period_bins)
        constant = HomogeneousPoissonModel().fit(series)
        comparison = compare_aic(
            counts,
            bin_seconds,
            nhpp.fit_result.intensity,
            np.full(counts.size, constant.rate),
            dof_b=1,
        )
        assert comparison.preferred == "a"
        assert comparison.log_likelihood_a > comparison.log_likelihood_b

    def test_constant_preferred_on_constant_workload(self):
        rng = np.random.default_rng(1)
        counts = rng.poisson(6.0, size=200).astype(float)
        rate = counts.sum() / (200 * 60.0)
        # A wiggly overfitted estimate: the raw per-bin rates.
        overfit = np.maximum(counts, 0.5) / 60.0
        comparison = compare_aic(
            counts, 60.0, overfit, np.full(200, rate), dof_a=200, dof_b=1
        )
        assert comparison.preferred == "b"


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
