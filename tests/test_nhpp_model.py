"""Tests for the high-level NHPP workload model and its extrapolation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ModelNotFittedError, ValidationError
from repro.nhpp.extrapolation import TRAILING_WINDOW_BINS, extrapolate_intensity
from repro.nhpp.intensity import PiecewiseConstantIntensity
from repro.nhpp.model import MIN_INTENSITY, NHPPModel
from repro.nhpp.sampling import (
    sample_arrival_times,
    sample_counts,
    sample_homogeneous_arrivals,
)
from repro.nhpp.validation import ks_statistic_time_rescaling, rescaled_interarrival_times
from repro.traces.synthetic import periodic_bump_intensity
from repro.types import ArrivalTrace, QPSSeries


def _periodic_series(period_bins: int, n_periods: int, seed: int) -> tuple[QPSSeries, np.ndarray]:
    bin_seconds = 60.0
    horizon = period_bins * n_periods * bin_seconds
    intensity = periodic_bump_intensity(
        peak=0.5,
        period_seconds=period_bins * bin_seconds,
        exponent=6.0,
        base=0.02,
        horizon_seconds=horizon,
        bin_seconds=bin_seconds,
    )
    counts = sample_counts(intensity, horizon, seed)
    return QPSSeries(counts, bin_seconds, name="periodic"), intensity.values


class TestNHPPModelFit:
    def test_unfitted_model_raises(self):
        model = NHPPModel()
        with pytest.raises(ModelNotFittedError):
            _ = model.fit_result
        with pytest.raises(ModelNotFittedError):
            model.forecast()

    def test_fit_on_series_recovers_intensity(self, fast_nhpp):
        series, truth = _periodic_series(60, 6, seed=0)
        model = NHPPModel(fast_nhpp).fit(series, period_bins=60)
        estimate = model.fit_result.intensity
        mae = np.mean(np.abs(estimate - truth))
        assert mae < 0.05
        assert model.period_bins == 60
        assert model.period_seconds == 3600.0

    def test_fit_detects_period_automatically(self, fast_nhpp):
        series, _ = _periodic_series(60, 8, seed=1)
        model = NHPPModel(fast_nhpp).fit(series)
        assert model.is_fitted
        assert abs(model.period_bins - 60) <= 3

    def test_fit_on_trace_aggregates_internally(self, fast_nhpp, small_poisson_trace):
        model = NHPPModel(fast_nhpp, bin_seconds=120.0).fit(
            small_poisson_trace, period_bins=0
        )
        assert model.fit_result.bin_seconds == 120.0
        # The homogeneous rate should be recovered approximately.
        assert float(np.median(model.fit_result.intensity)) == pytest.approx(0.3, rel=0.3)

    def test_fit_with_period_zero_disables_penalty(self, fast_nhpp):
        series, _ = _periodic_series(40, 4, seed=2)
        model = NHPPModel(fast_nhpp).fit(series, period_bins=0)
        assert model.period_bins == 0
        # An explicit period, 0 included, skips detection altogether.
        assert model.fit_result.periodicity is None

    def test_invalid_data_type_rejected(self, fast_nhpp):
        with pytest.raises(ValidationError):
            NHPPModel(fast_nhpp).fit([1, 2, 3])

    def test_intensity_at_matches_fitted(self, fast_nhpp):
        series, _ = _periodic_series(30, 4, seed=3)
        model = NHPPModel(fast_nhpp).fit(series, period_bins=30)
        values = model.fit_result.intensity
        assert model.intensity_at(30.0) == pytest.approx(values[0])
        assert model.intensity_at(90.0) == pytest.approx(values[1])

    def test_expected_count(self, fast_nhpp):
        series, _ = _periodic_series(30, 4, seed=4)
        model = NHPPModel(fast_nhpp).fit(series, period_bins=30)
        total = model.expected_count(0.0, series.duration)
        assert total == pytest.approx(float(series.counts.sum()), rel=0.25)
        with pytest.raises(ValidationError):
            model.expected_count(10.0, 5.0)

    def test_min_intensity_floor_applied(self):
        series = QPSSeries(np.zeros(50) + 0.0, 60.0)
        model = NHPPModel().fit(series, period_bins=0)
        assert np.all(model.fit_result.intensity >= MIN_INTENSITY)


class TestForecast:
    def test_periodic_forecast_repeats_pattern(self, fast_nhpp):
        series, truth = _periodic_series(60, 6, seed=5)
        model = NHPPModel(fast_nhpp).fit(series, period_bins=60)
        forecast = model.forecast()
        # The forecast at phase p should roughly match the truth at phase p.
        future_times = (np.arange(60) + 0.5) * 60.0
        predicted = np.asarray(forecast.value(future_times))
        expected = truth[:60]  # truth is periodic, forecast starts at phase 0
        assert np.corrcoef(predicted, expected)[0, 1] > 0.9

    def test_aperiodic_forecast_holds_recent_level(self, fast_nhpp):
        rng = np.random.default_rng(6)
        counts = rng.poisson(12.0, size=100)
        series = QPSSeries(counts, 60.0)
        model = NHPPModel(fast_nhpp).fit(series, period_bins=0)
        forecast = model.forecast()
        assert forecast.value(10_000.0) == pytest.approx(0.2, rel=0.3)


class TestExtrapolateIntensity:
    def test_periodic_template_uses_median_of_cycles(self):
        period = 4
        values = np.array([1.0, 2.0, 3.0, 4.0] * 3, dtype=float)
        values[0:4] = [100.0, 200.0, 300.0, 400.0]  # one anomalous cycle
        forecast = extrapolate_intensity(values, 10.0, period_bins=period)
        np.testing.assert_allclose(forecast.values, [1.0, 2.0, 3.0, 4.0])

    def test_phase_alignment(self):
        """The forecast's first bin must continue the cycle where training ended."""
        period = 5
        pattern = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        # Training data: 3 complete cycles plus 2 extra bins -> ends mid-cycle.
        values = np.concatenate([np.tile(pattern, 3), pattern[:2]])
        forecast = extrapolate_intensity(values, 10.0, period_bins=period)
        # Next phase after the last training bin (pattern[1]) is pattern[2].
        assert forecast.value(0.0) == pytest.approx(3.0)
        assert forecast.value(10.0) == pytest.approx(4.0)

    def test_forecast_repeats_with_its_period(self):
        """Every later cycle of the forecast equals its first cycle, bin for bin."""
        period, bin_seconds = 5, 10.0
        pattern = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        values = np.concatenate([np.tile(pattern, 3), pattern[:2]])
        forecast = extrapolate_intensity(values, bin_seconds, period_bins=period)
        t = (np.arange(period) + 0.5) * bin_seconds
        first_cycle = forecast.value(t)
        np.testing.assert_array_equal(first_cycle, [3.0, 4.0, 5.0, 1.0, 2.0])
        for k in range(1, 4):
            np.testing.assert_array_equal(
                forecast.value(t + k * period * bin_seconds), first_cycle
            )

    def test_aperiodic_uses_trailing_median(self):
        values = np.concatenate([np.full(50, 10.0), np.full(30, 2.0)])
        forecast = extrapolate_intensity(values, 60.0, period_bins=None)
        assert forecast.value(0.0) == pytest.approx(2.0)

    def test_aperiodic_level_reads_exactly_the_trailing_window(self):
        values = np.arange(100.0)
        forecast = extrapolate_intensity(values, 60.0)
        assert TRAILING_WINDOW_BINS == 30
        # The median of bins 70..99; one more bin would read 84.0.
        assert forecast.value(0.0) == 84.5

    def test_short_aperiodic_history_uses_every_bin(self):
        forecast = extrapolate_intensity(np.array([1.0, 2.0, 100.0]), 60.0)
        assert forecast.value(0.0) == 2.0

    def test_period_longer_than_history_holds_a_level(self):
        values = np.array([1.0, 5.0, 2.0, 4.0, 3.0])
        forecast = extrapolate_intensity(values, 60.0, period_bins=8)
        assert forecast.extrapolation == "hold"
        assert forecast.value(0.0) == 3.0

    def test_held_level_never_ends(self):
        forecast = extrapolate_intensity(np.full(10, 0.25), 60.0)
        t = np.array([0.0, 59.0, 60.0, 3600.0, 1e9])
        np.testing.assert_array_equal(forecast.value(t), np.full(t.size, 0.25))

    def test_invalid_inputs(self):
        with pytest.raises(ValidationError):
            extrapolate_intensity(np.array([]), 60.0)
        with pytest.raises(ValidationError):
            extrapolate_intensity(np.array([-1.0]), 60.0)


class TestConstantRateWorkload:
    """On a homogeneous Poisson trace the NHPP reduces to one constant rate."""

    HORIZON = 4 * 3600.0

    def _trace(self, rate: float) -> ArrivalTrace:
        arrivals = sample_homogeneous_arrivals(rate, self.HORIZON, 3)
        return ArrivalTrace(arrivals, 1.0, name="hpp", horizon=self.HORIZON)

    @pytest.mark.parametrize("rate", [0.05, 0.5])
    def test_fit_recovers_the_rate(self, fast_nhpp, rate):
        trace = self._trace(rate)
        intensity = NHPPModel(fast_nhpp).fit(trace, period_bins=0).fit_result.intensity
        observed_rate = trace.n_queries / self.HORIZON
        assert np.median(intensity) == pytest.approx(observed_rate, rel=0.1)
        # The smoothness penalty removes most of the per-bin Poisson noise.
        raw = trace.to_qps_series(60.0).qps
        assert intensity.std() < 0.5 * raw.std()

    def test_detector_finds_no_period(self, fast_nhpp):
        model = NHPPModel(fast_nhpp).fit(self._trace(0.5))
        assert model.period_bins == 0
        assert not model.fit_result.periodicity.detected

    def test_fitted_intensity_integrates_to_the_observed_count(self, fast_nhpp):
        # D2 and D_L annihilate constants, so the optimum matches total mass.
        trace = self._trace(0.05)
        model = NHPPModel(fast_nhpp).fit(trace, period_bins=0)
        assert model.expected_count(0.0, self.HORIZON) == pytest.approx(
            trace.n_queries, rel=1e-4
        )

    def test_forecast_is_one_level_within_the_fitted_range(self, fast_nhpp):
        model = NHPPModel(fast_nhpp).fit(self._trace(0.5), period_bins=0)
        intensity = model.fit_result.intensity
        forecast = model.forecast()
        level = forecast.value(0.0)
        assert forecast.value(1e6) == level
        assert intensity.min() <= level <= intensity.max()

    def test_time_rescaling_accepts_the_fit(self, fast_nhpp):
        trace = self._trace(0.05)
        model = NHPPModel(fast_nhpp).fit(trace, period_bins=0)
        _, p_value = ks_statistic_time_rescaling(
            trace.arrival_times, model.fitted_intensity
        )
        assert p_value > 0.05

    def test_fit_on_trace_equals_fit_on_its_series(self, fast_nhpp):
        trace = self._trace(0.5)
        from_trace = NHPPModel(fast_nhpp).fit(trace, period_bins=0)
        from_series = NHPPModel(fast_nhpp).fit(trace.to_qps_series(60.0), period_bins=0)
        np.testing.assert_array_equal(
            from_trace.fit_result.intensity, from_series.fit_result.intensity
        )


class TestGoodnessOfFit:
    def test_rescaled_interarrivals_exponential_under_true_model(self):
        intensity = PiecewiseConstantIntensity(
            np.array([0.2, 1.0, 0.5, 2.0]), 500.0, extrapolation="periodic"
        )
        arrivals = sample_arrival_times(intensity, 8000.0, 8)
        statistic, p_value = ks_statistic_time_rescaling(arrivals, intensity)
        assert p_value > 0.01

    def test_wrong_model_rejected(self):
        true_intensity = PiecewiseConstantIntensity(
            np.array([0.05, 2.0]), 1000.0, extrapolation="periodic"
        )
        wrong_intensity = PiecewiseConstantIntensity(
            np.array([1.0]), 1000.0, extrapolation="hold"
        )
        arrivals = sample_arrival_times(true_intensity, 8000.0, 9)
        _, p_true = ks_statistic_time_rescaling(arrivals, true_intensity)
        _, p_wrong = ks_statistic_time_rescaling(arrivals, wrong_intensity)
        assert p_wrong < p_true

    def test_rescaled_interarrivals_positive(self):
        intensity = PiecewiseConstantIntensity(np.array([0.5]), 60.0, extrapolation="hold")
        arrivals = sample_arrival_times(intensity, 2000.0, 10)
        rescaled = rescaled_interarrival_times(arrivals, intensity)
        assert rescaled.size == arrivals.size
        assert np.all(rescaled >= 0)

    def test_requires_two_arrivals(self):
        intensity = PiecewiseConstantIntensity(np.array([0.5]), 60.0)
        with pytest.raises(ValidationError):
            rescaled_interarrival_times(np.array([1.0]), intensity)
