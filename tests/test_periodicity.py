"""Tests for the robust periodicity detector."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import PeriodicityDetectionError
from repro.nhpp.sampling import sample_counts
from repro.periodicity import PeriodicityDetector
from repro.periodicity.detector import AGGREGATION_FACTOR
from repro.traces.synthetic import periodic_bump_intensity
from repro.types import QPSSeries


def _periodic_counts(
    period_bins: int, n_periods: int, bin_seconds: float, peak: float, seed: int
) -> QPSSeries:
    horizon = period_bins * n_periods * bin_seconds
    intensity = periodic_bump_intensity(
        peak=peak,
        period_seconds=period_bins * bin_seconds,
        exponent=6.0,
        base=0.02,
        horizon_seconds=horizon,
        bin_seconds=bin_seconds,
    )
    counts = sample_counts(intensity, horizon, seed)
    return QPSSeries(counts, bin_seconds, name="periodic")


class TestPeriodicityDetector:
    def test_detects_planted_period(self):
        series = _periodic_counts(period_bins=120, n_periods=8, bin_seconds=60.0, peak=2.0, seed=0)
        result = PeriodicityDetector().detect(series)
        assert result.detected
        assert abs(result.period_bins - 120) <= 6
        assert result.period_seconds == result.period_bins * 60.0

    def test_no_period_in_constant_traffic(self):
        rng = np.random.default_rng(1)
        counts = rng.poisson(5.0, size=800)
        series = QPSSeries(counts, 60.0)
        result = PeriodicityDetector().detect(series)
        assert not result.detected
        assert result.period_bins == 0

    def test_detection_robust_to_outliers(self):
        series = _periodic_counts(period_bins=96, n_periods=8, bin_seconds=60.0, peak=2.0, seed=2)
        counts = np.asarray(series.counts).copy()
        counts[50] += 500  # a single huge burst
        corrupted = QPSSeries(counts, 60.0)
        result = PeriodicityDetector().detect(corrupted)
        assert result.detected
        assert abs(result.period_bins - 96) <= 5

    def test_short_series_raises(self):
        # 10 bins shrink the aggregation to 1 and still leave fewer than 16.
        series = QPSSeries(np.ones(10), 60.0)
        with pytest.raises(PeriodicityDetectionError):
            PeriodicityDetector().detect(series)

    def test_aggregation_factor_shrinks_for_short_series(self):
        series = _periodic_counts(period_bins=24, n_periods=6, bin_seconds=60.0, peak=3.0, seed=3)
        result = PeriodicityDetector().detect(series)
        # 144 bins / AGGREGATION_FACTOR would leave too few aggregated bins;
        # the detector must shrink the factor rather than fail.
        assert 1 <= result.aggregation_factor < AGGREGATION_FACTOR

    def test_result_contains_candidates(self):
        series = _periodic_counts(period_bins=120, n_periods=8, bin_seconds=60.0, peak=2.0, seed=4)
        result = PeriodicityDetector().detect(series)
        assert result.candidates, "periodogram candidates should be reported"

    def test_detection_is_deterministic(self):
        series = _periodic_counts(period_bins=120, n_periods=6, bin_seconds=60.0, peak=2.0, seed=5)
        first = PeriodicityDetector().detect(series)
        second = PeriodicityDetector().detect(series)
        assert first.period_bins == second.period_bins
        assert first.detected == second.detected
