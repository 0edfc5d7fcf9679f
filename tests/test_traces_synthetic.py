"""Tests for the synthetic trace generators."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.traces.synthetic import (
    beta_bump_intensity,
    generate_alibaba_like_trace,
    generate_crs_like_trace,
    generate_google_like_trace,
    generate_trace_from_intensity,
    periodic_bump_intensity,
)


class TestBetaBumpIntensity:
    def test_peak_at_mid_period(self):
        values = beta_bump_intensity(
            np.array([1800.0]), peak=10.0, period_seconds=3600.0, exponent=40.0, base=0.5
        )
        assert values[0] == pytest.approx(10.5)

    def test_base_at_period_boundary(self):
        values = beta_bump_intensity(
            np.array([0.0, 3600.0]), peak=10.0, period_seconds=3600.0, exponent=40.0, base=0.5
        )
        np.testing.assert_allclose(values, 0.5)

    def test_periodic(self):
        t = np.array([500.0, 4100.0])
        values = beta_bump_intensity(
            t, peak=3.0, period_seconds=3600.0, exponent=10.0, base=0.1
        )
        assert values[0] == pytest.approx(values[1])

    def test_non_negative(self):
        t = np.linspace(0, 7200, 500)
        values = beta_bump_intensity(
            t, peak=5.0, period_seconds=3600.0, exponent=8.0, base=0.0
        )
        assert np.all(values >= 0)


class TestPaperIntensities:
    """The bump builder at the paper's constants (Table I and Table III)."""

    def test_scalability_intensity_peak(self):
        # Hourly bump peaking near 1000 QPS over seven hours, 10 s bins.
        intensity = periodic_bump_intensity(
            peak=1000.0,
            period_seconds=3600.0,
            exponent=40.0,
            base=0.001,
            horizon_seconds=25_200.0,
            bin_seconds=10.0,
        )
        assert intensity.n_bins == 2520
        # The bins next to the half period sit within 0.1% of peak + base.
        assert intensity.value(1805.0) == pytest.approx(1000.0 + 0.001, rel=1e-3)
        assert intensity.upper_bound() == pytest.approx(1000.0 + 0.001, rel=1e-3)

    def test_regularization_intensity_period(self):
        # Daily bump over one week, 60 s bins.
        intensity = periodic_bump_intensity(
            peak=1.0,
            period_seconds=86_400.0,
            exponent=10.0,
            base=0.1,
            horizon_seconds=604_800.0,
            bin_seconds=60.0,
        )
        assert intensity.n_bins == 10_080
        assert intensity.value(43_230.0) == pytest.approx(1.0 + 0.1, rel=1e-5)
        assert intensity.upper_bound() == pytest.approx(1.0 + 0.1, rel=1e-5)

    def test_bins_hold_midpoint_values(self):
        intensity = periodic_bump_intensity(
            peak=2.0, period_seconds=600.0, exponent=8.0, base=0.05,
            horizon_seconds=600.0, bin_seconds=10.0,
        )
        midpoints = (np.arange(60) + 0.5) * 10.0
        expected = beta_bump_intensity(
            midpoints, peak=2.0, period_seconds=600.0, exponent=8.0, base=0.05
        )
        assert intensity.values.tolist() == expected.tolist()

    def test_extrapolation_is_periodic(self):
        intensity = periodic_bump_intensity(
            peak=1000.0, period_seconds=3600.0, exponent=40.0, base=0.001,
            horizon_seconds=7200.0, bin_seconds=10.0,
        )
        t = np.array([5.0, 1805.0, 3595.0])
        np.testing.assert_array_equal(intensity.value(t + 7200.0), intensity.value(t))
        np.testing.assert_array_equal(intensity.value(t + 5 * 7200.0), intensity.value(t))


#: (peak, period, exponent, base, horizon, bin) of the builder's call sites.
_BUMP_SITES = {
    "table1-default": (20.0, 1800.0, 40.0, 0.001, 4 * 1800.0, 5.0),
    "table3-default": (1.0, 14_400.0, 10.0, 0.1, 7 * 14_400.0, 60.0),
    "sensitivity-default": (1.0, 7200.0, 10.0, 0.1, 6 * 7200.0, 60.0),
    "tests-conftest": (2.0, 600.0, 8.0, 0.05, 600.0, 10.0),
    "faas-example": (5.0, 1800.0, 20.0, 0.05, 1800.0, 10.0),
    "online-example": (0.8, 1800.0, 8.0, 0.05, 3600.0, 30.0),
}


class TestPeriodicBumpIntensity:
    """The one bin-midpoint bump builder the drivers, tests and examples share."""

    @staticmethod
    def _build(peak, period, exponent, base, horizon, bin_seconds):
        return periodic_bump_intensity(
            peak=peak,
            period_seconds=period,
            exponent=exponent,
            base=base,
            horizon_seconds=horizon,
            bin_seconds=bin_seconds,
        )

    @pytest.mark.parametrize("site", sorted(_BUMP_SITES))
    def test_equals_the_written_out_steps(self, site):
        peak, period, exponent, base, horizon, bin_seconds = _BUMP_SITES[site]
        intensity = self._build(*_BUMP_SITES[site])
        # Bin midpoints -> beta bump -> periodic piecewise-constant intensity,
        # the steps each call site used to write out.
        times = (np.arange(int(horizon / bin_seconds)) + 0.5) * bin_seconds
        values = beta_bump_intensity(
            times, peak=peak, period_seconds=period, exponent=exponent, base=base
        )
        assert intensity.values.tobytes() == values.tobytes()
        assert intensity.bin_seconds == bin_seconds
        assert intensity.extrapolation == "periodic"

    @pytest.mark.parametrize(
        "horizon, bin_seconds, n_bins",
        [(600.0, 10.0, 60), (609.9, 10.0, 60), (3600.0, 7.0, 514)],
    )
    def test_bin_count_is_the_floored_ratio(self, horizon, bin_seconds, n_bins):
        intensity = self._build(1.0, 600.0, 4.0, 0.1, horizon, bin_seconds)
        assert intensity.n_bins == n_bins

    def test_values_lie_between_base_and_peak_plus_base(self):
        intensity = self._build(*_BUMP_SITES["faas-example"])
        assert intensity.values.min() >= 0.05
        assert intensity.values.max() <= 5.0 + 0.05
class TestGenerateTraceFromIntensity:
    def test_count_matches_mass(self, periodic_intensity):
        horizon = 3600.0
        counts = [
            generate_trace_from_intensity(
                periodic_intensity, horizon, random_state=seed
            ).n_queries
            for seed in range(30)
        ]
        expected = periodic_intensity.cumulative(horizon)
        assert np.mean(counts) == pytest.approx(expected, rel=0.1)

    def test_processing_distributions(self, constant_intensity):
        for dist in ("exponential", "lognormal", "constant"):
            trace = generate_trace_from_intensity(
                constant_intensity,
                1800.0,
                processing_time_mean=10.0,
                processing_time_distribution=dist,
                random_state=0,
            )
            if trace.n_queries:
                assert np.all(trace.processing_times >= 0)

    def test_unknown_distribution_rejected(self, constant_intensity):
        with pytest.raises(ValidationError):
            generate_trace_from_intensity(
                constant_intensity,
                100.0,
                processing_time_distribution="weird",
                random_state=0,
            )

    def test_reproducible(self, constant_intensity):
        a = generate_trace_from_intensity(constant_intensity, 600.0, random_state=5)
        b = generate_trace_from_intensity(constant_intensity, 600.0, random_state=5)
        np.testing.assert_array_equal(a.arrival_times, b.arrival_times)


class TestNamedGenerators:
    def test_crs_like_shape(self):
        trace = generate_crs_like_trace(n_weeks=2, seed=1)
        assert trace.horizon == pytest.approx(2 * 7 * 86_400.0)
        assert 0.001 < trace.mean_qps < 0.1
        # Long processing times characteristic of image builds.
        assert trace.processing_times.mean() > 60.0

    def test_google_like_shape(self):
        trace = generate_google_like_trace(n_hours=12, seed=2)
        assert trace.horizon == pytest.approx(12 * 3600.0)
        assert 0.05 < trace.mean_qps < 1.0

    def test_google_like_has_spikes(self):
        trace = generate_google_like_trace(n_hours=12, seed=3)
        qps = trace.to_qps_series(60.0).qps
        assert qps.max() > 3.0 * np.median(qps[qps > 0])

    def test_alibaba_like_burst_present_and_removable(self):
        with_burst = generate_alibaba_like_trace(n_days=2, burst_day=1, seed=4, mean_qps=0.5)
        without_burst = generate_alibaba_like_trace(
            n_days=2, burst_day=-1, seed=4, mean_qps=0.5
        )
        qps_with = with_burst.to_qps_series(300.0).qps
        qps_without = without_burst.to_qps_series(300.0).qps
        assert qps_with.max() > 1.5 * qps_without.max()

    def test_generators_deterministic(self):
        a = generate_google_like_trace(n_hours=6, seed=9)
        b = generate_google_like_trace(n_hours=6, seed=9)
        np.testing.assert_array_equal(a.arrival_times, b.arrival_times)

    def test_different_seeds_differ(self):
        a = generate_google_like_trace(n_hours=6, seed=1)
        b = generate_google_like_trace(n_hours=6, seed=2)
        assert a.n_queries != b.n_queries or not np.array_equal(
            a.arrival_times, b.arrival_times
        )
