"""Tests for the NHPP samplers."""

from __future__ import annotations

import numpy as np
import pytest
from scipy import stats

import repro.traces.synthetic as synthetic
from repro.exceptions import ValidationError
from repro.nhpp.intensity import PiecewiseConstantIntensity
from repro.nhpp.sampling import (
    sample_arrival_times,
    sample_counts,
    sample_homogeneous_arrivals,
    sample_next_arrivals,
)
from repro.workloads import get_scenario


class TestSampleCounts:
    def test_mean_matches_intensity(self):
        intensity = PiecewiseConstantIntensity(np.array([0.5, 2.0]), 100.0)
        totals = [sample_counts(intensity, 200.0, seed).sum() for seed in range(200)]
        assert np.mean(totals) == pytest.approx(250.0, rel=0.05)

    def test_output_length(self):
        intensity = PiecewiseConstantIntensity(np.array([1.0]), 60.0, extrapolation="hold")
        counts = sample_counts(intensity, 300.0, 0)
        assert counts.size == 5

    def test_truncated_last_bin(self):
        intensity = PiecewiseConstantIntensity(np.array([10.0]), 60.0, extrapolation="hold")
        # Horizon of 90 seconds: last bin only covers 30 seconds.
        totals = [sample_counts(intensity, 90.0, seed).sum() for seed in range(300)]
        assert np.mean(totals) == pytest.approx(900.0, rel=0.05)

    def test_deterministic_with_seed(self):
        intensity = PiecewiseConstantIntensity(np.array([1.0, 2.0]), 60.0)
        np.testing.assert_array_equal(
            sample_counts(intensity, 120.0, 5), sample_counts(intensity, 120.0, 5)
        )


class TestSampleArrivalTimes:
    def test_sorted_and_within_horizon(self):
        intensity = PiecewiseConstantIntensity(np.array([0.5]), 60.0, extrapolation="hold")
        arrivals = sample_arrival_times(intensity, 600.0, 1)
        assert np.all(np.diff(arrivals) >= 0)
        assert arrivals.min() >= 0.0
        assert arrivals.max() < 600.0

    def test_zero_intensity_no_arrivals(self):
        intensity = PiecewiseConstantIntensity(np.array([0.0]), 60.0, extrapolation="hold")
        assert sample_arrival_times(intensity, 600.0, 2).size == 0

    def test_count_mean_matches_mass(self):
        intensity = PiecewiseConstantIntensity(np.array([1.0, 3.0]), 50.0)
        counts = [sample_arrival_times(intensity, 100.0, seed).size for seed in range(200)]
        assert np.mean(counts) == pytest.approx(200.0, rel=0.05)

    def test_nonhomogeneous_distribution(self):
        """More arrivals should land in the high-intensity bin."""
        intensity = PiecewiseConstantIntensity(np.array([0.2, 5.0]), 100.0)
        arrivals = sample_arrival_times(intensity, 200.0, 3)
        early = np.count_nonzero(arrivals < 100.0)
        late = arrivals.size - early
        assert late > 5 * early


def _per_bin_reference(intensity, horizon_seconds, rng):
    """The scalar per-bin loop whose draws every paper trace is pinned to."""
    bin_seconds = intensity.bin_seconds
    n_bins = int(np.ceil(horizon_seconds / bin_seconds))
    arrivals = []
    for b in range(n_bins):
        start = b * bin_seconds
        end = min((b + 1) * bin_seconds, horizon_seconds)
        width = end - start
        if width <= 0:
            continue
        rate = float(intensity.value(start + 0.5 * width)) * width
        count = int(rng.poisson(max(rate, 0.0)))
        if count:
            arrivals.append(start + rng.uniform(0.0, width, size=count))
    if not arrivals:
        return np.empty(0)
    out = np.concatenate(arrivals)
    out.sort()
    return out


class TestLoopPathMatchesPerBinReference:
    """The default path computes bin rates as arrays but draws bin by bin:
    the same seed must give the reference loop's arrivals exactly."""

    @pytest.mark.parametrize(
        "values, bin_seconds, extrapolation, horizon",
        [
            ([0.8, 2.5, 0.3], 50.0, "hold", 431.7),
            ([0.0, 4.0, 0.0, 1.5, 0.0], 60.0, "periodic", 1234.5),
            ([2.0, 0.0, 3.0], 30.0, "hold", 200.25),
            ([0.0, 0.0], 10.0, "hold", 95.0),
            ([1e-3, 7.5], 0.7, "periodic", 100.0),
        ],
    )
    @pytest.mark.parametrize("seed", [3, 7])
    def test_identical_draws(self, values, bin_seconds, extrapolation, horizon, seed):
        intensity = PiecewiseConstantIntensity(
            np.array(values), bin_seconds, extrapolation=extrapolation
        )
        expected = _per_bin_reference(intensity, horizon, np.random.default_rng(seed))
        actual = sample_arrival_times(intensity, horizon, seed)
        assert actual.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("name", ["google", "alibaba", "crs"])
    @pytest.mark.parametrize("seed", [3, 7])
    def test_paper_traces_identical(self, monkeypatch, name, seed):
        trace = get_scenario(name).build_trace(scale=0.05, seed=seed)

        def reference(intensity, horizon_seconds, rng, *, vectorized=False):
            assert not vectorized
            return _per_bin_reference(intensity, horizon_seconds, rng)

        monkeypatch.setattr(synthetic, "sample_arrival_times", reference)
        pinned = get_scenario(name).build_trace(scale=0.05, seed=seed)
        assert trace.n_queries > 0
        assert trace.arrival_times.tobytes() == pinned.arrival_times.tobytes()
        assert trace.processing_times.tobytes() == pinned.processing_times.tobytes()


class TestVectorizedArrivalTimes:
    """The opt-in bulk construction of sample_arrival_times."""

    def test_default_path_draw_order_unchanged(self):
        """The default (loop) path must keep its historical draw order."""
        intensity = PiecewiseConstantIntensity(np.array([0.8, 2.5, 0.3]), 50.0)
        rng = np.random.default_rng(17)
        expected = []
        for b in range(4):
            start = b * 50.0
            width = min((b + 1) * 50.0, 170.0) - start
            rate = float(intensity.value(start + 0.5 * width)) * width
            count = int(rng.poisson(max(rate, 0.0)))
            if count:
                expected.append(start + rng.uniform(0.0, width, size=count))
        expected = np.sort(np.concatenate(expected)) if expected else np.empty(0)
        actual = sample_arrival_times(intensity, 170.0, 17)
        np.testing.assert_array_equal(actual, expected)

    def test_sorted_and_within_truncated_horizon(self):
        intensity = PiecewiseConstantIntensity(np.array([5.0]), 60.0, extrapolation="hold")
        arrivals = sample_arrival_times(intensity, 90.0, 1, vectorized=True)
        assert np.all(np.diff(arrivals) >= 0)
        assert arrivals.min() >= 0.0
        assert arrivals.max() < 90.0

    def test_zero_intensity_no_arrivals(self):
        intensity = PiecewiseConstantIntensity(np.array([0.0]), 60.0, extrapolation="hold")
        assert sample_arrival_times(intensity, 600.0, 2, vectorized=True).size == 0

    def test_count_mean_matches_mass(self):
        intensity = PiecewiseConstantIntensity(np.array([1.0, 3.0]), 50.0)
        counts = [
            sample_arrival_times(intensity, 100.0, seed, vectorized=True).size
            for seed in range(200)
        ]
        assert np.mean(counts) == pytest.approx(200.0, rel=0.05)

    def test_uniform_placement_for_constant_rate(self):
        """Conditionally on the counts, arrivals are uniform — so for a
        constant intensity the pooled sample is uniform on the horizon."""
        intensity = PiecewiseConstantIntensity(np.array([4.0]), 60.0, extrapolation="hold")
        arrivals = sample_arrival_times(intensity, 600.0, 5, vectorized=True)
        result = stats.kstest(arrivals, "uniform", args=(0.0, 600.0))
        assert result.pvalue > 0.01

    def test_nonhomogeneous_distribution(self):
        intensity = PiecewiseConstantIntensity(np.array([0.2, 5.0]), 100.0)
        arrivals = sample_arrival_times(intensity, 200.0, 3, vectorized=True)
        early = np.count_nonzero(arrivals < 100.0)
        late = arrivals.size - early
        assert late > 5 * early

    def test_same_distribution_as_loop_path(self):
        """Loop and bulk construction agree in distribution (not draws)."""
        intensity = PiecewiseConstantIntensity(np.array([1.5, 0.5, 3.0]), 40.0)
        loop = np.concatenate(
            [sample_arrival_times(intensity, 120.0, seed) for seed in range(150)]
        )
        bulk = np.concatenate(
            [
                sample_arrival_times(intensity, 120.0, 1000 + seed, vectorized=True)
                for seed in range(150)
            ]
        )
        result = stats.ks_2samp(loop, bulk)
        assert result.pvalue > 0.01


class TestSampleNextArrivals:
    def test_shape(self):
        intensity = PiecewiseConstantIntensity(np.array([1.0]), 60.0, extrapolation="hold")
        samples = sample_next_arrivals(intensity, 4, 100, 0)
        assert samples.shape == (100, 4)

    def test_rows_increasing(self):
        intensity = PiecewiseConstantIntensity(np.array([0.7]), 60.0, extrapolation="hold")
        samples = sample_next_arrivals(intensity, 5, 50, 1)
        assert np.all(np.diff(samples, axis=1) >= 0)

    def test_first_arrival_exponential_for_constant_rate(self):
        rate = 2.0
        intensity = PiecewiseConstantIntensity(np.array([rate]), 60.0, extrapolation="hold")
        samples = sample_next_arrivals(intensity, 1, 5000, 2)[:, 0]
        result = stats.kstest(samples, "expon", args=(0, 1.0 / rate))
        assert result.pvalue > 0.01

    def test_kth_arrival_gamma_for_constant_rate(self):
        rate = 1.5
        k = 4
        intensity = PiecewiseConstantIntensity(np.array([rate]), 60.0, extrapolation="hold")
        samples = sample_next_arrivals(intensity, k, 5000, 3)[:, k - 1]
        result = stats.kstest(samples, "gamma", args=(k, 0, 1.0 / rate))
        assert result.pvalue > 0.01

    @pytest.mark.parametrize(
        "n_arrivals,n_samples,first",
        [(0, 10, 0), (2, 0, 0), (2.5, 10, 0), (3, 1.5, 0), (True, 10, 0), (3, 10, 1.0)],
    )
    def test_invalid_arguments(self, n_arrivals, n_samples, first):
        intensity = PiecewiseConstantIntensity(np.array([1.0]), 60.0)
        with pytest.raises(ValidationError):
            sample_next_arrivals(intensity, n_arrivals, n_samples, 0, first=first)

    def test_first_returns_only_the_remaining_columns(self):
        intensity = PiecewiseConstantIntensity(np.array([1.0]), 60.0, extrapolation="hold")
        samples = sample_next_arrivals(intensity, 5, 30, 2, first=4)
        assert samples.shape == (30, 1)
        assert samples.flags.f_contiguous
        assert np.all(samples > 0)


class TestSampleHomogeneousArrivals:
    def test_zero_rate(self):
        assert sample_homogeneous_arrivals(0.0, 100.0, 0).size == 0

    def test_mean_count(self):
        counts = [sample_homogeneous_arrivals(0.5, 1000.0, seed).size for seed in range(100)]
        assert np.mean(counts) == pytest.approx(500.0, rel=0.05)

    def test_sorted(self):
        arrivals = sample_homogeneous_arrivals(1.0, 500.0, 4)
        assert np.all(np.diff(arrivals) >= 0)
