"""Tests for the piecewise-constant intensity object."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ValidationError
from repro.nhpp.intensity import PiecewiseConstantIntensity


class TestConstruction:
    def test_basic(self):
        intensity = PiecewiseConstantIntensity(np.array([1.0, 2.0]), 10.0)
        assert intensity.n_bins == 2
        assert intensity.duration == 20.0
        assert intensity.total_mass == pytest.approx(30.0)

    def test_rejects_negative_values(self):
        with pytest.raises(ValidationError):
            PiecewiseConstantIntensity(np.array([-1.0]), 10.0)

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            PiecewiseConstantIntensity(np.array([]), 10.0)

    @pytest.mark.parametrize("extrapolation", ["linear", "zero"])
    def test_rejects_unknown_extrapolation(self, extrapolation):
        with pytest.raises(ValidationError, match="'hold' or 'periodic'"):
            PiecewiseConstantIntensity(np.array([1.0]), 10.0, extrapolation=extrapolation)


class TestValue:
    def test_inside_window(self):
        intensity = PiecewiseConstantIntensity(np.array([1.0, 3.0]), 10.0)
        assert intensity.value(5.0) == 1.0
        assert intensity.value(15.0) == 3.0

    def test_negative_time_is_zero(self):
        intensity = PiecewiseConstantIntensity(np.array([1.0]), 10.0)
        assert intensity.value(-1.0) == 0.0

    def test_hold_extrapolation(self):
        intensity = PiecewiseConstantIntensity(np.array([1.0, 3.0]), 10.0, extrapolation="hold")
        assert intensity.value(100.0) == 3.0

    def test_periodic_extrapolation(self):
        intensity = PiecewiseConstantIntensity(
            np.array([1.0, 3.0]), 10.0, extrapolation="periodic"
        )
        assert intensity.value(25.0) == 1.0
        assert intensity.value(35.0) == 3.0

    def test_vectorized(self):
        intensity = PiecewiseConstantIntensity(np.array([1.0, 3.0]), 10.0)
        np.testing.assert_allclose(intensity.value(np.array([5.0, 15.0])), [1.0, 3.0])


class TestCumulative:
    def test_within_window(self):
        intensity = PiecewiseConstantIntensity(np.array([1.0, 3.0]), 10.0)
        assert intensity.cumulative(10.0) == pytest.approx(10.0)
        assert intensity.cumulative(15.0) == pytest.approx(25.0)

    def test_monotone(self):
        intensity = PiecewiseConstantIntensity(np.array([0.5, 0.0, 2.0]), 5.0)
        times = np.linspace(0.0, 30.0, 100)
        values = np.asarray(intensity.cumulative(times))
        assert np.all(np.diff(values) >= -1e-12)

    def test_hold_extrapolation(self):
        intensity = PiecewiseConstantIntensity(np.array([1.0]), 10.0, extrapolation="hold")
        assert intensity.cumulative(20.0) == pytest.approx(20.0)

    def test_periodic_extrapolation(self):
        intensity = PiecewiseConstantIntensity(
            np.array([1.0, 3.0]), 10.0, extrapolation="periodic"
        )
        assert intensity.cumulative(40.0) == pytest.approx(80.0)
        assert intensity.cumulative(45.0) == pytest.approx(85.0)


class TestInverseCumulative:
    def test_round_trip_within_window(self):
        intensity = PiecewiseConstantIntensity(np.array([1.0, 0.5, 2.0]), 10.0)
        for mass in [0.0, 3.0, 12.0, 30.0]:
            t = intensity.inverse_cumulative(mass)
            assert intensity.cumulative(t) == pytest.approx(mass, abs=1e-9)

    def test_round_trip_with_zero_bins(self):
        intensity = PiecewiseConstantIntensity(np.array([1.0, 0.0, 2.0]), 10.0)
        for mass in [5.0, 10.0, 15.0]:
            t = intensity.inverse_cumulative(mass)
            assert intensity.cumulative(t) == pytest.approx(mass, abs=1e-9)

    def test_beyond_window_hold(self):
        intensity = PiecewiseConstantIntensity(np.array([1.0]), 10.0, extrapolation="hold")
        assert intensity.inverse_cumulative(25.0) == pytest.approx(25.0)

    def test_beyond_window_periodic(self):
        intensity = PiecewiseConstantIntensity(
            np.array([1.0, 3.0]), 10.0, extrapolation="periodic"
        )
        mass = 100.0
        t = intensity.inverse_cumulative(mass)
        assert intensity.cumulative(t) == pytest.approx(mass, rel=1e-9)

    def test_negative_mass_rejected(self):
        intensity = PiecewiseConstantIntensity(np.array([1.0]), 10.0)
        with pytest.raises(ValidationError):
            intensity.inverse_cumulative(-0.1)

    def test_tiny_held_rate_stays_finite_and_monotone(self):
        """Regression: a denormal-scale tail rate used to overflow the hold
        extrapolation to inf, making consecutive samples' diffs NaN."""
        tiny = 2.2250738585072014e-308
        intensity = PiecewiseConstantIntensity(
            np.array([tiny]), 60.0, extrapolation="hold"
        )
        masses = np.array([1.0, 2.0, 3.0, 1e30])
        times = intensity.inverse_cumulative(masses)
        assert np.all(np.isfinite(times))
        assert np.all(np.diff(times) >= 0.0)

    def test_tiny_periodic_mass_stays_finite_and_monotone(self):
        tiny = 2.2250738585072014e-308
        intensity = PiecewiseConstantIntensity(
            np.array([tiny]), 60.0, extrapolation="periodic"
        )
        masses = np.array([1.0, 2.0, 1e30])
        times = intensity.inverse_cumulative(masses)
        assert np.all(np.isfinite(times))
        assert np.all(np.diff(times) >= 0.0)

    @given(st.floats(min_value=0.0, max_value=500.0))
    @settings(max_examples=60, deadline=None)
    def test_inverse_is_generalized_inverse(self, mass):
        intensity = PiecewiseConstantIntensity(
            np.array([0.3, 0.0, 1.5, 0.7]), 8.0, extrapolation="hold"
        )
        t = intensity.inverse_cumulative(mass)
        assert intensity.cumulative(t) >= mass - 1e-8


class TestUpperBoundAndShift:
    def test_upper_bound_whole_profile(self):
        intensity = PiecewiseConstantIntensity(np.array([1.0, 5.0, 2.0]), 10.0)
        assert intensity.upper_bound() == 5.0

    @pytest.mark.parametrize("extrapolation", ["hold", "periodic"])
    def test_upper_bound_covers_the_extrapolated_tail(self, extrapolation):
        intensity = PiecewiseConstantIntensity(
            np.array([1.0, 5.0, 2.0]), 10.0, extrapolation=extrapolation
        )
        times = np.linspace(0.0, 10 * intensity.duration, 301)
        values = intensity.value(times)
        assert values.max() == intensity.upper_bound() == 5.0
        assert intensity.value(1e6) <= intensity.upper_bound()

    def test_shift_preserves_values(self):
        intensity = PiecewiseConstantIntensity(
            np.array([1.0, 2.0, 3.0, 4.0]), 10.0, extrapolation="periodic"
        )
        shifted = intensity.shift(20.0)
        assert shifted.value(0.0) == pytest.approx(intensity.value(20.0))
        assert shifted.value(10.0) == pytest.approx(intensity.value(30.0))

    def test_shift_beyond_hold_window(self):
        intensity = PiecewiseConstantIntensity(np.array([1.0, 2.0]), 10.0, extrapolation="hold")
        shifted = intensity.shift(100.0)
        assert shifted.value(0.0) == pytest.approx(2.0)

    def test_shift_zero_is_identity(self):
        intensity = PiecewiseConstantIntensity(np.array([1.0, 2.0]), 10.0)
        shifted = intensity.shift(0.0)
        np.testing.assert_allclose(shifted.values, intensity.values)
