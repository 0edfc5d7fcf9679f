"""Tests for the sparse difference operators used by the NHPP objective."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ValidationError
from repro.timeseries.differencing import (
    second_difference_matrix,
    seasonal_difference_matrix,
)


class TestSecondDifference:
    def test_shape(self):
        assert second_difference_matrix(6).shape == (4, 6)

    def test_linear_in_null_space(self):
        d2 = second_difference_matrix(12)
        x = 3.0 * np.arange(12) + 5.0
        np.testing.assert_allclose(d2 @ x, 0.0, atol=1e-10)

    def test_quadratic_constant_curvature(self):
        d2 = second_difference_matrix(8)
        x = np.arange(8, dtype=float) ** 2
        np.testing.assert_allclose(d2 @ x, 2.0)

    def test_minimum_size(self):
        with pytest.raises(ValidationError):
            second_difference_matrix(2)

    @given(st.integers(min_value=3, max_value=50))
    @settings(max_examples=20, deadline=None)
    def test_matches_numpy_diff(self, n):
        rng = np.random.default_rng(n)
        x = rng.normal(size=n)
        np.testing.assert_allclose(second_difference_matrix(n) @ x, np.diff(x, n=2), atol=1e-10)


class TestSeasonalDifference:
    def test_shape(self):
        assert seasonal_difference_matrix(10, 3).shape == (7, 10)

    def test_periodic_signal_in_null_space(self):
        period = 4
        n = 16
        dl = seasonal_difference_matrix(n, period)
        pattern = np.array([1.0, 5.0, -2.0, 0.5])
        x = np.tile(pattern, n // period)
        np.testing.assert_allclose(dl @ x, 0.0, atol=1e-12)

    def test_values(self):
        dl = seasonal_difference_matrix(5, 2)
        x = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        np.testing.assert_allclose(dl @ x, x[:3] - x[2:])

    def test_period_must_be_smaller_than_length(self):
        with pytest.raises(ValidationError):
            seasonal_difference_matrix(5, 5)

    @given(st.integers(min_value=4, max_value=40), st.integers(min_value=1, max_value=10))
    @settings(max_examples=30, deadline=None)
    def test_matches_direct_definition(self, n, period):
        if period >= n:
            return
        rng = np.random.default_rng(n * 100 + period)
        x = rng.normal(size=n)
        dl = seasonal_difference_matrix(n, period)
        np.testing.assert_allclose(dl @ x, x[: n - period] - x[period:], atol=1e-12)
