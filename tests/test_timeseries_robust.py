"""Tests for robust statistics and filtering."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ValidationError
from repro.timeseries.robust import (
    mad,
    median_filter,
    robust_zscore,
    winsorize,
)


class TestMad:
    def test_gaussian_consistency(self):
        rng = np.random.default_rng(0)
        x = rng.normal(scale=2.0, size=50_000)
        assert mad(x) == pytest.approx(2.0, rel=0.05)

    def test_unscaled(self):
        x = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        assert mad(x, scale_to_sigma=False) == pytest.approx(1.0)

    def test_resistant_to_outlier(self):
        x = np.concatenate([np.ones(99), [1e6]])
        assert mad(x) == pytest.approx(0.0)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            mad(np.array([]))


class TestRobustZscore:
    def test_constant_series_zero(self):
        np.testing.assert_allclose(robust_zscore(np.full(10, 3.0)), 0.0)

    def test_outlier_gets_large_score(self):
        x = np.concatenate([np.random.default_rng(1).normal(size=200), [50.0]])
        scores = robust_zscore(x)
        assert scores[-1] > 10.0


class TestWinsorize:
    def test_clips_outliers(self):
        x = np.concatenate([np.random.default_rng(2).normal(size=200), [100.0, -100.0]])
        clipped = winsorize(x, z_limit=5.0)
        assert clipped.max() < 100.0
        assert clipped.min() > -100.0

    def test_preserves_inliers(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=100)
        clipped = winsorize(x, z_limit=10.0)
        np.testing.assert_allclose(clipped, x)

    def test_constant_series_untouched(self):
        x = np.full(20, 4.0)
        np.testing.assert_allclose(winsorize(x), x)

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=2, max_size=100))
    @settings(max_examples=40, deadline=None)
    def test_output_within_original_range(self, values):
        x = np.asarray(values)
        clipped = winsorize(x)
        assert clipped.min() >= x.min() - 1e-9
        assert clipped.max() <= x.max() + 1e-9


class TestMedianFilter:
    def test_window_one_identity(self):
        x = np.array([3.0, 1.0, 2.0])
        np.testing.assert_allclose(median_filter(x, 1), x)

    def test_removes_isolated_spike(self):
        x = np.ones(11)
        x[5] = 100.0
        filtered = median_filter(x, 3)
        assert filtered[5] == 1.0

    def test_monotone_series_roughly_preserved(self):
        x = np.arange(20, dtype=float)
        filtered = median_filter(x, 5)
        np.testing.assert_allclose(filtered[2:-2], x[2:-2])
