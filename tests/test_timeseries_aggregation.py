"""Tests for time aggregation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ValidationError
from repro.timeseries.aggregation import aggregate_counts


class TestAggregateCounts:
    def test_sum(self):
        out = aggregate_counts(np.array([1, 2, 3, 4, 5, 6]), 2)
        np.testing.assert_allclose(out, [3, 7, 11])

    def test_mean(self):
        out = aggregate_counts(np.array([1, 3, 5, 7]), 2, how="mean")
        np.testing.assert_allclose(out, [2, 6])

    def test_drops_incomplete_tail(self):
        out = aggregate_counts(np.array([1, 1, 1, 1, 9]), 2)
        np.testing.assert_allclose(out, [2, 2])

    def test_factor_one_is_identity(self):
        values = np.array([1.0, 2.0, 3.0])
        np.testing.assert_allclose(aggregate_counts(values, 1), values)

    def test_invalid_how_rejected(self):
        with pytest.raises(ValidationError):
            aggregate_counts(np.array([1, 2]), 1, how="median")

    def test_too_short_rejected(self):
        with pytest.raises(ValidationError):
            aggregate_counts(np.array([1]), 2)

    @given(
        st.lists(st.floats(min_value=0, max_value=100), min_size=4, max_size=60),
        st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=40, deadline=None)
    def test_sum_conserved_over_full_groups(self, values, factor):
        values = np.asarray(values)
        n_full = (values.size // factor) * factor
        if n_full == 0:
            return
        out = aggregate_counts(values, factor)
        assert out.sum() == pytest.approx(values[:n_full].sum())
