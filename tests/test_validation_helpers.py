"""Tests for the shared input-validation helpers."""

from __future__ import annotations

import numpy as np
import pytest

from repro._validation import (
    as_1d_float_array,
    check_integer,
    check_non_negative,
    check_positive,
    check_probability,
    check_same_length,
    check_sorted,
)
from repro.exceptions import ValidationError


class TestAs1dFloatArray:
    def test_converts_list(self):
        out = as_1d_float_array([1, 2, 3])
        assert out.dtype == np.float64
        assert out.tolist() == [1.0, 2.0, 3.0]

    def test_copies_input_array(self):
        original = np.array([1.0, 2.0])
        out = as_1d_float_array(original)
        out[0] = 99.0
        assert original[0] == 1.0

    def test_rejects_2d(self):
        with pytest.raises(ValidationError):
            as_1d_float_array(np.zeros((2, 2)))

    def test_rejects_nan(self):
        with pytest.raises(ValidationError):
            as_1d_float_array([1.0, float("nan")])

    def test_rejects_inf(self):
        with pytest.raises(ValidationError):
            as_1d_float_array([1.0, float("inf")])

    def test_empty_ok(self):
        assert as_1d_float_array([]).size == 0


class TestScalarChecks:
    def test_check_positive_accepts(self):
        assert check_positive(0.5, "x") == 0.5

    @pytest.mark.parametrize("value", [0.0, -1.0, float("nan"), float("inf")])
    def test_check_positive_rejects(self, value):
        with pytest.raises(ValidationError):
            check_positive(value, "x")

    def test_check_non_negative_accepts_zero(self):
        assert check_non_negative(0.0, "x") == 0.0

    def test_check_non_negative_rejects_negative(self):
        with pytest.raises(ValidationError):
            check_non_negative(-0.1, "x")

    @pytest.mark.parametrize("value", [0.0, 0.5, 1.0])
    def test_check_probability_inclusive(self, value):
        assert check_probability(value, "p") == value

    @pytest.mark.parametrize("value", [-0.1, 1.1])
    def test_check_probability_rejects_out_of_range(self, value):
        with pytest.raises(ValidationError):
            check_probability(value, "p")

    def test_check_probability_exclusive(self):
        with pytest.raises(ValidationError):
            check_probability(0.0, "p", inclusive=False)

    def test_check_integer(self):
        assert check_integer(3, "n") == 3
        with pytest.raises(ValidationError):
            check_integer(3.5, "n")
        with pytest.raises(ValidationError):
            check_integer(True, "n")
        with pytest.raises(ValidationError):
            check_integer(0, "n", minimum=1)


class TestSequenceChecks:
    def test_check_sorted_accepts_ties(self):
        check_sorted(np.array([1.0, 1.0, 2.0]), "x")

    def test_check_sorted_strict_rejects_ties(self):
        with pytest.raises(ValidationError):
            check_sorted(np.array([1.0, 1.0]), "x", strict=True)

    def test_check_sorted_rejects_descending(self):
        with pytest.raises(ValidationError):
            check_sorted(np.array([2.0, 1.0]), "x")

    def test_check_same_length(self):
        check_same_length("a", [1, 2], "b", [3, 4])
        with pytest.raises(ValidationError):
            check_same_length("a", [1], "b", [1, 2])
