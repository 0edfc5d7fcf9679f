"""Tests for the evaluation metrics."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ValidationError
from repro.metrics.cost import relative_cost
from repro.metrics.errors import mean_absolute_error, mean_squared_error
from repro.metrics.qos import (
    TABLE2_LEVELS,
    quantiles_of,
    response_time_quantiles,
)
from repro.metrics.report import format_table, summarize_result
from repro.metrics.variance import windowed_mean_variance
from repro.types import SimulationResult


def _result(hits, response_times, processing: float = 1.0) -> SimulationResult:
    """Queries at 0, 1, ... served by instances created at their arrival."""
    arrivals = np.arange(len(hits), dtype=float)
    response = np.asarray(response_times, dtype=float)
    return SimulationResult(
        "test",
        "trace",
        arrival_times=arrivals,
        processing_times=np.full(len(hits), processing),
        hits=np.asarray(hits, dtype=bool),
        creation_times=arrivals,
        start_times=arrivals + (response - processing),
        pending_times=np.ones(len(hits)),
        proactive=np.asarray(hits, dtype=bool),
    )


class TestQoSMetrics:
    def test_hit_rate(self):
        result = _result([1, 0, 1, 1], [1, 2, 1, 1])
        assert result.hit_rate == pytest.approx(0.75)

    def test_mean_response_time(self):
        result = _result([1, 1], [2.0, 4.0])
        assert result.mean_response_time == pytest.approx(3.0)

    def test_quantiles(self):
        rts = list(np.arange(1.0, 101.0))
        result = _result([1] * 100, rts)
        quantiles = response_time_quantiles(result, levels=(0.5, 0.99))
        assert quantiles[0.5] == pytest.approx(50.5)
        assert quantiles[0.99] > 99.0

    def test_quantiles_invalid_level(self):
        result = _result([1], [1.0])
        with pytest.raises(ValidationError):
            response_time_quantiles(result, levels=(1.5,))


#: Response-time-like columns: wide floats, heavy ties, and the odd NaN.
_COLUMNS = st.lists(
    st.one_of(
        st.floats(-1e9, 1e9),
        st.integers(0, 100_000).map(lambda ms: ms / 1000.0),
        st.sampled_from([0.0, 2.5, 13.0]),
        st.just(float("nan")),
    ),
    min_size=1,
    max_size=60,
).map(np.array)

_LEVELS = st.lists(
    st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)),
    min_size=1,
    max_size=6,
    unique=True,
).map(np.array)


class TestQuantilesOf:
    """``quantiles_of`` writes out ``np.quantile``'s linear method."""

    @given(_COLUMNS, _LEVELS)
    @settings(max_examples=300, deadline=None)
    def test_bit_identical_to_numpy(self, times, levels):
        got = np.array(list(quantiles_of(times, levels).values()))
        want = np.quantile(times, levels)
        np.testing.assert_array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize("n", [1, 2, 3, 10, 1001])
    def test_table2_levels_on_ties(self, n):
        times = np.resize(np.array([13.0, 13.0, 14.5, 13.0, 20.0]), n)
        got = np.array(list(quantiles_of(times, np.array(TABLE2_LEVELS)).values()))
        np.testing.assert_array_equal(got, np.quantile(times, TABLE2_LEVELS))

    def test_upper_half_interpolates_down_from_the_ceiling(self):
        """At gamma >= 0.5 numpy computes ``b - (b - a) * (1 - gamma)``,
        which here differs from ``a + (b - a) * gamma`` in the last bit."""
        times = np.array([9.781, 6.807, 22.331])
        assert quantiles_of(times, np.array([0.9]))[0.9] == 19.821 == np.quantile(times, 0.9)

    def test_nan_column_reads_nan_at_every_level(self):
        times = np.array([1.0, np.nan, 3.0, 4.0])
        values = quantiles_of(times, np.array([0.0, 0.5, 1.0]))
        assert all(np.isnan(value) for value in values.values())

    def test_empty_column_reads_nan(self):
        values = quantiles_of(np.empty(0), np.array([0.5]))
        assert np.isnan(values[0.5])

    def test_input_column_is_left_unsorted(self):
        times = np.array([3.0, 1.0, 2.0])
        quantiles_of(times, np.array([0.5]))
        np.testing.assert_array_equal(times, [3.0, 1.0, 2.0])


class TestCostMetrics:
    def test_total_cost_includes_unused(self):
        result = _result([1, 1], [2.0, 2.0])
        result.unused_instance_cost = 5.0
        assert result.total_cost == pytest.approx(sum(result.lifecycle_costs) + 5.0)

    def test_relative_cost(self):
        result = _result([1], [2.0])
        assert relative_cost(result, result.total_cost) == pytest.approx(1.0)

    def test_relative_cost_invalid_reference(self):
        result = _result([1], [2.0])
        with pytest.raises(ValidationError):
            relative_cost(result, 0.0)


class TestWindowedVariance:
    def test_constant_series_zero_variance(self):
        mean, variance = windowed_mean_variance(np.full(200, 3.0), 50)
        assert mean == pytest.approx(3.0)
        assert variance == pytest.approx(0.0)

    def test_alternating_blocks_have_variance(self):
        values = np.concatenate([np.zeros(50), np.ones(50), np.zeros(50), np.ones(50)])
        mean, variance = windowed_mean_variance(values, 50)
        assert mean == pytest.approx(0.5)
        assert variance == pytest.approx(0.25)

    def test_single_block_zero_variance(self):
        _, variance = windowed_mean_variance(np.arange(30, dtype=float), 50)
        assert variance == 0.0

    def test_empty_series(self):
        mean, variance = windowed_mean_variance(np.array([]), 50)
        assert np.isnan(mean)

    @given(st.lists(st.floats(min_value=0, max_value=1), min_size=100, max_size=300))
    @settings(max_examples=30, deadline=None)
    def test_block_variance_at_most_total_variance_scale(self, values):
        values = np.asarray(values)
        _, block_variance = windowed_mean_variance(values, 10)
        # Averaging within blocks can only reduce variance.
        assert block_variance <= values.var() + 1e-9


class TestErrors:
    def test_mse_mae(self):
        estimate = np.array([1.0, 2.0, 3.0])
        truth = np.array([1.0, 1.0, 5.0])
        assert mean_squared_error(estimate, truth) == pytest.approx(5.0 / 3.0)
        assert mean_absolute_error(estimate, truth) == pytest.approx(1.0)

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            mean_squared_error(np.array([1.0]), np.array([1.0, 2.0]))


class TestReport:
    def test_summarize_result_keys(self):
        result = _result([1, 0] * 60, [2.0, 3.0] * 60)
        summary = summarize_result(result, reference_cost=100.0)
        for key in ("hit_rate", "rt_avg", "total_cost", "relative_cost", "rt_p95"):
            assert key in summary
        assert summary["n_queries"] == 120.0
        assert summary["hit_rate"] == result.hit_rate == pytest.approx(0.5)
        assert summary["rt_avg"] == result.mean_response_time == pytest.approx(2.5)
        assert summary["total_cost"] == result.total_cost
        assert summary["relative_cost"] == result.total_cost / 100.0

    def test_format_table_alignment(self):
        rows = [{"a": 1.0, "b": "x"}, {"a": 22.5, "b": "yy"}]
        text = format_table(rows, title="demo")
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert "a" in lines[1] and "b" in lines[1]
        assert len(lines) == 5
        assert lines[2].split("  ") == ["-" * len("22.5"), "-" * len("yy")]
        b_column = lines[1].index("b")
        for line in lines[3:]:
            assert line[b_column - 2 : b_column] == "  "
            assert line[b_column] != " "

    def test_format_table_missing_cells(self):
        rows = [{"a": 1.0}, {"b": 2.0}]
        text = format_table(rows, columns=["a", "b"])
        assert text

    def test_format_table_empty(self):
        assert format_table([], title="nothing") == "nothing"

    @pytest.mark.parametrize("reference_cost", [None, 0.0, -4.0])
    def test_relative_cost_needs_a_positive_reference(self, reference_cost):
        result = _result([1, 0] * 10, [2.0, 3.0] * 10)
        summary = summarize_result(result, reference_cost=reference_cost)
        assert "relative_cost" not in summary

    def test_summary_holds_no_wall_clock(self):
        # Planner latency is measured time; a summary row must be a pure
        # function of the replay's outcome.
        result = _result([1, 1] * 10, [2.0, 2.0] * 10)
        plain = summarize_result(result)
        result.planning_times = np.array([0.5, 0.25, 1.5])
        assert summarize_result(result) == plain

    def test_quantile_keys_are_labelled_in_percent(self):
        result = _result([1] * 100, list(np.arange(1.0, 101.0)))
        summary = summarize_result(result)
        quantiles = response_time_quantiles(result)
        assert quantiles
        for level, value in quantiles.items():
            assert summary[f"rt_p{level * 100:g}"] == value

    def test_variance_window_is_honoured(self):
        # Alternating 10-query blocks of hits and misses: 10-query windows
        # see the full swing, 20-query windows average it away.
        hits = ([1] * 10 + [0] * 10) * 6
        result = _result(hits, [2.0] * len(hits))
        narrow = summarize_result(result, variance_window=10)
        wide = summarize_result(result, variance_window=20)
        assert narrow["hit_rate_window_variance"] == pytest.approx(0.25)
        assert wide["hit_rate_window_variance"] == pytest.approx(0.0)


def _same(a: float, b: float) -> bool:
    """Bit-for-bit float equality, with NaN equal to NaN."""
    return np.array_equal(np.float64(a), np.float64(b), equal_nan=True)


def _random_result(n: int, seed: int) -> SimulationResult:
    rng = np.random.default_rng(seed)
    arrivals = np.sort(rng.uniform(0.0, 100.0, n))
    hits = rng.random(n) < 0.6
    processing = rng.exponential(3.0, n)
    waiting = np.where(hits, 0.0, rng.exponential(2.0, n))
    creation = arrivals - rng.uniform(0.0, 20.0, n)
    return SimulationResult(
        "random",
        "trace",
        arrival_times=arrivals,
        processing_times=processing,
        hits=hits,
        creation_times=creation,
        start_times=arrivals + waiting,
        pending_times=np.full(n, 5.0),
        proactive=hits,
        unused_instance_cost=float(rng.uniform(0.0, 50.0)),
        planning_times=rng.uniform(0.0, 0.01, rng.integers(0, 4)),
    )


class TestSummaryMatchesPublicHelpers:
    """``summarize_result`` reads each column once; its values must equal
    what the public helpers compute from the result, bit for bit."""

    @staticmethod
    def _check(result: SimulationResult, window: int = 50) -> None:
        summary = summarize_result(result, reference_cost=17.5, variance_window=window)
        expected = {
            "n_queries": float(result.n_queries),
            "hit_rate": result.hit_rate,
            "rt_avg": result.mean_response_time,
            "total_cost": result.total_cost,
            "relative_cost": result.total_cost / 17.5,
            "hit_rate_window_variance": windowed_mean_variance(
                result.hits.astype(float), window
            )[1],
            "rt_window_variance": windowed_mean_variance(result.response_times, window)[1],
        }
        for level, value in response_time_quantiles(result).items():
            expected[f"rt_p{level * 100:g}"] = value
        assert summary.keys() == expected.keys()
        for key, value in expected.items():
            assert _same(summary[key], value), key

    @given(st.integers(0, 400), st.integers(0, 2**32 - 1), st.integers(1, 60))
    @settings(max_examples=60, deadline=None)
    def test_random_results(self, n, seed, window):
        self._check(_random_result(n, seed), window)

    def test_empty_result_reads_nan(self):
        result = _random_result(0, 1)
        self._check(result)
        summary = summarize_result(result)
        for key in ("hit_rate", "rt_avg", "hit_rate_window_variance", "rt_p99"):
            assert np.isnan(summary[key])

    def test_fewer_than_two_blocks_reads_zero_variance(self):
        result = _random_result(99, 2)
        self._check(result)
        summary = summarize_result(result)
        assert summary["hit_rate_window_variance"] == 0.0
        assert summary["rt_window_variance"] == 0.0

    def test_bad_window_is_rejected(self):
        with pytest.raises(ValidationError, match="variance_window"):
            summarize_result(_random_result(10, 3), variance_window=0)
