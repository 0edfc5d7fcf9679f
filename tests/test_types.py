"""Tests for the core data types (traces, QPS series, actions, results)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import TraceError, ValidationError
from repro.types import (
    ArrivalTrace,
    QPSSeries,
    ScalingAction,
    SimulationResult,
)


def _lifecycle_result(creation, ready, start, processing) -> SimulationResult:
    """A result whose queries arrive when their instance is created."""
    creation = np.asarray(creation, dtype=float)
    return SimulationResult(
        "x",
        "t",
        arrival_times=creation,
        processing_times=np.asarray(processing, dtype=float),
        hits=np.zeros(creation.size, dtype=bool),
        waiting_times=np.asarray(start, dtype=float) - creation,
        creation_times=creation,
        ready_times=np.asarray(ready, dtype=float),
        start_times=np.asarray(start, dtype=float),
        pending_times=np.asarray(ready, dtype=float) - creation,
        proactive=np.zeros(creation.size, dtype=bool),
    )


class TestInstanceLifecycle:
    def test_lifecycle_and_idle(self):
        result = _lifecycle_result([10.0], [23.0], [30.0], [20.0])
        assert result.deletion_times[0] == pytest.approx(50.0)
        assert result.lifecycle_costs[0] == pytest.approx(40.0)
        assert result.idle_times[0] == pytest.approx(7.0)

    def test_idle_time_never_negative(self):
        # Start before ready cannot happen in a replay, but the floor holds.
        result = _lifecycle_result([0.0, 0.0], [13.0, 13.0], [13.0, 12.0], [7.0, 7.0])
        assert result.idle_times.tolist() == [0.0, 0.0]


class TestArrivalTrace:
    def test_basic_properties(self):
        trace = ArrivalTrace([1.0, 2.0, 4.0], 3.0, name="t", horizon=10.0)
        assert trace.n_queries == 3
        assert len(trace) == 3
        assert trace.duration == 10.0
        assert trace.mean_qps == pytest.approx(0.3)

    def test_scalar_processing_broadcast(self):
        trace = ArrivalTrace([1.0, 2.0], 5.0)
        np.testing.assert_allclose(trace.processing_times, [5.0, 5.0])

    def test_rejects_unsorted(self):
        with pytest.raises(TraceError):
            ArrivalTrace([2.0, 1.0], 1.0)

    def test_rejects_negative_arrival(self):
        with pytest.raises(TraceError):
            ArrivalTrace([-1.0, 1.0], 1.0)

    def test_rejects_processing_length_mismatch(self):
        with pytest.raises(TraceError):
            ArrivalTrace([1.0, 2.0], [1.0])

    def test_rejects_horizon_before_last_arrival(self):
        with pytest.raises(TraceError):
            ArrivalTrace([1.0, 5.0], 1.0, horizon=4.0)

    def test_views_are_read_only(self):
        trace = ArrivalTrace([1.0, 2.0], 1.0)
        with pytest.raises(ValueError):
            trace.arrival_times[0] = 5.0

    def test_slice_time_rebases(self):
        trace = ArrivalTrace([1.0, 5.0, 9.0], 1.0, horizon=10.0)
        sub = trace.slice_time(4.0, 10.0)
        np.testing.assert_allclose(sub.arrival_times, [1.0, 5.0])
        assert sub.horizon == pytest.approx(6.0)

    def test_split_partitions_all_queries(self):
        arrivals = np.linspace(0.5, 99.5, 50)
        trace = ArrivalTrace(arrivals, 1.0, horizon=100.0)
        train, test = trace.split(0.6)
        assert train.n_queries + test.n_queries == trace.n_queries
        assert train.horizon == pytest.approx(60.0)
        assert test.horizon == pytest.approx(40.0)
        # Test trace is rebased to its own origin.
        assert test.arrival_times[0] == pytest.approx(arrivals[train.n_queries] - 60.0)

    def test_split_rejects_bad_fraction(self):
        trace = ArrivalTrace([1.0], 1.0, horizon=2.0)
        with pytest.raises(ValidationError):
            trace.split(1.0)

    def test_to_qps_series_counts_every_query(self):
        trace = ArrivalTrace([0.5, 30.0, 59.9, 61.0], 1.0, horizon=120.0)
        series = trace.to_qps_series(60.0)
        assert series.counts.sum() == 4
        assert series.counts[0] == 3
        assert series.counts[1] == 1

    def test_with_processing_times(self):
        trace = ArrivalTrace([1.0, 2.0], 1.0, horizon=5.0)
        new = trace.with_processing_times(9.0)
        np.testing.assert_allclose(new.processing_times, [9.0, 9.0])
        assert new.horizon == trace.horizon

    @given(
        st.lists(st.floats(min_value=0.0, max_value=1000.0), min_size=1, max_size=50),
        st.floats(min_value=1.0, max_value=120.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_qps_aggregation_preserves_total_count(self, raw_arrivals, bin_seconds):
        arrivals = np.sort(np.asarray(raw_arrivals))
        trace = ArrivalTrace(arrivals, 1.0, horizon=1000.0)
        series = trace.to_qps_series(bin_seconds)
        assert series.counts.sum() == trace.n_queries


class TestQPSSeries:
    def test_basic_properties(self):
        series = QPSSeries([2, 0, 4], 60.0, name="s")
        assert series.n_bins == 3
        assert series.duration == 180.0
        np.testing.assert_allclose(series.qps, [2 / 60, 0, 4 / 60])
        np.testing.assert_allclose(series.times, [0.0, 60.0, 120.0])

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            QPSSeries([], 60.0)

    def test_rejects_negative_counts(self):
        with pytest.raises(ValidationError):
            QPSSeries([1, -1], 60.0)

    def test_aggregate_sums_counts(self):
        series = QPSSeries([1, 2, 3, 4, 5], 60.0)
        merged = series.aggregate(2)
        np.testing.assert_allclose(merged.counts, [3, 7])
        assert merged.bin_seconds == 120.0

    def test_aggregate_rejects_too_large_factor(self):
        series = QPSSeries([1, 2], 60.0)
        with pytest.raises(ValidationError):
            series.aggregate(3)


class TestScalingAction:
    def test_action_rejects_nan(self):
        with pytest.raises(ValidationError):
            ScalingAction(creation_time=float("nan"))


def _result(hits, waiting, processing: float, **kwargs) -> SimulationResult:
    arrivals = np.arange(len(hits), dtype=float)
    waiting = np.asarray(waiting, dtype=float)
    return SimulationResult(
        "x",
        "t",
        arrival_times=arrivals,
        processing_times=np.full(len(hits), processing),
        hits=hits,
        waiting_times=waiting,
        creation_times=np.zeros(len(hits)),
        ready_times=np.ones(len(hits)),
        start_times=arrivals + waiting,
        pending_times=np.ones(len(hits)),
        proactive=hits,
        **kwargs,
    )


class TestSimulationResult:
    def test_aggregates(self):
        result = _result([True, False], [0.0, 5.0], 10.0, unused_instance_cost=3.0)
        assert result.n_queries == 2
        assert result.hit_rate == pytest.approx(0.5)
        assert result.mean_response_time == pytest.approx(12.5)
        assert result.total_cost == pytest.approx(sum(result.lifecycle_costs) + 3.0)

    def test_empty_result(self):
        result = _result([], [], 1.0)
        assert np.isnan(result.hit_rate)
        assert np.isnan(result.mean_response_time)
        assert result.total_cost == 0.0

    def test_columns_are_coerced_to_float_and_bool(self):
        result = _result([1, 0], [0, 5], 10.0)
        assert result.hits.dtype == bool and result.proactive_flags.dtype == bool
        assert result.hits.tolist() == [True, False]
        assert result.waiting_times.dtype == np.float64

    def test_column_lengths_must_agree(self):
        with pytest.raises(ValidationError, match="column lengths disagree"):
            SimulationResult(
                "x",
                "t",
                arrival_times=[0.0, 1.0],
                processing_times=[1.0, 1.0],
                hits=[True],
                waiting_times=[0.0, 0.0],
                creation_times=[0.0, 0.0],
                ready_times=[0.0, 0.0],
                start_times=[0.0, 1.0],
                pending_times=[0.0, 0.0],
                proactive=[True, True],
            )

    def test_planning_times_default_to_an_empty_float_column(self):
        result = _result([True], [0.0], 1.0)
        assert result.planning_times.dtype == np.float64
        assert result.planning_times.shape == (0,)

    def test_planning_times_from_a_list_equal_those_from_an_array(self):
        from_list = _result([True, False], [0.0, 5.0], 1.0, planning_times=[0.5, 0.0, 0.25])
        from_array = _result(
            [True, False], [0.0, 5.0], 1.0, planning_times=np.array([0.5, 0.0, 0.25])
        )
        assert from_list.planning_times.dtype == np.float64
        assert from_list == from_array

    def test_equality_sees_a_changed_planning_time(self):
        times = np.array([0.5, 0.0, 0.25])
        base = _result([True, False], [0.0, 5.0], 1.0, planning_times=times)
        changed = times.copy()
        changed[1] = 1e-9
        assert base != _result([True, False], [0.0, 5.0], 1.0, planning_times=changed)
        assert base != _result([True, False], [0.0, 5.0], 1.0, planning_times=times[:2])
        assert base == _result([True, False], [0.0, 5.0], 1.0, planning_times=times.copy())
