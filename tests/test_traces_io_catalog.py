"""Tests for trace CSV IO and the registry aliases of the paper traces."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import TraceFormatError, WorkloadError
from repro.traces.io import load_qps_csv, load_trace_csv, save_qps_csv, save_trace_csv
from repro.types import ArrivalTrace, QPSSeries
from repro.workloads import get_scenario, list_scenarios


class TestTraceCsv:
    def test_round_trip(self, tmp_path):
        trace = ArrivalTrace([1.5, 2.25, 10.0], [3.0, 4.0, 5.0], name="demo", horizon=20.0)
        path = save_trace_csv(trace, tmp_path / "demo.csv")
        loaded = load_trace_csv(path)
        np.testing.assert_allclose(loaded.arrival_times, trace.arrival_times)
        np.testing.assert_allclose(loaded.processing_times, trace.processing_times)
        assert loaded.horizon == pytest.approx(20.0)
        assert loaded.name == "demo"

    def test_round_trip_empty_trace(self, tmp_path):
        trace = ArrivalTrace([], [], name="empty", horizon=0.0)
        loaded = load_trace_csv(save_trace_csv(trace, tmp_path / "empty.csv"))
        assert loaded.n_queries == 0

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(TraceFormatError):
            load_trace_csv(tmp_path / "does-not-exist.csv")

    def test_malformed_row_raises(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("arrival_time,processing_time\nnot-a-number,1.0\n")
        with pytest.raises(TraceFormatError):
            load_trace_csv(path)

    def test_name_override(self, tmp_path):
        trace = ArrivalTrace([1.0], [2.0], name="original", horizon=5.0)
        path = save_trace_csv(trace, tmp_path / "x.csv")
        loaded = load_trace_csv(path, name="override")
        assert loaded.name == "override"


class TestQpsCsv:
    def test_round_trip(self, tmp_path):
        series = QPSSeries([1, 0, 5, 2], 300.0, name="qps-demo")
        loaded = load_qps_csv(save_qps_csv(series, tmp_path / "qps.csv"))
        np.testing.assert_allclose(loaded.counts, series.counts)
        assert loaded.bin_seconds == 300.0

    def test_missing_bin_seconds_raises(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("bin_start,count\n0.0,1\n")
        with pytest.raises(TraceFormatError):
            load_qps_csv(path)


class TestPaperTraceAliases:
    def test_lists_three_traces(self):
        names = [scenario.name for scenario in list_scenarios() if "paper" in scenario.tags]
        assert names == ["alibaba", "crs", "google"]

    def test_get_scenario_case_insensitive(self):
        assert get_scenario("CRS").name == "crs"

    def test_unknown_trace_raises(self):
        with pytest.raises(WorkloadError):
            get_scenario("azure")

    def test_spec_metadata(self):
        scenario = get_scenario("google")
        assert 0.0 < scenario.train_fraction < 1.0
        assert scenario.pending_time > 0
        assert scenario.description

    def test_default_seeds(self):
        seeds = {name: get_scenario(name).default_seed for name in ("alibaba", "crs", "google")}
        assert seeds == {"alibaba": 13, "crs": 7, "google": 11}

    def test_build_seed_deterministic(self):
        scenario = get_scenario("google")
        first = scenario.build_trace(scale=0.5, seed=3)
        second = scenario.build_trace(scale=0.5, seed=3)
        np.testing.assert_array_equal(first.arrival_times, second.arrival_times)
        np.testing.assert_array_equal(first.processing_times, second.processing_times)

    def test_build_different_seeds_differ(self):
        scenario = get_scenario("google")
        a = scenario.build_trace(scale=0.5, seed=3)
        b = scenario.build_trace(scale=0.5, seed=4)
        assert a.n_queries != b.n_queries or not np.array_equal(
            a.arrival_times, b.arrival_times
        )

    def test_build_default_seed_matches_explicit(self):
        scenario = get_scenario("alibaba")
        default = scenario.build_trace()
        explicit = scenario.build_trace(seed=scenario.default_seed)
        np.testing.assert_array_equal(default.arrival_times, explicit.arrival_times)

    def test_build_split_accepts_seed(self):
        scenario = get_scenario("google")
        train, test = scenario.build_split(scale=0.5, seed=3)
        full = scenario.build_trace(scale=0.5, seed=3)
        assert train.n_queries + test.n_queries == full.n_queries
