"""Trace-I/O validation and real-trace registry import.

Two halves, matching the two halves of the hardened import path:

* the :mod:`repro.traces.io` loaders must reject every malformed file in
  the corpus below with :class:`~repro.exceptions.TraceFormatError` naming
  the offending row, and must round-trip every well-formed trace
  through save → load within the CSV format's 1e-6 precision;
* :func:`repro.workloads.register_trace_csv` must make a trace CSV a
  first-class registry citizen — buildable, picklable, store-cacheable,
  and invalidated (not silently replayed) when the underlying file changes.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.exceptions import TraceFormatError, WorkloadError
from repro.runtime import WorkloadCache, WorkloadSpec, prepare_workload
from repro.store import ArtifactStore
from repro.traces.io import load_trace_csv, save_trace_csv
from repro.types import ArrivalTrace
from repro.workloads import (
    CSVTraceGenerator,
    ScenarioRegistry,
    get_scenario,
    register_trace_csv,
    scenario_from_trace_csv,
)
from repro.workloads import registry as registry_module


def _write_trace_csv(tmp_path, body: str, name: str = "bad.csv"):
    path = tmp_path / name
    path.write_text(body)
    return path


class TestTraceCsvRoundTrip:
    @pytest.mark.parametrize("n_queries", [1, 17, 400])
    def test_random_trace_round_trips(self, tmp_path, n_queries):
        rng = np.random.default_rng(n_queries)
        arrivals = np.sort(rng.uniform(0.0, 3600.0, n_queries))
        processing = rng.exponential(5.0, n_queries)
        trace = ArrivalTrace(arrivals, processing, name="rt", horizon=4000.0)
        loaded = load_trace_csv(save_trace_csv(trace, tmp_path / "rt.csv"))
        # The writer formats with 6 decimal places, so round-trip is exact
        # to the written precision, not to float64.
        np.testing.assert_allclose(loaded.arrival_times, arrivals, atol=1e-6)
        np.testing.assert_allclose(loaded.processing_times, processing, atol=1e-6)
        assert loaded.horizon == pytest.approx(4000.0)
        assert loaded.name == "rt"

    def test_load_after_double_round_trip_is_stable(self, tmp_path):
        trace = ArrivalTrace([0.25, 1.5, 9.0], [1.0, 2.0, 3.0], horizon=10.0)
        once = load_trace_csv(save_trace_csv(trace, tmp_path / "a.csv"))
        twice = load_trace_csv(save_trace_csv(once, tmp_path / "b.csv"))
        np.testing.assert_array_equal(once.arrival_times, twice.arrival_times)
        np.testing.assert_array_equal(once.processing_times, twice.processing_times)


class TestTraceCsvCorpus:
    """Every malformed trace file is rejected, naming the offending row."""

    HEADER = "arrival_time,processing_time\n"

    @pytest.mark.parametrize(
        "body, fragment",
        [
            (HEADER + "1.0,1.0\n0.5,1.0\n", "unsorted arrival_time"),
            (HEADER + "-3.0,1.0\n", "invalid arrival_time"),
            (HEADER + "nan,1.0\n", "invalid arrival_time"),
            (HEADER + "inf,1.0\n", "invalid arrival_time"),
            (HEADER + "1.0,-2.0\n", "invalid processing_time"),
            (HEADER + "1.0,nan\n", "invalid processing_time"),
            (HEADER + "not-a-number,1.0\n", "malformed row"),
            ("# horizon,banana,x\n" + HEADER, "invalid horizon"),
            ("# horizon,inf,x\n" + HEADER, "invalid horizon"),
            ("# horizon,5.0,x\n" + HEADER + "9.0,1.0\n", "invalid horizon"),
            ("# horizon,nan,x\n" + HEADER, "invalid horizon"),
            (HEADER + "-inf,1.0\n", "invalid arrival_time"),
            (HEADER + "1.0,inf\n", "invalid processing_time"),
            (HEADER + "1.0,banana\n", "malformed row"),
        ],
    )
    def test_rejected_with_message(self, tmp_path, body, fragment):
        path = _write_trace_csv(tmp_path, body)
        with pytest.raises(TraceFormatError, match=fragment):
            load_trace_csv(path)

    def test_offending_row_is_named(self, tmp_path):
        path = _write_trace_csv(
            tmp_path, self.HEADER + "1.0,1.0\n2.0,1.0\n1.5,1.0\n"
        )
        with pytest.raises(TraceFormatError, match="row 3"):
            load_trace_csv(path)

    def test_tied_arrivals_are_accepted(self, tmp_path):
        path = _write_trace_csv(tmp_path, self.HEADER + "1.0,1.0\n1.0,2.0\n3.0,0.5\n")
        loaded = load_trace_csv(path)
        np.testing.assert_array_equal(loaded.arrival_times, [1.0, 1.0, 3.0])

    def test_missing_processing_column_reads_zero(self, tmp_path):
        path = _write_trace_csv(tmp_path, self.HEADER + "1.0\n2.5,4.0\n")
        loaded = load_trace_csv(path)
        np.testing.assert_array_equal(loaded.processing_times, [0.0, 4.0])

    def test_missing_file(self, tmp_path):
        with pytest.raises(TraceFormatError, match="not found"):
            load_trace_csv(tmp_path / "nope.csv")


@pytest.fixture
def trace_csv(tmp_path):
    rng = np.random.default_rng(11)
    arrivals = np.sort(rng.uniform(0.0, 1800.0, 120))
    trace = ArrivalTrace(
        arrivals, rng.exponential(4.0, 120), name="recorded", horizon=1800.0
    )
    return save_trace_csv(trace, tmp_path / "recorded.csv")


class TestCsvTraceScenario:
    def test_registered_scenario_builds_the_recording(self, trace_csv):
        registry = ScenarioRegistry()
        scenario = register_trace_csv(trace_csv, registry=registry)
        assert "recorded" in registry
        assert scenario.horizon_seconds == pytest.approx(1800.0)
        assert "trace-import" in scenario.tags
        built = registry.get("recorded").build_trace(seed=3)
        reference = load_trace_csv(trace_csv)
        np.testing.assert_array_equal(built.arrival_times, reference.arrival_times)

    def test_seed_is_ignored_for_recordings(self, trace_csv):
        scenario = scenario_from_trace_csv(trace_csv)
        a = scenario.build_trace(seed=1)
        b = scenario.build_trace(seed=999)
        np.testing.assert_array_equal(a.arrival_times, b.arrival_times)

    def test_scale_truncates_the_recording(self, trace_csv):
        scenario = scenario_from_trace_csv(trace_csv)
        full = scenario.build_trace(seed=0)
        half = scenario.build_trace(seed=0, scale=0.5)
        assert half.horizon == pytest.approx(full.horizon * 0.5)
        assert 0 < half.n_queries < full.n_queries
        assert half.arrival_times.max() <= half.horizon

    def test_scale_up_rejected(self, trace_csv):
        scenario = scenario_from_trace_csv(trace_csv)
        with pytest.raises(WorkloadError, match="cannot be scaled up"):
            scenario.build_trace(seed=0, scale=2.0)

    def test_generator_pickles(self, trace_csv):
        scenario = scenario_from_trace_csv(trace_csv)
        clone = pickle.loads(pickle.dumps(scenario))
        np.testing.assert_array_equal(
            clone.build_trace(seed=0).arrival_times,
            scenario.build_trace(seed=0).arrival_times,
        )

    def test_empty_file_rejected_at_registration(self, tmp_path):
        path = _write_trace_csv(
            tmp_path, "arrival_time,processing_time\n", name="empty.csv"
        )
        with pytest.raises(TraceFormatError, match="no queries"):
            scenario_from_trace_csv(path)

    def test_malformed_file_rejected_at_registration(self, tmp_path):
        path = _write_trace_csv(
            tmp_path, "arrival_time,processing_time\n2.0,1.0\n1.0,1.0\n"
        )
        with pytest.raises(TraceFormatError):
            scenario_from_trace_csv(path)

    def test_recording_with_empty_test_split_is_rejected(self, tmp_path):
        # Every arrival falls before the 75 % train/test cut.
        arrivals = np.linspace(10.0, 1000.0, 50)
        trace = ArrivalTrace(arrivals, np.full(50, 4.0), name="early", horizon=1800.0)
        scenario = scenario_from_trace_csv(save_trace_csv(trace, tmp_path / "early.csv"))
        with pytest.raises(WorkloadError, match="early-test"):
            prepare_workload(scenario.build_trace(seed=0), **scenario.simulator_defaults)

    def test_deleted_file_fails_on_next_build(self, trace_csv):
        scenario = scenario_from_trace_csv(trace_csv)
        trace_csv.unlink()
        with pytest.raises(TraceFormatError, match="not found"):
            scenario.build_trace(seed=0)


class TestStoreCachedTraces:
    def test_cache_token_tracks_file_content(self, trace_csv):
        generator = CSVTraceGenerator(str(trace_csv))
        before = generator.cache_token
        trace = load_trace_csv(trace_csv)
        save_trace_csv(
            ArrivalTrace(
                trace.arrival_times[:-1],
                trace.processing_times[:-1],
                name=trace.name,
                horizon=trace.horizon,
            ),
            trace_csv,
        )
        assert generator.cache_token != before

    def test_realization_is_prepared_once_and_reused(
        self, trace_csv, tmp_path, monkeypatch
    ):
        """An unchanged CSV scenario is served from the store by a fresh
        workload cache: one preparation, then a disk hit."""
        monkeypatch.setattr(registry_module, "DEFAULT_REGISTRY", ScenarioRegistry())
        register_trace_csv(trace_csv, bin_seconds=60.0)
        store = ArtifactStore(tmp_path / "store")
        spec = WorkloadSpec(scenario="recorded", scale=1.0, seed=7)
        first, hit = WorkloadCache(store).get_or_prepare(spec)
        assert not hit
        assert len(store.entries("workloads")) == 1

        warm = WorkloadCache(store)
        second, hit = warm.get_or_prepare(spec)
        assert hit and warm.stats().disk_hits == 1
        np.testing.assert_array_equal(
            first.test.arrival_times, second.test.arrival_times
        )

    def test_edited_file_misses_the_old_prepared_workload(
        self, tmp_path, monkeypatch
    ):
        """The workload cache keys a CSV scenario by the file's content:
        a fresh cache over the same store must prepare the edited file, not
        serve the preparation of the old one."""
        trace = get_scenario("google").build_trace(scale=0.125, seed=3)
        path = save_trace_csv(trace, tmp_path / "recorded-google.csv")
        monkeypatch.setattr(registry_module, "DEFAULT_REGISTRY", ScenarioRegistry())
        register_trace_csv(path, name="recorded-google", bin_seconds=60.0)
        store = ArtifactStore(tmp_path / "store")
        spec = WorkloadSpec(scenario="recorded-google")
        stale, _ = WorkloadCache(store).get_or_prepare(spec)

        save_trace_csv(
            ArrivalTrace(
                trace.arrival_times[::2],
                trace.processing_times[::2],
                name=trace.name,
                horizon=trace.horizon,
            ),
            path,
        )
        served, hit = WorkloadCache(store).get_or_prepare(spec)
        fresh = spec.prepare()
        assert not hit
        assert served.test.n_queries == fresh.test.n_queries < stale.test.n_queries
