"""Integration guards for the telemetry layer.

Three properties must hold end to end:

* **parity** — enabling telemetry changes nothing about the simulated
  rows, on either engine (the recorders observe, never perturb);
* **zero overhead when off** — the no-op recorder path performs no
  recorder calls in the batched engine's hot loop, so its cost cannot
  grow with trace size;
* **completeness** — a telemetry-enabled Session run produces one
  snapshot artifact carrying engine, runtime, cache and store metrics
  plus spans, retrievable via the ``repro telemetry`` CLI.
"""

from __future__ import annotations

import csv
import io
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

from repro.api import Session
from repro.cli import main
from repro.config import SimulationConfig
from repro.nhpp.sampling import sample_homogeneous_arrivals
from repro.scaling.backup_pool import BackupPoolScaler, ReactiveScaler
from repro.simulation import create_simulator
from repro.store import resolve_store
from repro.telemetry import NullRecorder, Recorder, load_snapshot, use
from repro.types import ArrivalTrace

#: SimulationResult columns compared bit-for-bit in the parity guard.
_COLUMNS = (
    "hits",
    "waiting_times",
    "response_times",
    "creation_times",
    "ready_times",
    "start_times",
    "deletion_times",
    "pending_times",
    "proactive_flags",
    "lifecycle_costs",
)


def _trace(n_seconds: float = 1200.0, seed: int = 5) -> ArrivalTrace:
    arrivals = sample_homogeneous_arrivals(0.4, n_seconds, seed)
    return ArrivalTrace(arrivals, 12.0, name="telemetry-guard", horizon=n_seconds)


def _replay(engine: str, trace: ArrivalTrace, scaler_factory):
    simulator = create_simulator(SimulationConfig(pending_time=9.0, engine=engine))
    return simulator.replay(trace, scaler_factory())


class TestParityGuard:
    @pytest.mark.parametrize("engine", ["reference", "batched"])
    @pytest.mark.parametrize(
        "scaler_factory", [ReactiveScaler, lambda: BackupPoolScaler(2)]
    )
    def test_rows_identical_with_telemetry_on_and_off(self, engine, scaler_factory):
        trace = _trace()
        off = _replay(engine, trace, scaler_factory)
        with use(Recorder()):
            on = _replay(engine, trace, scaler_factory)
        for column in _COLUMNS:
            np.testing.assert_array_equal(
                getattr(off, column),
                getattr(on, column),
                err_msg=f"telemetry perturbed column {column!r} on {engine}",
            )
        assert off.unused_instance_cost == on.unused_instance_cost
        assert off.total_cost == on.total_cost


class TestFitTelemetry:
    """The fit reports its convergence, and reporting it perturbs nothing."""

    @staticmethod
    def _fit_and_plan():
        from repro.config import PlannerConfig
        from repro.runtime.workload import prepare_workload
        from repro.scaling.robustscaler import RobustScaler
        from repro.workloads import get_scenario

        scenario = get_scenario("google")
        trace = scenario.build_trace(scale=0.1, seed=7)
        prepared = prepare_workload(trace, **scenario.simulator_defaults)
        scaler = RobustScaler(
            prepared.forecast,
            prepared.pending_model,
            planner=PlannerConfig(planning_interval=10.0, monte_carlo_samples=50),
            random_state=7,
        )
        return prepared.model.fit_result, prepared.replay(scaler)

    def test_rows_identical_with_telemetry_on_and_off(self):
        fit_off, off = self._fit_and_plan()
        recorder = Recorder()
        with use(recorder):
            fit_on, on = self._fit_and_plan()
        assert fit_off.log_intensity.tobytes() == fit_on.log_intensity.tobytes()
        for column in _COLUMNS:
            np.testing.assert_array_equal(getattr(off, column), getattr(on, column))
        assert off.total_cost == on.total_cost

        state = recorder.snapshot()
        # The google probe fit stops at its iteration cap without converging.
        assert state["counters"]["fit.unconverged"] == int(not fit_on.admm.converged) == 1
        iterations = state["histograms"]["fit.admm_iterations"]
        assert iterations["count"] == 1
        assert iterations["max"] == fit_on.admm.n_iterations
        # The PCG solver's work: factorizations and CG steps, once per fit.
        assert state["counters"]["fit.admm_factorizations"] == fit_on.admm.n_factorizations
        assert 0 < fit_on.admm.n_factorizations < fit_on.admm.n_iterations
        cg_steps = state["histograms"]["fit.cg_steps"]
        assert cg_steps["count"] == 1
        assert cg_steps["max"] == fit_on.admm.cg_steps > 0

    def test_converged_fit_counts_zero(self):
        from repro.nhpp.model import NHPPModel
        from repro.types import QPSSeries

        series = QPSSeries(np.full(40, 120.0), 60.0)
        recorder = Recorder()
        with use(recorder):
            model = NHPPModel().fit(series, period_bins=0)
        assert model.fit_result.admm.converged
        state = recorder.snapshot()
        assert state["counters"]["fit.unconverged"] == 0
        assert state["histograms"]["fit.admm_iterations"]["count"] == 1
        admm = model.fit_result.admm
        assert state["counters"]["fit.admm_factorizations"] == admm.n_factorizations
        assert state["histograms"]["fit.cg_steps"]["count"] == 1


class TestTraceGenerateSpan:
    """Trace synthesis is attributed to one ``trace.generate`` span per build."""

    @pytest.mark.parametrize("name", ["crs", "flash-crowd"])
    def test_one_build_emits_one_span(self, name):
        from repro.workloads import get_scenario

        recorder = Recorder()
        with use(recorder):
            trace = get_scenario(name).build_trace(scale=0.02, seed=3)
        assert [span["name"] for span in recorder.spans] == ["trace.generate"]
        assert recorder.spans[0]["duration_seconds"] > 0
        untraced = get_scenario(name).build_trace(scale=0.02, seed=3)
        assert trace.arrival_times.tobytes() == untraced.arrival_times.tobytes()


class _CountingNull(NullRecorder):
    """A disabled recorder that counts every method call it receives."""

    def __init__(self) -> None:
        self.calls = 0

    def counter(self, name):
        self.calls += 1
        return super().counter(name)

    def gauge(self, name):
        self.calls += 1
        return super().gauge(name)

    def histogram(self, name, buckets=None):
        self.calls += 1
        return super().histogram(name, buckets)

    def inc(self, name, amount=1):
        self.calls += 1

    def set_gauge(self, name, value):
        self.calls += 1

    def observe(self, name, value):
        self.calls += 1

    def span(self, name):
        self.calls += 1
        return super().span(name)


class TestOverheadGuard:
    def test_disabled_recorder_calls_independent_of_trace_size(self):
        """The no-op path must not scale with queries: same (zero) calls at 4x."""
        counts = {}
        for label, seconds in (("small", 600.0), ("large", 2400.0)):
            counting = _CountingNull()
            with use(counting):
                _replay("batched", _trace(seconds), ReactiveScaler)
            counts[label] = counting.calls
        assert counts["small"] == counts["large"] == 0

    def test_disabled_recorder_calls_reference_engine(self):
        counting = _CountingNull()
        with use(counting):
            _replay("reference", _trace(600.0), ReactiveScaler)
        assert counting.calls == 0


def _run_session(run_id: str, workers: int | None = None, **params):
    session = Session(
        store="auto", telemetry=True, run_id=run_id, workers=workers
    )
    result = session.run(
        "pareto",
        trace_names="steady-state",
        scale=0.05,
        monte_carlo_samples=50,
        planning_interval=20.0,
        **params,
    )
    return session, result


class TestSessionTelemetry:
    def test_snapshot_covers_every_layer_and_persists(self):
        session, result = _run_session("itg-run")
        snapshot = result.telemetry
        assert snapshot is not None
        counters = snapshot["counters"]
        # Engine, runtime, cache and store layers all report.
        assert counters["engine.batched.replays"] >= 1
        assert counters["runtime.tasks"] == len(result.rows)
        assert counters["cache.misses"] >= 1
        assert counters["store.writes"] >= 1
        assert snapshot["gauges"]["runtime.workers"] == 1
        assert "runtime.task_seconds" in snapshot["histograms"]
        span_names = {record["name"] for record in snapshot["spans"]}
        assert "experiment.pareto" in span_names
        assert "fit.admm" in span_names
        assert "task.execute" in span_names
        assert snapshot["provenance"]["experiment"] == "pareto"
        assert "engine" not in snapshot["provenance"]
        # And the same payload is addressable by run id in the store.
        loaded = load_snapshot(session.store, "itg-run")
        assert loaded is not None
        assert loaded["counters"]["runtime.tasks"] == counters["runtime.tasks"]

    def test_disabled_by_default(self):
        session = Session(store=None)
        result = session.run(
            "pareto",
            trace_names="steady-state",
            scale=0.05,
            monte_carlo_samples=50,
            planning_interval=20.0,
        )
        assert result.telemetry is None

    def test_pool_snapshots_merge(self):
        session, result = _run_session("itg-pool", workers=2)
        snapshot = result.telemetry
        assert snapshot["counters"]["runtime.tasks"] == len(result.rows)
        assert snapshot["gauges"]["runtime.workers"] == 2
        assert snapshot["histograms"]["runtime.queue_wait_seconds"]["count"] >= 1
        ids = [record["id"] for record in snapshot["spans"]]
        assert len(set(ids)) == len(ids)

    def test_telemetry_rows_match_untelemetered_rows(self):
        _, with_telemetry = _run_session("itg-parity")
        session = Session(store=None, telemetry=False)
        without = session.run(
            "pareto",
            trace_names="steady-state",
            scale=0.05,
            monte_carlo_samples=50,
            planning_interval=20.0,
        )
        assert with_telemetry.rows == without.rows


class TestResultSetExport:
    def test_to_csv_round_trip(self, tmp_path):
        session = Session(store=None)
        result = session.run(
            "pareto",
            trace_names="steady-state",
            scale=0.05,
            monte_carlo_samples=50,
            planning_interval=20.0,
        )
        path = result.to_csv(tmp_path / "rows.csv")
        with open(path, newline="") as handle:
            loaded = list(csv.DictReader(handle))
        assert len(loaded) == len(result.rows)
        assert set(loaded[0]) == set(result.columns)
        for original, reloaded in zip(result.rows, loaded):
            for key, value in original.items():
                assert reloaded[key] == str(value)

    def test_to_dicts_returns_copies(self):
        session = Session(store=None)
        result = session.run(
            "pareto",
            trace_names="steady-state",
            scale=0.05,
            monte_carlo_samples=50,
            planning_interval=20.0,
        )
        copies = result.to_dicts()
        assert copies == result.rows
        copies[0]["trace"] = "mutated"
        assert result.rows[0]["trace"] != "mutated"


def _invoke(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


_PARETO_ARGS = [
    "experiment",
    "pareto",
    "--trace",
    "steady-state",
    "--scale",
    "0.05",
    "--mc-samples",
    "50",
    "--planning-interval",
    "20.0",
]


class TestTelemetryCLI:
    def test_show_and_diff(self):
        for run_id in ("cli-a", "cli-b"):
            code, _, _ = _invoke(
                _PARETO_ARGS + ["--telemetry", "--run-id", run_id, "--quiet"]
            )
            assert code == 0
        code, out, _ = _invoke(["telemetry", "show", "cli-a"])
        assert code == 0
        assert "runtime.tasks" in out
        assert "slowest spans" in out
        code, out, _ = _invoke(["telemetry", "diff", "cli-a", "cli-b"])
        assert code == 0
        assert "ratio" in out
        assert "engine.batched.queries" in out

    def test_show_surfaces_kernel_counters(self):
        """A default-engine run with BP records the top-up counters and the
        chunk-size histogram, and ``telemetry show`` renders them so
        ``telemetry diff`` can attribute engine speedups.  Every replayed
        arrival is counted once: passive chunk, top-up chunk or hook."""
        code, _, _ = _invoke(
            _PARETO_ARGS + ["--telemetry", "--run-id", "cli-kernel", "--quiet"]
        )
        assert code == 0
        code, out, _ = _invoke(["telemetry", "show", "cli-kernel"])
        assert code == 0
        assert "engine.kernel.chunks" in out
        assert "engine.kernel.arrivals" in out
        assert "engine.kernel.chunk_size" in out
        counters = load_snapshot(resolve_store(None), "cli-kernel")["counters"]
        assert counters["engine.kernel.arrivals"] > 0
        assert (
            counters["engine.batched.passive_arrivals"]
            + counters["engine.kernel.arrivals"]
            + counters["engine.batched.hook_arrivals"]
            == counters["engine.batched.queries"]
        )

    def test_show_lists_fit_convergence(self):
        code, _, _ = _invoke(_PARETO_ARGS + ["--telemetry", "--run-id", "cli-fit", "--quiet"])
        assert code == 0
        code, out, _ = _invoke(["telemetry", "show", "cli-fit"])
        assert code == 0
        assert "fit.unconverged" in out
        assert "fit.admm_iterations" in out
        assert "fit.admm_factorizations" in out
        assert "fit.cg_steps" in out

    def test_show_missing_run_errors(self):
        code, _, err = _invoke(["telemetry", "show", "no-such-run"])
        assert code == 2
        assert "no telemetry snapshot" in err

    def test_store_info_reports_telemetry_namespace(self):
        code, _, _ = _invoke(
            _PARETO_ARGS + ["--telemetry", "--run-id", "ns-run", "--quiet"]
        )
        assert code == 0
        code, out, _ = _invoke(["store", "info"])
        assert code == 0
        assert "telemetry" in out

    def test_store_gc_reaps_orphan_snapshots(self):
        from repro.telemetry import Recorder as _Recorder
        from repro.telemetry import build_snapshot, persist_snapshot

        store = resolve_store(None)
        recorder = _Recorder()
        recorder.inc("n")
        persist_snapshot(store, build_snapshot(recorder, run_id="orphan-run"))
        code, out, _ = _invoke(["store", "gc"])
        assert code == 0
        assert "reaped 1 orphaned telemetry snapshots" in out
        assert load_snapshot(store, "orphan-run") is None


class TestQuietUniformity:
    def test_quiet_silences_progress_and_store_lines(self):
        code, _, err = _invoke(_PARETO_ARGS + ["--quiet"])
        assert code == 0
        assert "[progress]" not in err
        assert "[store]" not in err

    def test_loud_run_prints_store_summary(self):
        code, _, err = _invoke(_PARETO_ARGS)
        assert code == 0
        assert "[store]" in err

    def test_simulate_quiet_silences_store_line(self):
        base = [
            "simulate",
            "--trace",
            "steady-state",
            "--scaler",
            "reactive",
            "--scale",
            "0.05",
        ]
        code, _, err = _invoke(base)
        assert code == 0
        assert "[store]" in err
        code, _, err = _invoke(base + ["--quiet"])
        assert code == 0
        assert "[store]" not in err
