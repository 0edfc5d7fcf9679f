"""Tests for the parallel evaluation runtime (specs, cache, executors).

The load-bearing guarantees: (1) the serial and process-pool executors
produce bit-identical result rows for the same task list and base seed;
(2) the workload cache prepares — and therefore fits the NHPP model —
exactly once per (workload identity, prep-config) key; (3) per-task seeds
derive deterministically via ``SeedSequence.spawn``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import PlanningError, ValidationError
from repro.nhpp.model import NHPPModel
from repro.runtime import (
    EvalTask,
    PrepSpec,
    ScalerSpec,
    WorkloadCache,
    WorkloadSpec,
    derive_task_seeds,
    execute_task,
    resolve_workers,
    run_task_rows,
    run_tasks,
    strip_timing,
)
from repro.scaling.adaptive_backup_pool import AdaptiveBackupPoolScaler
from repro.scaling.backup_pool import BackupPoolScaler, ReactiveScaler
from repro.scaling.robustscaler import RobustScaler, RobustScalerObjective
from repro.workloads import get_scenario


@pytest.fixture(scope="module")
def tiny_workload():
    """One small prepared workload shared by the scaler-build tests."""
    return WorkloadSpec(scenario="steady-state", scale=0.05, seed=7).prepare()


def small_tasks() -> list[EvalTask]:
    """A tiny two-scenario batch covering baselines and RobustScaler."""
    tasks: list[EvalTask] = []
    for name in ("steady-state", "flash-crowd"):
        workload = WorkloadSpec(scenario=name, scale=0.05, seed=7)
        specs = [
            ScalerSpec("reactive"),
            ScalerSpec("bp", 2),
            ScalerSpec("rs-hp", 0.7, planning_interval=20.0, monte_carlo_samples=60),
        ]
        tasks += [
            EvalTask(workload, spec, extra=(("scenario", name),)) for spec in specs
        ]
    return tasks


class TestSpecs:
    def test_workload_spec_requires_exactly_one_source(self):
        with pytest.raises(ValidationError):
            WorkloadSpec()
        trace = get_scenario("steady-state").build_trace(scale=0.03, seed=1)
        with pytest.raises(ValidationError):
            WorkloadSpec(scenario="steady-state", trace=trace)

    def test_scaler_spec_validation(self):
        with pytest.raises(ValidationError):
            ScalerSpec("warp-drive", 1.0)
        with pytest.raises(ValidationError):
            ScalerSpec("bp")  # parameter required
        with pytest.raises(ValidationError):
            ScalerSpec("rs-hp", 0.9, monte_carlo_samples=0)

    def test_parameter_name_defaults_per_kind(self):
        assert ScalerSpec("bp", 2).resolved_parameter_name == "pool_size"
        assert ScalerSpec("rs-hp", 0.9).resolved_parameter_name == "target_hp"
        assert ScalerSpec("reactive").resolved_parameter_name is None
        assert (
            ScalerSpec("bp", 2, parameter_name="parameter").resolved_parameter_name
            == "parameter"
        )

    @pytest.mark.parametrize(
        "kind, parameter, scaler_type, attribute",
        [
            ("reactive", None, ReactiveScaler, None),
            ("bp", 3, BackupPoolScaler, "pool_size"),
            ("adapbp", 25.0, AdaptiveBackupPoolScaler, "rate_factor"),
            ("rs-hp", 0.8, RobustScaler, "target"),
            ("rs-rt", 2.0, RobustScaler, "target"),
            ("rs-cost", 5.0, RobustScaler, "target"),
        ],
    )
    def test_build_maps_each_kind_to_its_scaler(
        self, tiny_workload, kind, parameter, scaler_type, attribute
    ):
        spec = ScalerSpec(kind, parameter, planning_interval=20.0, monte_carlo_samples=60)
        scaler = spec.build(tiny_workload, random_state=3)
        assert type(scaler) is scaler_type
        if attribute is not None:
            assert getattr(scaler, attribute) == parameter

    @pytest.mark.parametrize(
        "kind, objective",
        [
            ("rs-hp", RobustScalerObjective.HIT_PROBABILITY),
            ("rs-rt", RobustScalerObjective.RESPONSE_TIME),
            ("rs-cost", RobustScalerObjective.COST),
        ],
    )
    def test_build_carries_objective_and_planner(self, tiny_workload, kind, objective):
        spec = ScalerSpec(kind, 0.5, planning_interval=20.0, monte_carlo_samples=60)
        scaler = spec.build(tiny_workload, random_state=3)
        assert scaler.objective is objective
        assert scaler.planner.planning_interval == 20.0
        assert scaler.planner.monte_carlo_samples == 60
        assert scaler.forecast is tiny_workload.forecast
        assert scaler.pending_model is tiny_workload.pending_model

    @pytest.mark.parametrize(
        "kind, parameter, error",
        [
            ("rs-hp", 1.5, PlanningError),
            ("rs-rt", -1.0, ValidationError),
            ("bp", -2, ValidationError),
            ("adapbp", -5.0, ValidationError),
        ],
    )
    def test_build_rejects_out_of_range_parameter(
        self, tiny_workload, kind, parameter, error
    ):
        with pytest.raises(error):
            ScalerSpec(kind, parameter).build(tiny_workload)

    def test_cache_key_distinguishes_prep_configs(self):
        base = WorkloadSpec(scenario="steady-state", scale=0.05, seed=7)
        other_prep = WorkloadSpec(
            scenario="steady-state",
            scale=0.05,
            seed=7,
            prep=PrepSpec(bin_seconds=120.0),
        )
        other_seed = WorkloadSpec(scenario="steady-state", scale=0.05, seed=8)
        assert base.cache_key() == base.cache_key()
        assert base.cache_key() != other_prep.cache_key()
        assert base.cache_key() != other_seed.cache_key()

    def test_prep_spec_resolves_to_prepare_workload_keywords(self):
        """Every PrepSpec field is a prepare_workload keyword, and no more."""
        import inspect
        from dataclasses import fields

        from repro.runtime import prepare_workload

        keywords = [
            name
            for name, param in inspect.signature(prepare_workload).parameters.items()
            if param.kind is inspect.Parameter.KEYWORD_ONLY
        ]
        assert [f.name for f in fields(PrepSpec)] == keywords
        assert list(PrepSpec().resolve()) == keywords

    def test_trace_backed_key_uses_content_fingerprint(self):
        scenario = get_scenario("steady-state")
        trace_a = scenario.build_trace(scale=0.03, seed=1)
        trace_a_again = scenario.build_trace(scale=0.03, seed=1)
        trace_b = scenario.build_trace(scale=0.03, seed=2)
        assert (
            WorkloadSpec(trace=trace_a).cache_key()
            == WorkloadSpec(trace=trace_a_again).cache_key()
        )
        assert (
            WorkloadSpec(trace=trace_a).cache_key()
            != WorkloadSpec(trace=trace_b).cache_key()
        )

    def test_derive_task_seeds_deterministic_and_independent(self):
        first = derive_task_seeds(7, 5)
        second = derive_task_seeds(7, 5)
        assert len(first) == 5
        for a, b in zip(first, second):
            assert a.spawn_key == b.spawn_key
            np.testing.assert_array_equal(
                np.random.default_rng(a).integers(0, 2**31, 8),
                np.random.default_rng(b).integers(0, 2**31, 8),
            )
        streams = {
            tuple(np.random.default_rng(seed).integers(0, 2**31, 8)) for seed in first
        }
        assert len(streams) == 5


class TestResolveWorkers:
    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "8")
        assert resolve_workers(3) == 3

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "4")
        assert resolve_workers(None) == 4

    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert resolve_workers(None) == 1

    def test_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "many")
        with pytest.raises(ValidationError):
            resolve_workers(None)
        with pytest.raises(ValidationError):
            resolve_workers(0)


class TestWorkloadCache:
    def test_one_model_fit_per_key(self, monkeypatch):
        """The cache guarantee: one NHPP fit per prepared-workload key."""
        fits = []
        original_fit = NHPPModel.fit

        def counting_fit(self, *args, **kwargs):
            fits.append(1)
            return original_fit(self, *args, **kwargs)

        monkeypatch.setattr(NHPPModel, "fit", counting_fit)
        tasks = small_tasks()
        cache = WorkloadCache()
        run_tasks(tasks, base_seed=7, cache=cache)
        unique_keys = {task.workload.cache_key() for task in tasks}
        assert len(fits) == len(unique_keys) == 2
        assert cache.stats().misses == len(unique_keys)
        assert cache.stats().hits == len(tasks) - len(unique_keys)

    def test_cache_shared_across_batches(self):
        tasks = small_tasks()
        cache = WorkloadCache()
        run_tasks(tasks, base_seed=7, cache=cache)
        misses_before = cache.stats().misses
        run_tasks(tasks, base_seed=7, cache=cache)
        assert cache.stats().misses == misses_before  # second batch: all hits

    def test_execute_task_reports_cache_hit(self):
        task = small_tasks()[0]
        cache = WorkloadCache()
        first = execute_task(task, seed=0, cache=cache)
        second = execute_task(task, seed=0, cache=cache)
        assert first.cache_hit is False
        assert second.cache_hit is True


class TestDeterminism:
    @pytest.fixture(scope="class")
    def serial_rows(self) -> list[dict]:
        return run_task_rows(small_tasks(), base_seed=7, workers=1)

    def test_serial_and_parallel_rows_identical(self, serial_rows):
        """The acceptance guarantee: executors agree bit-for-bit."""
        parallel_rows = run_task_rows(small_tasks(), base_seed=7, workers=2)
        assert strip_timing(parallel_rows) == strip_timing(serial_rows)

    def test_same_base_seed_reproduces(self, serial_rows):
        again = run_task_rows(small_tasks(), base_seed=7)
        assert strip_timing(again) == strip_timing(serial_rows)

    def test_different_base_seed_changes_mc_rows(self, serial_rows):
        other = run_task_rows(small_tasks(), base_seed=8)
        stripped_a, stripped_b = strip_timing(serial_rows), strip_timing(other)
        # Deterministic scalers (reactive, BP) are seed-independent...
        for a, b in zip(stripped_a, stripped_b):
            if not a["scaler"].startswith("RobustScaler"):
                assert a == b
        # ...while the Monte Carlo rows must actually use the derived seeds.
        assert stripped_a != stripped_b

    def test_rows_returned_in_task_order(self, serial_rows):
        expected = [
            ("steady-state", "Reactive"),
            ("steady-state", "BP(B=2)"),
            ("steady-state", "RobustScaler-HP(target=0.7)"),
            ("flash-crowd", "Reactive"),
            ("flash-crowd", "BP(B=2)"),
            ("flash-crowd", "RobustScaler-HP(target=0.7)"),
        ]
        assert [(row["scenario"], row["scaler"]) for row in serial_rows] == expected

    def test_variance_window_rows(self):
        task = EvalTask(
            WorkloadSpec(scenario="steady-state", scale=0.05, seed=7),
            ScalerSpec("bp", 2),
            variance_window=25,
        )
        row = run_task_rows([task], base_seed=7)[0]
        for column in ("hit_rate_mean", "hit_rate_variance", "rt_mean", "rt_variance"):
            assert column in row
        assert row["hit_rate_variance"] >= 0.0
        assert row["rt_variance"] >= 0.0

    def test_direct_trace_tasks_match_scenario_tasks(self):
        """A trace-backed spec evaluates exactly like its scenario spec."""
        scenario = get_scenario("steady-state")
        trace = scenario.build_trace(scale=0.05, seed=7)
        prep = PrepSpec(
            train_fraction=scenario.train_fraction,
            bin_seconds=scenario.bin_seconds,
            pending_time=scenario.pending_time,
        )
        by_name = EvalTask(
            WorkloadSpec(scenario="steady-state", scale=0.05, seed=7, prep=prep),
            ScalerSpec("rs-hp", 0.7, planning_interval=20.0, monte_carlo_samples=60),
        )
        by_trace = EvalTask(
            WorkloadSpec(trace=trace, prep=prep),
            ScalerSpec("rs-hp", 0.7, planning_interval=20.0, monte_carlo_samples=60),
        )
        rows_name = strip_timing(run_task_rows([by_name], base_seed=3))
        rows_trace = strip_timing(run_task_rows([by_trace], base_seed=3))
        assert rows_name == rows_trace
