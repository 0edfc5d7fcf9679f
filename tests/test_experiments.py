"""Smoke and shape tests for the experiment drivers (one per paper artifact).

These tests run every driver on deliberately tiny configurations: the goal is
to verify that each driver produces rows with the right schema and the
qualitative relationships the paper reports (orderings, monotonicities), not
to reproduce absolute numbers.  Every driver runs through
``Session(store=None).run(name, **params)`` — the same call the CLI makes,
with the artifact store off.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import Session
from repro.exceptions import ValidationError, WorkloadError
from repro.experiments.base import trace_defaults
from repro.nhpp.model import NHPPModel
from repro.runtime import WorkloadSpec, prepare_workload
from repro.runtime import spec as spec_module
from repro.traces.io import save_trace_csv
from repro.types import ArrivalTrace
from repro.workloads import ScenarioRegistry, get_scenario, register_trace_csv
from repro.workloads import registry as registry_module


class TestBaseHelpers:
    def test_build_trace_known_names(self):
        for name in ("crs", "google", "alibaba"):
            trace = get_scenario(name).build_trace(scale=0.2, seed=1)
            assert trace.n_queries > 0

    def test_build_trace_unknown_name(self):
        with pytest.raises(WorkloadError, match="unknown scenario"):
            get_scenario("azure")

    def test_build_trace_rejects_non_positive_scale(self):
        with pytest.raises(ValidationError, match="scale must be positive"):
            get_scenario("crs").build_trace(scale=0.0)

    def test_trace_defaults_unknown_name(self):
        with pytest.raises(WorkloadError, match="unknown scenario"):
            trace_defaults("azure")

    @pytest.mark.parametrize("name", ["crs", "google", "alibaba"])
    def test_trace_defaults_hold_only_sweep_grids(self, name):
        defaults = trace_defaults(name)
        assert set(defaults) == {"pool_sizes", "adaptive_factors", "hp_targets"}
        assert all(defaults[key] for key in defaults)

    @pytest.mark.parametrize(
        "name, hp_targets",
        [
            ("flash-crowd", [0.3, 0.7, 0.9]),
            ("pareto-bursts", [0.3, 0.7, 0.9]),
            ("outage-recovery", [0.3, 0.7, 0.9]),
            ("steady-state", [0.5, 0.9]),
            ("bursty-batch", [0.5, 0.9]),
            ("weekly-seasonal", [0.5, 0.9]),
        ],
    )
    def test_library_hp_targets_follow_scenario_tags(self, name, hp_targets):
        # adversarial / heavy-tail traffic sweeps moderate HP targets.
        assert trace_defaults(name)["hp_targets"] == hp_targets

    @pytest.mark.parametrize(
        "name, train_fraction, bin_seconds",
        [("crs", 0.75, 300.0), ("google", 0.75, 60.0), ("alibaba", 0.8, 60.0)],
    )
    def test_paper_split_and_bin_width_come_from_scenario(
        self, name, train_fraction, bin_seconds
    ):
        scenario = get_scenario(name)
        assert scenario.train_fraction == train_fraction
        assert scenario.bin_seconds == bin_seconds
        key = WorkloadSpec(name, scale=0.25, seed=7).cache_key()
        assert key[-3:] == (train_fraction, bin_seconds, scenario.pending_time)

    def test_prepare_workload(self):
        trace = get_scenario("google").build_trace(scale=0.15, seed=2)
        workload = prepare_workload(trace, train_fraction=0.75, bin_seconds=60.0)
        assert workload.reference_cost > 0
        assert workload.test.n_queries > 0
        assert workload.model.is_fitted

    @pytest.mark.parametrize("pending_time", [5.0, 13.0, 30.0])
    def test_planner_and_replay_share_one_pending_time(
        self, small_poisson_trace, pending_time
    ):
        # RobustScaler must plan for the startup time its replay is scored on.
        workload = prepare_workload(small_poisson_trace, pending_time=pending_time)
        assert workload.pending_model.mean == pending_time
        assert workload.simulation.pending_time == pending_time

    @pytest.mark.parametrize(
        "arrivals, empty_split",
        [((10.0, 20.0), "test"), ((3000.0, 3500.0), "train")],
    )
    def test_prepare_workload_rejects_empty_split(self, arrivals, empty_split):
        # Either empty split used to yield NaN hit rates and no relative cost.
        trace = ArrivalTrace(np.array(arrivals), np.full(2, 5.0), name="tiny", horizon=3600.0)
        with pytest.raises(WorkloadError, match=f"tiny-{empty_split}"):
            prepare_workload(trace)


@pytest.fixture
def tau5_scenario(tmp_path, monkeypatch) -> str:
    """A CSV scenario with its own 5 s pending time, in a test-local registry."""
    trace = get_scenario("steady-state").build_trace(scale=0.05, seed=7)
    path = save_trace_csv(trace, tmp_path / "tau5.csv")
    monkeypatch.setattr(registry_module, "DEFAULT_REGISTRY", ScenarioRegistry())
    register_trace_csv(path, name="tau5", bin_seconds=60.0, pending_time=5.0)
    return "tau5"


@pytest.fixture
def prepared_workloads(monkeypatch) -> list:
    """Every workload a ``WorkloadSpec`` prepares from here on."""
    prepared: list = []

    def recording_prepare(trace, **settings):
        workload = prepare_workload(trace, **settings)
        prepared.append(workload)
        return workload

    monkeypatch.setattr(spec_module, "prepare_workload", recording_prepare)
    return prepared


class TestScenarioPendingTime:
    """Every driver prepares a scenario's traces at the scenario's own pending
    time, replacement traces (perturbed, modified) included."""

    @staticmethod
    def assert_all_at(prepared: list, pending_time: float) -> None:
        assert prepared
        for workload in prepared:
            assert workload.simulation.pending_time == pending_time
            assert workload.pending_model.mean == pending_time

    def test_replacement_trace_prepares_at_scenario_pending_time(self, tau5_scenario):
        trace = get_scenario(tau5_scenario).build_trace()
        for spec in (
            WorkloadSpec(tau5_scenario),
            WorkloadSpec(tau5_scenario, trace=trace),
        ):
            self.assert_all_at([spec.prepare()], 5.0)

    def test_perturbation_evaluates_at_scenario_pending_time(
        self, tau5_scenario, prepared_workloads
    ):
        rows = Session(store=None).run(
            "perturbation",
            trace_name=tau5_scenario,
            scale=1.0,
            perturbation_sizes=(1.0,),
            hp_targets=(0.7,),
            adaptive_factors=(25.0,),
            monte_carlo_samples=40,
            planning_interval=20.0,
        ).rows
        assert rows
        self.assert_all_at(prepared_workloads, 5.0)

    def test_table4_evaluates_at_scenario_pending_time(
        self, tau5_scenario, prepared_workloads
    ):
        rows = Session(store=None).run(
            "table4",
            trace_name=tau5_scenario,
            scale=1.0,
            monte_carlo_samples=40,
            planning_interval=20.0,
        ).rows
        assert [row["environment"] for row in rows] == ["simulated", "real"]
        self.assert_all_at(prepared_workloads, 5.0)


class TestTracesOverview:
    def test_rows_schema(self):
        rows = Session(store=None).run("traces", scale=0.15, seed=3).rows
        assert len(rows) == 3
        for row in rows:
            assert set(row) >= {"trace", "n_queries", "mean_qps", "period_detected"}

    def test_alibaba_burst_flagged(self):
        rows = Session(store=None).run(
            "traces", trace_names="alibaba", scale=0.4, seed=3
        ).rows
        assert rows[0]["max_robust_z"] > 4.0


class TestRegularizationExperiment:
    def test_periodicity_regularization_improves_error(self):
        """Table III: the periodicity penalty must reduce MSE and MAE."""
        rows = Session(store=None).run(
            "table3",
            period_seconds=3600.0,
            n_periods=5,
            bin_seconds=60.0,
            max_iterations=150,
        ).rows
        without = next(r for r in rows if "w/o" in r["model"])
        with_reg = next(r for r in rows if "w/ " in r["model"])
        improvement = next(r for r in rows if r["model"] == "improvement")
        assert all(set(row) == {"model", "mse", "mae", "admm_iterations"} for row in rows)
        assert with_reg["mse"] < without["mse"]
        assert with_reg["mae"] < without["mae"]
        assert improvement["mse"] > 0.0


class TestScalabilityExperiment:
    def test_runtime_grows_with_qps(self):
        """Fig. 8: decision-update runtime grows roughly linearly in QPS."""
        rows = Session(store=None).run(
            "scalability",
            qps_levels=(1.0, 50.0),
            monte_carlo_samples=300,
            repeats=1,
        ).rows
        hp_rows = [r for r in rows if r["variant"].endswith("HP")]
        assert hp_rows[0]["decisions_per_update"] < hp_rows[1]["decisions_per_update"]
        assert hp_rows[0]["runtime_seconds"] < hp_rows[1]["runtime_seconds"]

    def test_mc_accuracy_close_to_targets(self):
        """Table I: achieved levels land near the requested targets."""
        rows = Session(store=None).run(
            "table1",
            peak_qps=5.0,
            period_seconds=900.0,
            horizon_seconds=4 * 900.0,
            planning_interval=10.0,
            monte_carlo_samples=400,
        ).rows
        by_metric = {row["metric"]: row for row in rows}
        hp = by_metric["hit probability"]
        assert hp["achieved_level"] == pytest.approx(hp["target_level"], abs=0.15)
        rt = by_metric["waiting seconds"]
        assert rt["achieved_level"] <= rt["target_level"] + 1.5
        cost = by_metric["idle seconds per instance"]
        assert cost["achieved_level"] <= cost["target_level"] + 2.0


class TestParetoExperiment:
    def test_single_small_trace(self):
        rows = Session(store=None).run(
            "pareto",
            trace_names=("google",),
            scale=0.13,
            planning_interval=10.0,
            monte_carlo_samples=150,
            hp_targets=(0.5, 0.9),
            pool_sizes=(0, 2),
            adaptive_factors=(10.0,),
            include_rt_variant=False,
            include_cost_variant=False,
        ).rows
        assert all(row["trace"] == "google" for row in rows)
        scalers = {row["scaler"] for row in rows}
        assert any("BP" in s for s in scalers)
        assert any("RobustScaler-HP" in s for s in scalers)
        # Reactive baseline has relative cost 1 by construction.
        reactive = next(r for r in rows if r["scaler"] == "BP(B=0)")
        assert reactive["relative_cost"] == pytest.approx(1.0)
        assert reactive["hit_rate"] == 0.0
        # Higher HP target costs more and hits more.
        rs_rows = sorted(
            (r for r in rows if "RobustScaler-HP" in r["scaler"]),
            key=lambda r: r["target_hp"],
        )
        assert rs_rows[-1]["hit_rate"] >= rs_rows[0]["hit_rate"] - 0.05
        assert rs_rows[-1]["relative_cost"] >= rs_rows[0]["relative_cost"] - 0.05


class TestParetoOnLibraryScenarios:
    SCENARIOS = ("steady-state", "flash-crowd")

    @pytest.fixture(scope="class")
    def rows(self) -> list[dict]:
        return Session(store=None).run(
            "pareto",
            trace_names=self.SCENARIOS,
            scale=0.05,
            seed=7,
            planning_interval=20.0,
            monte_carlo_samples=80,
            hp_targets=(0.7,),
            pool_sizes=(0, 1),
            adaptive_factors=(10.0,),
        ).rows

    def test_rows_cover_requested_scenarios_and_scalers(self, rows):
        assert {row["trace"] for row in rows} == set(self.SCENARIOS)
        for scenario in self.SCENARIOS:
            families = {
                row["scaler"].split("(")[0] for row in rows if row["trace"] == scenario
            }
            assert families == {
                "BP",
                "AdapBP",
                "RobustScaler-HP",
                "RobustScaler-RT",
                "RobustScaler-COST",
            }

    def test_bp_zero_anchors_relative_cost_per_scenario(self, rows):
        for scenario in self.SCENARIOS:
            (anchor,) = (
                r for r in rows if r["trace"] == scenario and r["scaler"] == "BP(B=0)"
            )
            assert anchor["relative_cost"] == pytest.approx(1.0)
            assert anchor["hit_rate"] == 0.0

    def test_tighter_rt_budget_buys_hits_at_a_cost(self, rows):
        for scenario in self.SCENARIOS:
            rt_rows = sorted(
                (
                    r
                    for r in rows
                    if r["trace"] == scenario and r["scaler"].startswith("RobustScaler-RT")
                ),
                key=lambda r: -r["waiting_budget"],
            )
            assert len(rt_rows) == 5
            hits = [r["hit_rate"] for r in rt_rows]
            costs = [r["relative_cost"] for r in rt_rows]
            assert hits == sorted(hits) and hits[-1] > hits[0]
            assert costs == sorted(costs) and costs[-1] > costs[0]


class TestVarianceExperiment:
    def test_rows_schema(self):
        rows = Session(store=None).run(
            "variance",
            scale=0.15,
            hp_targets=(0.7,),
            cost_budget_fractions=(0.05,),
            pool_sizes=(1,),
            adaptive_factors=(25.0,),
            monte_carlo_samples=150,
            planning_interval=10.0,
        ).rows
        families = {row["family"] for row in rows}
        assert families == {"BP", "AdapBP", "RobustScaler-HP", "RobustScaler-cost"}
        for row in rows:
            assert row["hit_rate_window_variance"] >= 0.0
            assert row["rt_window_variance"] >= 0.0


class TestPerturbationExperiment:
    def test_rows_cover_all_sizes(self):
        rows = Session(store=None).run(
            "perturbation",
            scale=0.15,
            perturbation_sizes=(1.0, 4.0),
            hp_targets=(0.7,),
            adaptive_factors=(25.0,),
            monte_carlo_samples=150,
            planning_interval=10.0,
        ).rows
        sizes = {row["perturbation_size"] for row in rows}
        assert sizes == {1.0, 4.0}
        assert any("AdapBP" in row["scaler"] for row in rows)
        assert any("RobustScaler" in row["scaler"] for row in rows)


class TestRobustnessExperiment:
    def test_metrics_stable_under_missing_data(self):
        """Fig. 9 / Table II: metrics barely move when training data goes missing."""
        rows = Session(store=None).run(
            "robustness",
            scale=0.15,
            hp_targets=(0.9,),
            cost_budget_fractions=(0.1,),
            monte_carlo_samples=150,
            planning_interval=10.0,
            include_alibaba=False,
        ).rows
        conditions = {row["condition"] for row in rows}
        assert conditions == {"original", "missing_data"}
        original = next(
            r for r in rows if r["condition"] == "original" and "HP" in r["scaler"]
        )
        modified = next(
            r for r in rows if r["condition"] == "missing_data" and "HP" in r["scaler"]
        )
        assert modified["hit_rate"] == pytest.approx(original["hit_rate"], abs=0.15)


class TestControlAccuracyExperiment:
    def test_nominal_actual_rows(self):
        rows = Session(store=None).run(
            "control",
            scale=0.15,
            hp_targets=(0.5, 0.9),
            waiting_budgets=(5.0,),
            idle_budgets=(10.0,),
            monte_carlo_samples=150,
            planning_interval=10.0,
        ).rows
        panels = {row["panel"] for row in rows}
        assert panels == {"hit_probability", "waiting_time", "idle_cost"}
        hp_rows = sorted(
            (r for r in rows if r["panel"] == "hit_probability"),
            key=lambda r: r["nominal"],
        )
        # Actual hit rate increases with the nominal target.
        assert hp_rows[-1]["actual"] >= hp_rows[0]["actual"] - 0.05

    def test_planning_frequency_cost_monotone(self):
        """Fig. 10(d): longer planning intervals cost at least as much."""
        rows = Session(store=None).run(
            "planning-frequency",
            scale=0.15,
            planning_intervals=(10.0, 60.0),
            waiting_budget=3.0,
            monte_carlo_samples=150,
        ).rows
        by_interval = {row["planning_interval"]: row for row in rows}
        assert (
            by_interval[60.0]["relative_cost"]
            >= by_interval[10.0]["relative_cost"] - 0.1
        )


class TestRealEnvExperiment:
    def test_real_and_simulated_close(self):
        rows = Session(store=None).run(
            "table4",
            scale=0.15,
            monte_carlo_samples=150,
            planning_interval=10.0,
        ).rows
        assert {row["environment"] for row in rows} == {"simulated", "real"}
        simulated = next(r for r in rows if r["environment"] == "simulated")
        real = next(r for r in rows if r["environment"] == "real")
        assert real["hit_rate"] == pytest.approx(simulated["hit_rate"], abs=0.15)
        assert real["rt_avg"] == pytest.approx(simulated["rt_avg"], rel=0.15)

    def test_both_environments_share_one_fit(self, monkeypatch):
        fits = []
        original_fit = NHPPModel.fit

        def counting_fit(self, *args, **kwargs):
            fits.append(1)
            return original_fit(self, *args, **kwargs)

        monkeypatch.setattr(NHPPModel, "fit", counting_fit)
        rows = Session(store=None).run(
            "table4",
            scale=0.05,
            monte_carlo_samples=40,
            planning_interval=20.0,
        ).rows
        assert [row["environment"] for row in rows] == ["simulated", "real"]
        assert len(fits) == 1


class TestAblations:
    def test_kappa_ablation_shows_gap(self):
        rows = Session(store=None).run(
            "kappa-ablation",
            horizon_seconds=1800.0,
            monte_carlo_samples=400,
        ).rows
        with_kappa = next(r for r in rows if "with kappa" in r["variant"])
        without = next(r for r in rows if "no look-ahead" in r["variant"])
        assert with_kappa["hit_rate"] > without["hit_rate"]

    def test_mc_sample_ablation_error_shrinks(self):
        rows = Session(store=None).run(
            "mc-sample-ablation",
            sample_sizes=(50, 2000),
            n_trials=10,
        ).rows
        by_n = {row["n_samples"]: row for row in rows}
        assert by_n[2000]["mean_abs_error"] < by_n[50]["mean_abs_error"]

    def test_regularization_sensitivity_grid(self):
        rows = Session(store=None).run(
            "regularization-sensitivity",
            period_seconds=1800.0,
            n_periods=4,
            beta_smooth_values=(0.0, 50.0),
            beta_period_values=(0.0, 10.0),
            max_iterations=100,
        ).rows
        assert len(rows) == 4
        # The shared fit's iteration count stays out of the sensitivity rows.
        assert all(set(row) == {"beta_smooth", "beta_period", "mse", "mae"} for row in rows)
        unregularized = next(
            r for r in rows if r["beta_smooth"] == 0.0 and r["beta_period"] == 0.0
        )
        best = min(rows, key=lambda r: r["mse"])
        assert best["mse"] <= unregularized["mse"]


class TestSharedDriverCode:
    """The pipeline code the drivers call, checked against the steps it replaced."""

    #: A small regularization study: 3 cycles of a 30-minute bump.
    FIT = {
        "beta_smooth": 50.0,
        "beta_period": 10.0,
        "period_seconds": 1800.0,
        "n_periods": 3,
        "bin_seconds": 60.0,
        "peak_qps": 1.0,
        "base_qps": 0.1,
        "exponent": 10.0,
        "seed": 0,
        "max_iterations": 80,
    }

    def test_regularized_fit_errors_columns(self):
        from repro.experiments.regularization import regularized_fit_errors

        errors = regularized_fit_errors(**self.FIT)
        assert set(errors) == {"mse", "mae", "admm_iterations"}
        assert np.isfinite(errors["mse"]) and errors["mse"] >= 0.0
        assert np.isfinite(errors["mae"]) and errors["mae"] >= 0.0
        assert 1 <= errors["admm_iterations"] <= self.FIT["max_iterations"]

    def test_regularized_fit_errors_follow_the_seed(self):
        from repro.experiments.regularization import regularized_fit_errors

        first = regularized_fit_errors(**self.FIT)
        assert regularized_fit_errors(**self.FIT) == first
        assert regularized_fit_errors(**{**self.FIT, "seed": 1})["mse"] != first["mse"]

    def test_zero_period_weight_is_the_unpenalized_fit(self):
        from repro.config import ADMMConfig
        from repro.experiments.regularization import regularized_fit_errors
        from repro.metrics.errors import mean_squared_error
        from repro.nhpp.admm import fit_log_intensity
        from repro.nhpp.objective import RegularizedNHPPObjective
        from repro.nhpp.sampling import sample_counts
        from repro.traces.synthetic import periodic_bump_intensity

        params = {**self.FIT, "beta_period": 0.0}
        horizon = params["period_seconds"] * params["n_periods"]
        truth = periodic_bump_intensity(
            peak=params["peak_qps"],
            period_seconds=params["period_seconds"],
            exponent=params["exponent"],
            base=params["base_qps"],
            horizon_seconds=horizon,
            bin_seconds=params["bin_seconds"],
        )
        objective = RegularizedNHPPObjective(
            counts=sample_counts(truth, horizon, params["seed"]),
            bin_seconds=params["bin_seconds"],
            beta_smooth=params["beta_smooth"],
            beta_period=0.0,
            period_bins=None,
        )
        result = fit_log_intensity(objective, ADMMConfig(max_iterations=params["max_iterations"]))
        expected = mean_squared_error(np.exp(result.log_intensity), truth.values)
        assert regularized_fit_errors(**params)["mse"] == expected

    def test_sensitivity_cell_is_the_shared_fit(self):
        from repro.experiments.ablation import regularization_point
        from repro.experiments.regularization import regularized_fit_errors

        cell = {k: v for k, v in self.FIT.items() if k != "exponent"}
        row = regularization_point(**cell)
        errors = regularized_fit_errors(**self.FIT)
        assert row == {
            "beta_smooth": 50.0,
            "beta_period": 10.0,
            "mse": errors["mse"],
            "mae": errors["mae"],
        }

    def test_table3_rows_are_two_shared_fits(self):
        from repro.experiments.regularization import regularized_fit_errors

        params = {k: v for k, v in self.FIT.items() if k != "beta_period"}
        rows = Session(store=None).run("table3", **params, beta_period=10.0).rows
        by_model = {row["model"]: row for row in rows}
        without = regularized_fit_errors(**{**params, "beta_period": 0.0})
        with_reg = regularized_fit_errors(**{**params, "beta_period": 10.0})
        assert {**without, "model": "NHPP w/o periodicity reg."} == (
            by_model["NHPP w/o periodicity reg."]
        )
        assert {**with_reg, "model": "NHPP w/ periodicity reg."} == (
            by_model["NHPP w/ periodicity reg."]
        )

    @pytest.mark.parametrize("n_samples", [1, 50, 2000])
    def test_mc_sample_point_errors_match_the_scalar_solver(self, n_samples):
        # The ablation's column solve must give the per-query HP solver's
        # decision on the same (R, 1) samples, bit for bit.
        from repro.experiments.ablation import mc_sample_point
        from repro.nhpp.intensity import PiecewiseConstantIntensity
        from repro.optimization.formulations import solve_hp_constrained
        from repro.optimization.montecarlo import generate_scenarios
        from repro.pending import DeterministicPendingTime

        rate, pending, target, trials, seed = 1.0, 5.0, 0.9, 3, 11
        row = mc_sample_point(
            n_samples=n_samples,
            arrival_rate=rate,
            pending_time=pending,
            target_hp=target,
            n_trials=trials,
            seed=seed,
        )
        alpha = 1.0 - target
        exact = -np.log(1.0 - alpha) / rate - pending
        intensity = PiecewiseConstantIntensity(np.array([rate]), 60.0, extrapolation="hold")
        errors = []
        for trial in range(trials):
            scenarios = generate_scenarios(
                intensity,
                DeterministicPendingTime(pending),
                n_queries=1,
                n_samples=n_samples,
                random_state=seed + trial,
            )
            xi, tau = scenarios.for_query(0)
            errors.append(abs(solve_hp_constrained(xi, tau, target).raw_creation_time - exact))
        assert row["n_samples"] == n_samples
        assert row["exact_decision"] == float(exact)
        assert row["mean_abs_error"] == float(np.mean(errors))
        assert row["solve_time_ms"] >= 0.0
