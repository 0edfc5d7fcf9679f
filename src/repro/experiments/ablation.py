"""Ablation studies of three design choices in the paper's method.

Three ablations complement the paper's own experiments:

* **kappa look-ahead** — Algorithm 4 with the computed threshold ``kappa``
  versus a naive variant with no look-ahead (``kappa = 0``); the look-ahead is
  what guarantees the target hitting probability for the first queries of
  each planning block.
* **Monte Carlo sample size** — decision accuracy (against the analytic
  optimum available for exponential interarrivals) and solve time as the
  sample count ``R`` grows, solved by the planner's
  :class:`~repro.optimization.formulations.ColumnSolver`.
* **regularization sensitivity** — intensity-estimation error over a grid of
  the smoothness and periodicity weights ``beta_1`` and ``beta_2``, each
  cell one :func:`~repro.experiments.regularization.regularized_fit_errors`
  fit (Table III's).

All three are registered in :mod:`repro.api` (``kappa-ablation`` /
``mc-sample-ablation`` / ``regularization-sensitivity``), which also gives
them generated CLI subcommands for the first time.  None of these grids is
a (workload, scaler) replay, so each grid point runs as a
:class:`~repro.runtime.FunctionTask` naming one of the module-level
``*_point`` functions below: the drivers gain ``workers`` parallelism and
``run_id`` resumability from :func:`repro.runtime.run_tasks` while the
point functions stay plain, deterministic-in-their-arguments Python.
"""

from __future__ import annotations

import time

import numpy as np

from ..api import (
    ExperimentSpec,
    ParamSpec,
    register_experiment,
)
from ..api.session import RunContext
from ..config import PlannerConfig, SimulationConfig
from ..nhpp.intensity import PiecewiseConstantIntensity
from ..nhpp.sampling import sample_homogeneous_arrivals
from ..optimization.formulations import ColumnSolver, DecisionObjective
from ..optimization.montecarlo import generate_scenarios
from ..pending import DeterministicPendingTime
from ..runtime import FunctionTask
from ..scaling.sequential import SequentialHPScaler
from ..simulation.runner import create_simulator
from ..types import ArrivalTrace
from .regularization import regularized_fit_errors

__all__ = [
    "kappa_ablation_point",
    "mc_sample_point",
    "regularization_point",
]


# ------------------------------------------------------------ kappa ablation


def kappa_ablation_point(
    *,
    variant: str,
    intensity_upper_bound: float | None,
    arrival_rate: float,
    horizon_seconds: float,
    pending_time: float,
    target_hp: float,
    planning_every: int,
    monte_carlo_samples: int,
    seed: int,
    engine: str = "reference",
) -> dict:
    """One kappa-ablation variant on a known-rate homogeneous workload."""
    arrivals = sample_homogeneous_arrivals(arrival_rate, horizon_seconds, seed)
    trace = ArrivalTrace(arrivals, 20.0, name="kappa-ablation", horizon=horizon_seconds)
    forecast = PiecewiseConstantIntensity(
        np.array([arrival_rate]), 60.0, extrapolation="hold"
    )
    scaler = SequentialHPScaler(
        forecast,
        DeterministicPendingTime(pending_time),
        target_hit_probability=target_hp,
        planning_every=planning_every,
        intensity_upper_bound=intensity_upper_bound,
        planner=PlannerConfig(monte_carlo_samples=monte_carlo_samples),
        random_state=seed,
    )
    simulator = create_simulator(
        SimulationConfig(pending_time=pending_time, engine=engine)
    )
    result = simulator.replay(trace, scaler)
    return {
        "variant": variant,
        "kappa": scaler.kappa,
        "target_hp": float(target_hp),
        "hit_rate": result.hit_rate,
        "rt_avg": result.mean_response_time,
        "total_cost": result.total_cost,
    }


def _run_kappa_ablation(params: dict, ctx: RunContext) -> list[dict]:
    """Algorithm 4 with and without the kappa look-ahead on a known-rate workload."""
    tasks = [
        FunctionTask(
            fn=f"{__name__}.kappa_ablation_point",
            kwargs=(
                ("variant", variant),
                ("intensity_upper_bound", upper_bound),
                ("arrival_rate", float(params["arrival_rate"])),
                ("horizon_seconds", float(params["horizon_seconds"])),
                ("pending_time", float(params["pending_time"])),
                ("target_hp", float(params["target_hp"])),
                ("planning_every", int(params["planning_every"])),
                ("monte_carlo_samples", int(params["monte_carlo_samples"])),
                ("seed", int(params["seed"])),
                ("engine", ctx.engine),
            ),
        )
        for variant, upper_bound in (
            ("with kappa (eq. 8)", None),
            ("no look-ahead (kappa = 0)", 0.0),
        )
    ]
    return ctx.run_rows(tasks, base_seed=params["seed"])


register_experiment(
    ExperimentSpec(
        name="kappa-ablation",
        title="Algorithm 4 with vs without the kappa look-ahead",
        params=(
            ParamSpec("arrival_rate", "float", 0.2, help="true arrival rate (QPS)"),
            ParamSpec(
                "horizon_seconds", "float", 2 * 3600.0, help="replay horizon (seconds)"
            ),
            ParamSpec(
                "pending_time", "float", 13.0, help="instance startup time (seconds)"
            ),
            ParamSpec("target_hp", "float", 0.9, help="target hit probability"),
            ParamSpec(
                "planning_every", "int", 1, help="plan once every m arrivals"
            ),
            ParamSpec(
                "monte_carlo_samples",
                "int",
                1000,
                cli_flag="--mc-samples",
                help="Monte Carlo sample size R",
            ),
            ParamSpec("seed", "int", 3, help="arrival and Monte Carlo seed"),
        ),
        run=_run_kappa_ablation,
        result_columns=(
            "variant",
            "kappa",
            "target_hp",
            "hit_rate",
            "rt_avg",
            "total_cost",
        ),
    )
)



# ------------------------------------------------------ Monte Carlo ablation


def mc_sample_point(
    *,
    n_samples: int,
    arrival_rate: float,
    pending_time: float,
    target_hp: float,
    n_trials: int,
    seed: int,
) -> dict:
    """Decision error and solve time for one Monte Carlo sample size R.

    With a constant intensity the HP-constrained optimum has the closed form
    ``x* = quantile_alpha(Exp(rate)) - tau``, so the Monte Carlo decision can
    be compared against an exact reference.
    """
    alpha = 1.0 - target_hp
    exact = -np.log(1.0 - alpha) / arrival_rate - pending_time
    intensity = PiecewiseConstantIntensity(
        np.array([arrival_rate]), 60.0, extrapolation="hold"
    )
    pending = DeterministicPendingTime(pending_time)
    solve = ColumnSolver(DecisionObjective.HIT_PROBABILITY, target_hp)
    errors = []
    timings = []
    for trial in range(n_trials):
        scenarios = generate_scenarios(
            intensity,
            pending,
            n_queries=1,
            n_samples=int(n_samples),
            random_state=seed + trial,
        )
        started = time.perf_counter()
        (raw_creation_time,) = solve(scenarios.arrival_times, scenarios.pending_times)
        timings.append(time.perf_counter() - started)
        errors.append(abs(float(raw_creation_time) - exact))
    return {
        "n_samples": int(n_samples),
        "exact_decision": float(exact),
        "mean_abs_error": float(np.mean(errors)),
        "solve_time_ms": 1000.0 * float(np.median(timings)),
    }


def _run_mc_sample_ablation(params: dict, ctx: RunContext) -> list[dict]:
    """Decision error and solve time versus the Monte Carlo sample size R."""
    tasks = [
        FunctionTask(
            fn=f"{__name__}.mc_sample_point",
            kwargs=(
                ("n_samples", int(n_samples)),
                ("arrival_rate", float(params["arrival_rate"])),
                ("pending_time", float(params["pending_time"])),
                ("target_hp", float(params["target_hp"])),
                ("n_trials", int(params["n_trials"])),
                ("seed", int(params["seed"])),
            ),
        )
        for n_samples in params["sample_sizes"]
    ]
    return ctx.run_rows(tasks, base_seed=params["seed"])


register_experiment(
    ExperimentSpec(
        name="mc-sample-ablation",
        title="decision error and solve time vs Monte Carlo sample size",
        params=(
            ParamSpec("arrival_rate", "float", 1.0, help="true arrival rate (QPS)"),
            ParamSpec(
                "pending_time", "float", 5.0, help="instance startup time (seconds)"
            ),
            ParamSpec("target_hp", "float", 0.9, help="target hit probability"),
            ParamSpec(
                "sample_sizes",
                "int",
                (50, 200, 1000, 5000),
                sequence=True,
                cli_flag="--sample-size",
                help="Monte Carlo sample counts R to compare",
            ),
            ParamSpec("n_trials", "int", 20, help="trials per sample size"),
            ParamSpec("seed", "int", 0, help="Monte Carlo seed"),
        ),
        run=_run_mc_sample_ablation,
        result_columns=(
            "n_samples",
            "exact_decision",
            "mean_abs_error",
            "solve_time_ms",
        ),
        engine_aware=False,
    )
)



# ------------------------------------------- regularization sensitivity grid


def regularization_point(
    *,
    beta_smooth: float,
    beta_period: float,
    period_seconds: float,
    n_periods: int,
    bin_seconds: float,
    peak_qps: float,
    base_qps: float,
    seed: int,
    max_iterations: int,
) -> dict:
    """Intensity-estimation error for one (beta_smooth, beta_period) cell."""
    errors = regularized_fit_errors(
        beta_smooth=beta_smooth,
        beta_period=beta_period,
        period_seconds=period_seconds,
        n_periods=n_periods,
        bin_seconds=bin_seconds,
        peak_qps=peak_qps,
        base_qps=base_qps,
        exponent=10.0,
        seed=seed,
        max_iterations=max_iterations,
    )
    return {
        "beta_smooth": float(beta_smooth),
        "beta_period": float(beta_period),
        "mse": errors["mse"],
        "mae": errors["mae"],
    }


def _run_regularization_sensitivity(params: dict, ctx: RunContext) -> list[dict]:
    """Intensity error over a grid of smoothness / periodicity weights."""
    tasks = [
        FunctionTask(
            fn=f"{__name__}.regularization_point",
            kwargs=(
                ("beta_smooth", float(beta_smooth)),
                ("beta_period", float(beta_period)),
                ("period_seconds", float(params["period_seconds"])),
                ("n_periods", int(params["n_periods"])),
                ("bin_seconds", float(params["bin_seconds"])),
                ("peak_qps", float(params["peak_qps"])),
                ("base_qps", float(params["base_qps"])),
                ("seed", int(params["seed"])),
                ("max_iterations", int(params["max_iterations"])),
            ),
        )
        for beta_smooth in params["beta_smooth_values"]
        for beta_period in params["beta_period_values"]
    ]
    return ctx.run_rows(tasks, base_seed=params["seed"])


register_experiment(
    ExperimentSpec(
        name="regularization-sensitivity",
        title="intensity error over the beta_1 / beta_2 grid",
        params=(
            ParamSpec(
                "period_seconds", "float", 7200.0, help="true period (seconds)"
            ),
            ParamSpec("n_periods", "int", 6, help="observed cycles"),
            ParamSpec("bin_seconds", "float", 60.0, help="fitting bin width"),
            ParamSpec("peak_qps", "float", 1.0, help="intensity peak (QPS)"),
            ParamSpec("base_qps", "float", 0.1, help="intensity base (QPS)"),
            ParamSpec(
                "beta_smooth_values",
                "float",
                (0.0, 10.0, 50.0, 200.0),
                sequence=True,
                cli_flag="--beta-smooth",
                help="smoothness weights beta_1",
            ),
            ParamSpec(
                "beta_period_values",
                "float",
                (0.0, 10.0, 100.0),
                sequence=True,
                cli_flag="--beta-period",
                help="periodicity weights beta_2",
            ),
            ParamSpec("seed", "int", 0, help="count-sampling seed"),
            ParamSpec("max_iterations", "int", 200, help="ADMM iteration cap"),
        ),
        run=_run_regularization_sensitivity,
        result_columns=("beta_smooth", "beta_period", "mse", "mae"),
        engine_aware=False,
    )
)

