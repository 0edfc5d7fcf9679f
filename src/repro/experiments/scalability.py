"""Fig. 8 and Table I — scalability towards high QPS and Monte Carlo accuracy.

Fig. 8 measures how long one decision update (modules 3-4: sampling arrival
scenarios and solving (3)/(5)/(7) for every instance creation that falls in
the next planning window) takes as a function of the instantaneous QPS.  The
update is timed through the planner's own code: the scenario draw and the
:class:`~repro.optimization.formulations.ColumnSolver` a RobustScaler
planning round calls.  The paper sweeps the QPS up to 10 000 using a
synthetic hourly-bump intensity; the driver below measures the same
quantity on a configurable QPS grid so the linear runtime growth can be
verified at any scale.

Table I replays a synthetic trace generated from the same family of
intensities with all three RobustScaler variants and compares the achieved
QoS/cost level against the target that was requested.

Registered as ``"scalability"`` and ``"table1"`` in :mod:`repro.api`; the
former is a pure solver-timing grid (no replay, so no engine selection),
the latter replays through whichever engine the session resolves.
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
from ..optimization.formulations import ColumnSolver, DecisionObjective
from ..optimization.montecarlo import generate_scenarios
from ..pending import DeterministicPendingTime
from ..runtime.workload import EXTRA_METRICS
from ..scaling.robustscaler import RobustScaler, RobustScalerObjective
from ..simulation.runner import create_simulator
from ..traces.synthetic import generate_trace_from_intensity, periodic_bump_intensity

__all__: list[str] = []


def _run_scalability(params: dict, ctx: RunContext) -> list[dict]:
    """Measure per-decision-update runtime for each QPS level and each variant.

    Each row reports the wall-clock seconds of one planning round (scenario
    sampling plus the column solve of every query falling in the planning
    window) at the given QPS, for the HP, RT and cost formulations.
    """
    pending = DeterministicPendingTime(params["pending_time"])
    rows: list[dict] = []
    for qps in params["qps_levels"]:
        intensity = PiecewiseConstantIntensity(
            np.array([float(qps)]), 60.0, extrapolation="hold"
        )
        expected = qps * (params["planning_window"] + params["pending_time"])
        n_queries = max(1, int(np.ceil(expected + 4.0 * np.sqrt(expected) + 5.0)))
        for objective, target in (
            (DecisionObjective.HIT_PROBABILITY, params["target_hp"]),
            (DecisionObjective.RESPONSE_TIME, params["waiting_budget"]),
            (DecisionObjective.COST, params["idle_budget"]),
        ):
            solve = ColumnSolver(objective, target)
            timings = []
            for repeat in range(params["repeats"]):
                started = time.perf_counter()
                scenarios = generate_scenarios(
                    intensity,
                    pending,
                    n_queries=n_queries,
                    n_samples=params["monte_carlo_samples"],
                    random_state=params["seed"] + repeat,
                )
                solve(scenarios.arrival_times, scenarios.pending_times)
                timings.append(time.perf_counter() - started)
            rows.append(
                {
                    "qps": float(qps),
                    "variant": f"RobustScaler-{objective.value.upper()}",
                    "decisions_per_update": n_queries,
                    "runtime_seconds": float(np.median(timings)),
                    "runtime_per_decision_ms": 1000.0
                    * float(np.median(timings))
                    / n_queries,
                }
            )
    return rows


register_experiment(
    ExperimentSpec(
        name="scalability",
        title="decision-update runtime versus instantaneous QPS",
        artifact="Fig. 8",
        params=(
            ParamSpec(
                "qps_levels",
                "float",
                (0.1, 1.0, 10.0, 100.0, 1000.0, 10000.0),
                sequence=True,
                cli_flag="--qps",
                help="instantaneous QPS levels to time",
            ),
            ParamSpec(
                "planning_window", "float", 5.0, help="planning window (seconds)"
            ),
            ParamSpec(
                "monte_carlo_samples",
                "int",
                1000,
                cli_flag="--mc-samples",
                help="Monte Carlo sample size R",
            ),
            ParamSpec(
                "pending_time", "float", 13.0, help="instance startup time (seconds)"
            ),
            ParamSpec("target_hp", "float", 0.9, help="HP-variant target"),
            ParamSpec(
                "waiting_budget", "float", 1.0, help="RT-variant budget (seconds)"
            ),
            ParamSpec(
                "idle_budget", "float", 2.0, help="cost-variant budget (seconds)"
            ),
            ParamSpec("repeats", "int", 3, help="timing repetitions per cell"),
            ParamSpec("seed", "int", 0, help="Monte Carlo seed"),
        ),
        run=_run_scalability,
        result_columns=(
            "qps",
            "variant",
            "decisions_per_update",
            "runtime_seconds",
            "runtime_per_decision_ms",
        ),
        runtime=False,
        engine_aware=False,
    )
)



def _run_mc_accuracy(params: dict, ctx: RunContext) -> list[dict]:
    """Replay the synthetic high-QPS trace with the three variants (Table I).

    The trace is drawn from ``peak * 4^40 u^40 (1 - u)^40 + base`` (``u``
    the phase within one period), binned at 1/360 of the period (at least
    1 s).  The paper uses an hourly bump peaking near 1000 QPS
    (``peak_qps=1000``, ``period_seconds=3600``, ``base_qps=0.001``); the
    defaults here are laptop-sized.

    Returns one row per variant with the target level and the achieved level,
    where "level" means hit rate (HP variant), mean waiting time in seconds
    (RT variant), or mean idle time per instance in seconds (cost variant).
    """
    intensity = periodic_bump_intensity(
        peak=params["peak_qps"],
        period_seconds=params["period_seconds"],
        exponent=40.0,
        base=params["base_qps"],
        horizon_seconds=params["horizon_seconds"],
        bin_seconds=max(params["period_seconds"] / 360.0, 1.0),
    )
    trace = generate_trace_from_intensity(
        intensity,
        params["horizon_seconds"],
        processing_time_mean=params["processing_time_mean"],
        processing_time_distribution="exponential",
        name="mc-accuracy",
        random_state=params["seed"],
    )
    train, test = trace.split(params["train_fraction"])
    # The ground-truth intensity is periodic, so the forecast for the test
    # window is the same profile shifted by the training duration.
    forecast = intensity.shift(train.horizon)
    pending = DeterministicPendingTime(params["pending_time"])
    planner = PlannerConfig(
        planning_interval=params["planning_interval"],
        monte_carlo_samples=params["monte_carlo_samples"],
    )
    sim_config = SimulationConfig(
        pending_time=params["pending_time"], engine=ctx.engine
    )
    simulator = create_simulator(sim_config)

    rows: list[dict] = []
    variants = (
        (
            RobustScalerObjective.HIT_PROBABILITY,
            params["target_hp"],
            "hit probability",
            lambda result: result.hit_rate,
        ),
        (
            RobustScalerObjective.RESPONSE_TIME,
            params["waiting_budget"],
            "waiting seconds",
            EXTRA_METRICS["waiting_avg"],
        ),
        (
            RobustScalerObjective.COST,
            params["idle_budget"],
            "idle seconds per instance",
            EXTRA_METRICS["idle_avg"],
        ),
    )
    for objective, target, unit, level in variants:
        scaler = RobustScaler(
            forecast,
            pending,
            objective=objective,
            target=target,
            planner=planner,
            random_state=params["seed"],
        )
        result = simulator.replay(test, scaler)
        rows.append(
            {
                "variant": scaler.name,
                "metric": unit,
                "target_level": float(target),
                "achieved_level": level(result),
                "n_queries": result.n_queries,
            }
        )
    return rows


register_experiment(
    ExperimentSpec(
        name="table1",
        title="Monte Carlo accuracy: achieved vs targeted QoS/cost levels",
        artifact="Table I",
        params=(
            ParamSpec("peak_qps", "float", 20.0, help="intensity peak (QPS)"),
            ParamSpec("base_qps", "float", 0.001, help="intensity base (QPS)"),
            ParamSpec(
                "period_seconds", "float", 1800.0, help="bump period (seconds)"
            ),
            ParamSpec(
                "horizon_seconds", "float", 4 * 1800.0, help="horizon (seconds)"
            ),
            ParamSpec("train_fraction", "float", 0.75, help="training split"),
            ParamSpec(
                "pending_time", "float", 13.0, help="instance startup time (seconds)"
            ),
            ParamSpec(
                "processing_time_mean", "float", 20.0, help="mean service time"
            ),
            ParamSpec("target_hp", "float", 0.9, help="HP-variant target"),
            ParamSpec(
                "waiting_budget", "float", 1.0, help="RT-variant budget (seconds)"
            ),
            ParamSpec(
                "idle_budget", "float", 2.0, help="cost-variant budget (seconds)"
            ),
            ParamSpec(
                "planning_interval", "float", 5.0, help="RobustScaler Delta (seconds)"
            ),
            ParamSpec(
                "monte_carlo_samples",
                "int",
                1000,
                cli_flag="--mc-samples",
                help="Monte Carlo sample size R",
            ),
            ParamSpec("seed", "int", 0, help="generation and Monte Carlo seed"),
        ),
        run=_run_mc_accuracy,
        result_columns=(
            "variant",
            "metric",
            "target_level",
            "achieved_level",
            "n_queries",
        ),
        runtime=False,
        engine_aware=True,
    )
)

