"""Table IV — RobustScaler-HP in the simulated vs the "real" environment.

The paper deploys RobustScaler-HP (target hitting probability 0.9) against an
Alibaba Serverless Kubernetes cluster and finds that the achieved hitting
probability, response time and cost are close to the values obtained in the
idealized simulation where decisions are computed instantaneously.  We
reproduce the comparison by replaying the same trace twice:

* **simulated** — the default simulator (decisions are free and instantaneous);
* **real** — the :func:`real_environment_config` simulator, which charges
  the planner's wall-clock latency against the plan (a decision "create a
  pod 5 seconds from now" that takes 6 seconds to compute is late) and adds
  control-plane scheduling latency before each pod's pending period plus
  pod startup jitter.

Registered as ``"table4"`` in :mod:`repro.api`.  The "real" rows charge
*measured* planner wall-clock time, so unlike every other experiment they
are intentionally not bit-reproducible.
"""

from __future__ import annotations

from dataclasses import replace

from ..api import (
    ExperimentSpec,
    ParamSpec,
    register_experiment,
)
from ..api.session import RunContext
from ..config import SimulationConfig
from ..runtime import prepare_workload
from ..scaling.backup_pool import ReactiveScaler
from ..simulation.runner import replay
from ..workloads import get_scenario
from .base import make_trace, robustscaler_spec

__all__ = ["real_environment_config"]


def real_environment_config(
    base: SimulationConfig | None = None,
    *,
    scheduling_latency: float = 1.0,
    pending_time_jitter: float = 2.0,
) -> SimulationConfig:
    """Derive a "real environment" simulator configuration from ``base``.

    Parameters
    ----------
    base:
        The simulated-environment configuration to start from.
    scheduling_latency:
        Control-plane latency (seconds) added before each pod's pending
        period.
    pending_time_jitter:
        Half-width of the uniform jitter applied to pod startup times,
        reflecting the variability observed on a real cluster; clamped to
        the base pending time.
    """
    base = base or SimulationConfig()
    jitter = min(pending_time_jitter, base.pending_time)
    return replace(
        base,
        charge_decision_latency=True,
        scheduling_latency=scheduling_latency,
        pending_time_jitter=jitter,
    )


def _run_realenv(params: dict, ctx: RunContext) -> list[dict]:
    """Replay RobustScaler-HP in the simulated and the real environment."""
    scenario = get_scenario(params["trace_name"])
    trace = make_trace(
        params["trace_name"], scale=params["scale"], seed=params["seed"]
    )
    scaler_spec = robustscaler_spec(params, "rs-hp", params["target_hp"])

    # One fit serves both environments; only the reactive reference replay,
    # the relative-cost denominator, depends on the simulator configuration.
    simulated = prepare_workload(
        trace,
        train_fraction=scenario.train_fraction,
        bin_seconds=scenario.bin_seconds,
        pending_time=13.0,
        engine=ctx.engine,
    )
    real_config = real_environment_config(
        simulated.simulation,
        scheduling_latency=params["scheduling_latency"],
        pending_time_jitter=params["pending_time_jitter"],
    )
    real = replace(
        simulated,
        simulation=real_config,
        reference_cost=replay(simulated.test, ReactiveScaler(), real_config).total_cost,
    )
    rows: list[dict] = []
    for label, workload in (("simulated", simulated), ("real", real)):
        scaler = scaler_spec.build(workload, random_state=0)
        result = workload.replay(scaler)
        rows.append(
            {
                "environment": label,
                "target_hp": float(params["target_hp"]),
                "hit_rate": result.hit_rate,
                "rt_avg": result.mean_response_time,
                "cost_per_query": result.total_cost / max(result.n_queries, 1),
                "relative_cost": result.total_cost / workload.reference_cost,
                "mean_planning_ms": 1000.0
                * (float(result.planning_times.sum()) / max(result.planning_times.size, 1)),
            }
        )
    return rows


register_experiment(
    ExperimentSpec(
        name="table4",
        title="RobustScaler-HP in the simulated vs the real environment",
        artifact="Table IV",
        params=(
            ParamSpec(
                "trace_name",
                "str",
                "crs",
                cli_flag="--trace",
                help="trace / workload scenario",
            ),
            ParamSpec("scale", "float", 0.25, help="trace size factor"),
            ParamSpec("seed", "int", 7, help="trace-generation and Monte Carlo seed"),
            ParamSpec("target_hp", "float", 0.9, help="HP target"),
            ParamSpec(
                "planning_interval", "float", 2.0, help="RobustScaler Delta (seconds)"
            ),
            ParamSpec(
                "monte_carlo_samples",
                "int",
                400,
                cli_flag="--mc-samples",
                help="Monte Carlo sample size R",
            ),
            ParamSpec(
                "scheduling_latency",
                "float",
                1.0,
                help="control-plane round trip (seconds)",
            ),
            ParamSpec(
                "pending_time_jitter",
                "float",
                2.0,
                help="pod startup jitter half-width (seconds)",
            ),
        ),
        run=_run_realenv,
        result_columns=(
            "environment",
            "target_hp",
            "hit_rate",
            "rt_avg",
            "cost_per_query",
            "relative_cost",
            "mean_planning_ms",
        ),
        runtime=False,
        engine_aware=True,
        scenario_param="trace_name",
    )
)

