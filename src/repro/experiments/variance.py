"""Fig. 5 — variability of the delivered QoS on the CRS trace.

For each autoscaler and each setting of its trade-off parameter, the queries
are ordered by arrival time, their per-query QoS is averaged over blocks of
50 consecutive queries, and the variance of those block means is reported
against the overall mean — the construction of Fig. 5(a) (hit rate) and
Fig. 5(b) (response time).

The overall means are the summary's ``hit_rate`` and ``rt_avg`` columns and
the variances its ``hit_rate_window_variance`` and ``rt_window_variance``
columns, computed over blocks of ``window`` queries.

Registered as ``"variance"`` in :mod:`repro.api`; the sweep is a
:mod:`repro.runtime` task batch whose tasks set the block length
(``variance_window``), so the single prepared workload is shared across
every candidate and the replays parallelize with ``workers`` /
``REPRO_WORKERS``.
"""

from __future__ import annotations

from ..api import (
    ExperimentSpec,
    ParamSpec,
    register_experiment,
)
from ..api.session import RunContext
from ..runtime import EvalTask, ScalerSpec, WorkloadSpec
from ..workloads import get_scenario
from .base import robustscaler_spec

__all__: list[str] = []


def _run_variance(params: dict, ctx: RunContext) -> list[dict]:
    """Measure windowed QoS variance for each autoscaler sweep (Fig. 5)."""
    scenario = get_scenario(params["trace_name"])
    trace = scenario.build_trace(scale=params["scale"], seed=params["seed"])
    _, test = trace.split(scenario.train_fraction)
    mean_gap = 1.0 / max(test.mean_qps, 1e-9)

    workload = WorkloadSpec(
        scenario=params["trace_name"],
        scale=params["scale"],
        seed=params["seed"],
    )

    def rs_spec(kind: str, target: float) -> ScalerSpec:
        return robustscaler_spec(params, kind, target, parameter_name="parameter")

    candidates: list[tuple[str, ScalerSpec]] = []
    for size in params["pool_sizes"]:
        candidates.append(
            ("BP", ScalerSpec("bp", int(size), parameter_name="parameter"))
        )
    for factor in params["adaptive_factors"]:
        candidates.append(
            ("AdapBP", ScalerSpec("adapbp", float(factor), parameter_name="parameter"))
        )
    for target in params["hp_targets"]:
        candidates.append(("RobustScaler-HP", rs_spec("rs-hp", target)))
    for fraction in params["cost_budget_fractions"]:
        candidates.append(
            ("RobustScaler-cost", rs_spec("rs-cost", mean_gap * fraction))
        )

    tasks = [
        EvalTask(
            workload,
            spec,
            extra=(("family", family),),
            variance_window=params["window"],
        )
        for family, spec in candidates
    ]
    return ctx.run_rows(tasks, base_seed=params["seed"])


register_experiment(
    ExperimentSpec(
        name="variance",
        title="windowed QoS variance of each autoscaler sweep",
        artifact="Fig. 5",
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
            ParamSpec("window", "int", 50, help="queries per QoS averaging block"),
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
                "hp_targets",
                "float",
                (0.3, 0.6, 0.9),
                sequence=True,
                cli_flag="--hp-target",
                help="RobustScaler-HP targets",
            ),
            ParamSpec(
                "cost_budget_fractions",
                "float",
                (0.02, 0.1, 0.3),
                sequence=True,
                cli_flag="--cost-budget-fraction",
                help="idle budgets as fractions of the mean inter-arrival gap",
            ),
            ParamSpec(
                "pool_sizes",
                "int",
                (1, 2, 4),
                sequence=True,
                cli_flag="--pool-size",
                help="Backup Pool sizes",
            ),
            ParamSpec(
                "adaptive_factors",
                "float",
                (25.0, 50.0, 100.0),
                sequence=True,
                cli_flag="--adaptive-factor",
                help="Adaptive Backup Pool rate factors",
            ),
        ),
        run=_run_variance,
        result_columns=(
            "trace",
            "scaler",
            "family",
            "parameter",
            "hit_rate",
            "hit_rate_window_variance",
            "rt_avg",
            "rt_window_variance",
        ),
    )
)

