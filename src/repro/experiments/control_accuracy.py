"""Fig. 10 — accuracy of QoS/cost control and the effect of planning frequency.

Three nominal-vs-actual sweeps (panels a-c) check that requesting a hitting
probability / waiting budget / idle-cost budget of ``x`` actually yields
``approximately x`` on the replayed trace, and one sweep over the planning
interval ``Delta`` (panel d) shows that less frequent planning costs more
resources for the same QoS target.

Registered as ``"control"`` and ``"planning-frequency"`` in
:mod:`repro.api`.  Both run as :mod:`repro.runtime` task batches over a
single shared workload spec: the trace is generated and the NHPP model
fitted once (and persisted when a store is attached), every panel point
parallelizes with ``workers`` / ``REPRO_WORKERS``, and ``run_id``
journaling makes interrupted runs resumable.  The "actual" columns come
from the executor's named extra metrics (``waiting_avg`` / ``idle_avg``).
"""

from __future__ import annotations

from ..api import (
    ExperimentSpec,
    ParamSpec,
    register_experiment,
)
from ..api.session import RunContext
from ..runtime import EvalTask, ScalerSpec, WorkloadSpec
from .base import robustscaler_spec

__all__: list[str] = []

#: Panel name -> row column holding the delivered ("actual") value.
_PANEL_ACTUALS = {
    "hit_probability": "hit_rate",
    "waiting_time": "waiting_avg",
    "idle_cost": "idle_avg",
}


def _workload_spec(params: dict, ctx: RunContext) -> WorkloadSpec:
    return WorkloadSpec(
        scenario=params["trace_name"],
        scale=params["scale"],
        seed=params["seed"],
    )


def _run_control_accuracy(params: dict, ctx: RunContext) -> list[dict]:
    """Nominal vs actual HP, waiting time, and idle cost (Fig. 10 a-c)."""
    workload = _workload_spec(params, ctx)

    def panel_task(panel: str, kind: str, nominal: float) -> EvalTask:
        return EvalTask(
            workload,
            robustscaler_spec(params, kind, nominal),
            extra=(("panel", panel), ("nominal", float(nominal))),
            metrics=("waiting_avg", "idle_avg"),
        )

    tasks = [panel_task("hit_probability", "rs-hp", t) for t in params["hp_targets"]]
    tasks += [
        panel_task("waiting_time", "rs-rt", b) for b in params["waiting_budgets"]
    ]
    tasks += [panel_task("idle_cost", "rs-cost", b) for b in params["idle_budgets"]]
    evaluated = ctx.run_rows(tasks, base_seed=params["seed"])
    return [
        {
            "trace": params["trace_name"],
            "panel": row["panel"],
            "nominal": row["nominal"],
            "actual": row[_PANEL_ACTUALS[row["panel"]]],
            "relative_cost": row["relative_cost"],
        }
        for row in evaluated
    ]


def _run_planning_frequency(params: dict, ctx: RunContext) -> list[dict]:
    """Cost of holding one waiting budget at different planning intervals."""
    workload = _workload_spec(params, ctx)
    tasks = [
        EvalTask(
            workload,
            ScalerSpec(
                "rs-rt",
                float(params["waiting_budget"]),
                planning_interval=float(interval),
                monte_carlo_samples=params["monte_carlo_samples"],
            ),
            extra=(("planning_interval", float(interval)),),
            metrics=("waiting_avg",),
        )
        for interval in params["planning_intervals"]
    ]
    evaluated = ctx.run_rows(tasks, base_seed=params["seed"])
    return [
        {
            "trace": params["trace_name"],
            "planning_interval": row["planning_interval"],
            "waiting_budget": float(params["waiting_budget"]),
            "actual_waiting": row["waiting_avg"],
            "rt_avg": row["rt_avg"],
            "relative_cost": row["relative_cost"],
        }
        for row in evaluated
    ]


_SHARED_PARAMS = (
    ParamSpec(
        "trace_name", "str", "crs", cli_flag="--trace", help="trace / workload scenario"
    ),
    ParamSpec("scale", "float", 0.25, help="trace size factor"),
    ParamSpec("seed", "int", 7, help="trace-generation and Monte Carlo seed"),
    ParamSpec(
        "monte_carlo_samples",
        "int",
        400,
        cli_flag="--mc-samples",
        help="Monte Carlo sample size R",
    ),
)

register_experiment(
    ExperimentSpec(
        name="control",
        title="nominal vs actual QoS/cost control accuracy",
        artifact="Fig. 10 a-c",
        params=_SHARED_PARAMS
        + (
            ParamSpec(
                "hp_targets",
                "float",
                (0.2, 0.4, 0.6, 0.8, 0.95),
                sequence=True,
                cli_flag="--hp-target",
                help="nominal hit probabilities",
            ),
            ParamSpec(
                "waiting_budgets",
                "float",
                (1.0, 3.0, 6.0, 10.0, 13.0),
                sequence=True,
                cli_flag="--waiting-budget",
                help="nominal waiting budgets (seconds)",
            ),
            ParamSpec(
                "idle_budgets",
                "float",
                (2.0, 5.0, 10.0, 20.0, 40.0),
                sequence=True,
                cli_flag="--idle-budget",
                help="nominal idle budgets (seconds)",
            ),
            ParamSpec(
                "planning_interval", "float", 2.0, help="RobustScaler Delta (seconds)"
            ),
        ),
        run=_run_control_accuracy,
        result_columns=("trace", "panel", "nominal", "actual", "relative_cost"),
    )
)

register_experiment(
    ExperimentSpec(
        name="planning-frequency",
        title="cost of one waiting budget across planning intervals",
        artifact="Fig. 10 d",
        params=_SHARED_PARAMS
        + (
            ParamSpec(
                "planning_intervals",
                "float",
                (1.0, 5.0, 15.0, 30.0, 60.0),
                sequence=True,
                cli_flag="--planning-interval",
                help="planning intervals Delta to compare (seconds)",
            ),
            ParamSpec(
                "waiting_budget",
                "float",
                3.0,
                help="the waiting budget to hold (seconds)",
            ),
        ),
        run=_run_planning_frequency,
        result_columns=(
            "trace",
            "planning_interval",
            "waiting_budget",
            "actual_waiting",
            "rt_avg",
            "relative_cost",
        ),
    )
)


