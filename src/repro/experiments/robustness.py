"""Fig. 9 and Table II — robustness against missing data and anomalies.

Two modifications are studied, matching Section VII-B3:

* **missing data** (CRS trace) — all queries of one entire day are removed
  from the training window and the experiments are re-run;
* **anomaly removal** (Alibaba trace) — the unexpected burst is erased with
  the robust-thinning utility and the experiments are re-run.

For each modification the driver evaluates RobustScaler-HP and
RobustScaler-cost on the original and the modified trace, reporting hit rate,
average response time, relative cost, and the high-level response-time
quantiles of Table II.  A robust autoscaler produces near-identical numbers
with and without the modification.

Registered as ``"robustness"`` in :mod:`repro.api`: the comparison is one
:mod:`repro.runtime` task batch where each (condition, trace) pair ships as
a :class:`~repro.runtime.WorkloadSpec` replacing the scenario's generated
trace (prepared with the scenario's own settings), so every workload is
fitted once (and, with a store attached, persisted across CLI invocations),
the candidate evaluations parallelize with ``workers`` / ``REPRO_WORKERS``,
and ``run_id`` journaling makes interrupted runs resumable.
"""

from __future__ import annotations

from ..api import (
    ExperimentSpec,
    ParamSpec,
    register_experiment,
)
from ..api.session import RunContext
from ..runtime import EvalTask, WorkloadSpec
from ..traces.perturbation import inject_missing_window, remove_anomalous_bursts
from ..types import ArrivalTrace
from ..workloads import get_scenario
from ..workloads.scenarios import Scenario
from .base import robustscaler_spec

__all__: list[str] = []

_DAY = 86_400.0


def _run_robustness(params: dict, ctx: RunContext) -> list[dict]:
    """Evaluate RobustScaler variants before/after trace modifications."""
    tasks: list[EvalTask] = []
    if params["include_crs"]:
        tasks.extend(_missing_data_tasks(params, ctx))
    if params["include_alibaba"]:
        tasks.extend(_anomaly_removal_tasks(params, ctx))
    return ctx.run_rows(tasks, base_seed=params["seed"])


def _missing_data_tasks(params: dict, ctx: RunContext) -> list[EvalTask]:
    """CRS trace with one full training day of queries removed."""
    scenario = get_scenario("crs")
    trace = scenario.build_trace(scale=params["scale"], seed=params["seed"])
    # Remove the last full day of the training window; the training window is
    # the first `train_fraction` of the horizon.
    train_end = trace.horizon * scenario.train_fraction
    missing_start = max(0.0, train_end - _DAY)
    modified = inject_missing_window(trace, missing_start, _DAY)
    return _comparison_tasks(scenario, trace, modified, "missing_data", params, ctx)


def _anomaly_removal_tasks(params: dict, ctx: RunContext) -> list[EvalTask]:
    """Alibaba trace with the unexpected burst thinned away."""
    scenario = get_scenario("alibaba")
    trace = scenario.build_trace(scale=params["scale"], seed=params["seed"])
    modified = remove_anomalous_bursts(trace, random_state=params["seed"])
    return _comparison_tasks(
        scenario, trace, modified, "anomaly_removed", params, ctx
    )


def _comparison_tasks(
    scenario: Scenario,
    original: ArrivalTrace,
    modified: ArrivalTrace,
    modification: str,
    params: dict,
    ctx: RunContext,
) -> list[EvalTask]:
    """The RobustScaler-HP / RobustScaler-cost candidates on both conditions."""
    tasks: list[EvalTask] = []
    for label, trace in (("original", original), (modification, modified)):
        workload = WorkloadSpec(scenario.name, trace=trace)
        _, test = trace.split(scenario.train_fraction)
        mean_gap = 1.0 / max(test.mean_qps, 1e-9)
        extra = (("trace", scenario.name), ("condition", label))
        specs = [robustscaler_spec(params, "rs-hp", t) for t in params["hp_targets"]]
        specs += [
            robustscaler_spec(params, "rs-cost", mean_gap * fraction)
            for fraction in params["cost_budget_fractions"]
        ]
        tasks += [EvalTask(workload, spec, extra=extra) for spec in specs]
    return tasks


register_experiment(
    ExperimentSpec(
        name="robustness",
        title="RobustScaler stability under missing data and anomaly removal",
        artifact="Fig. 9 / Table II",
        params=(
            ParamSpec("scale", "float", 0.25, help="trace size factor"),
            ParamSpec("seed", "int", 7, help="trace-generation and Monte Carlo seed"),
            ParamSpec(
                "hp_targets",
                "float",
                (0.5, 0.9),
                sequence=True,
                cli_flag="--hp-target",
                help="RobustScaler-HP targets",
            ),
            ParamSpec(
                "cost_budget_fractions",
                "float",
                (0.05, 0.2),
                sequence=True,
                cli_flag="--cost-budget-fraction",
                help="idle budgets as fractions of the mean inter-arrival gap",
            ),
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
                "include_alibaba",
                "bool",
                True,
                cli_flag="--alibaba",
                help="run the Alibaba anomaly-removal comparison",
            ),
            ParamSpec(
                "include_crs",
                "bool",
                True,
                cli_flag="--crs",
                help="run the CRS missing-data comparison",
            ),
        ),
        run=_run_robustness,
        result_columns=(
            "trace",
            "condition",
            "scaler",
            "target_hp",
            "idle_budget",
            "hit_rate",
            "rt_avg",
            "relative_cost",
            "rt_p95",
        ),
    )
)

