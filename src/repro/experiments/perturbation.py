"""Figs. 6 and 7 — AdapBP vs RobustScaler-HP under growing data perturbations.

The base trace is perturbed with the paper's protocol (hourly five-minute
deletions plus ``c`` extra copies of the queries in a shifted five-minute
window), the workload model is re-fitted on the perturbed training data, and
both AdapBP and RobustScaler-HP are swept over their trade-off parameter on
the perturbed test data.  The paper's observation is that AdapBP degrades as
``c`` grows while RobustScaler's frontier barely moves.

Registered as ``"perturbation"`` in :mod:`repro.api`.  Each perturbed trace
is shipped to the :mod:`repro.runtime` executor as a direct-trace workload
spec, so the model re-fit happens once per perturbation size (workload
cache) and the sweep points parallelize with ``workers`` /
``REPRO_WORKERS``.
"""

from __future__ import annotations

from ..api import (
    ExperimentSpec,
    ParamSpec,
    register_experiment,
)
from ..api.session import RunContext
from ..runtime import EvalTask, PrepSpec, ScalerSpec, WorkloadSpec
from ..store.traces import get_or_build_trace
from ..traces.perturbation import perturb_trace
from ..workloads import get_scenario

__all__: list[str] = []


def _run_perturbation(params: dict, ctx: RunContext) -> list[dict]:
    """Compare AdapBP and RobustScaler-HP on increasingly perturbed traces."""
    scenario = get_scenario(params["trace_name"])
    base_trace = get_or_build_trace(
        scenario, scale=params["scale"], seed=params["seed"], store=ctx.store
    )
    # Perturbed copies are direct traces, so the scenario's split and bin
    # width are passed on explicitly; the pending time stays the library
    # default.
    prep = PrepSpec(
        train_fraction=scenario.train_fraction,
        bin_seconds=scenario.bin_seconds,
    )

    tasks: list[EvalTask] = []
    for c in params["perturbation_sizes"]:
        perturbed = perturb_trace(base_trace, float(c), random_state=params["seed"])
        workload = WorkloadSpec(trace=perturbed, prep=prep)
        extra = (
            ("trace", params["trace_name"]),
            ("perturbation_size", float(c)),
        )
        specs = [ScalerSpec("adapbp", float(f)) for f in params["adaptive_factors"]]
        specs += [
            ScalerSpec(
                "rs-hp",
                float(target),
                planning_interval=params["planning_interval"],
                monte_carlo_samples=params["monte_carlo_samples"],
            )
            for target in params["hp_targets"]
        ]
        tasks += [EvalTask(workload, spec, extra=extra) for spec in specs]
    return ctx.run_rows(tasks, base_seed=params["seed"])


register_experiment(
    ExperimentSpec(
        name="perturbation",
        title="AdapBP vs RobustScaler-HP under growing data perturbations",
        artifact="Figs. 6-7",
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
            ParamSpec(
                "perturbation_sizes",
                "float",
                (1.0, 2.0, 4.0, 6.0),
                sequence=True,
                cli_flag="--perturbation-size",
                help="extra-copy multipliers c of the perturbation protocol",
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
                "adaptive_factors",
                "float",
                (25.0, 50.0, 100.0),
                sequence=True,
                cli_flag="--adaptive-factor",
                help="Adaptive Backup Pool rate factors",
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
        ),
        run=_run_perturbation,
        result_columns=(
            "trace",
            "scaler",
            "perturbation_size",
            "rate_factor",
            "target_hp",
            "hit_rate",
            "rt_avg",
            "relative_cost",
        ),
        scenario_param="trace_name",
    )
)

