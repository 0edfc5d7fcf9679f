"""Fig. 4 — Pareto comparison of autoscalers on the three traces.

For every trace the driver sweeps the trade-off parameter of each autoscaler
(pool size for BP, rate factor for AdapBP, target HP / RT / cost for the
three RobustScaler variants) and records ``hit_rate``, ``rt_avg`` and
``relative_cost`` for each point — exactly the data behind the six Pareto
plots of Fig. 4.

The experiment is registered as ``"pareto"`` in :mod:`repro.api`: the full
sweep is expressed as one :mod:`repro.runtime` task batch.  Each trace's
split, bin width and pending time come from its scenario-registry entry and
its sweep grids from :func:`repro.experiments.base.trace_defaults`, so it
runs against *any* registered workload scenario, not just the paper's three
traces.
"""

from __future__ import annotations

from ..api import ExperimentSpec, ParamSpec, register_experiment
from ..api.session import RunContext
from ..runtime import EvalTask, ScalerSpec, WorkloadSpec
from ..store.traces import get_or_build_trace
from ..workloads import get_scenario
from .base import robustscaler_spec, trace_defaults

__all__: list[str] = []


def _resolve_grids(
    trace_key: str,
    params: dict,
    *,
    mu_tau: float,
    mean_test_qps: float,
) -> dict:
    """Concrete sweep grids for one trace (param overrides, else defaults)."""
    defaults = trace_defaults(trace_key)
    rt_budgets = params["rt_budgets"]
    if rt_budgets is None:
        # Waiting-time budgets spanning "almost always wait the full pending
        # time" down to "almost never wait".
        rt_budgets = [mu_tau * f for f in (0.75, 0.5, 0.25, 0.1, 0.02)]
    cost_budgets = params["cost_budgets"]
    if cost_budgets is None:
        mean_gap = 1.0 / max(mean_test_qps, 1e-9)
        cost_budgets = [mean_gap * f for f in (0.05, 0.25)]
    return {
        "pool_sizes": list(params["pool_sizes"] or defaults["pool_sizes"]),
        "adaptive_factors": list(
            params["adaptive_factors"] or defaults["adaptive_factors"]
        ),
        "hp_targets": list(params["hp_targets"] or defaults["hp_targets"]),
        "rt_budgets": sorted(rt_budgets, reverse=True),
        "cost_budgets": sorted(cost_budgets),
    }


def _scaler_specs(grids: dict, params: dict) -> list[ScalerSpec]:
    """The per-trace sweep as declarative scaler specs (baselines first)."""
    specs = [ScalerSpec("bp", int(size)) for size in grids["pool_sizes"]]
    specs += [ScalerSpec("adapbp", float(f)) for f in grids["adaptive_factors"]]
    specs += [robustscaler_spec(params, "rs-hp", t) for t in grids["hp_targets"]]
    if params["include_rt_variant"]:
        specs += [robustscaler_spec(params, "rs-rt", b) for b in grids["rt_budgets"]]
    if params["include_cost_variant"]:
        specs += [
            robustscaler_spec(params, "rs-cost", b) for b in grids["cost_budgets"]
        ]
    return specs


def _run_pareto(params: dict, ctx: RunContext) -> list[dict]:
    """Run the Fig. 4 sweeps on every configured trace and return all rows."""
    tasks: list[EvalTask] = []
    for name in params["trace_names"]:
        scenario = get_scenario(name)
        # The budget grids need the test window's mean QPS; generating the
        # trace here is cheap (no model fit) and bit-identical to what the
        # executor regenerates from the same (scenario, scale, seed).  With
        # a store the realization is cached on disk instead.
        trace = get_or_build_trace(
            scenario, scale=params["scale"], seed=params["seed"], store=ctx.store
        )
        _, test = trace.split(scenario.train_fraction)
        grids = _resolve_grids(
            name, params, mu_tau=scenario.pending_time, mean_test_qps=test.mean_qps
        )
        workload = WorkloadSpec(
            scenario=name,
            scale=params["scale"],
            seed=params["seed"],
        )
        tasks += [
            EvalTask(workload, spec, extra=(("trace", name),))
            for spec in _scaler_specs(grids, params)
        ]
    return ctx.run_rows(tasks, base_seed=params["seed"])


register_experiment(
    ExperimentSpec(
        name="pareto",
        title="cost/QoS Pareto sweep of every autoscaler on the paper traces",
        artifact="Fig. 4",
        params=(
            ParamSpec(
                "trace_names",
                "str",
                ("crs", "google", "alibaba"),
                sequence=True,
                cli_flag="--trace",
                help="trace / workload scenario to sweep",
            ),
            ParamSpec("scale", "float", 0.25, help="trace size factor (1.0 ~ paper)"),
            ParamSpec("seed", "int", 7, help="trace-generation and Monte Carlo seed"),
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
                None,
                sequence=True,
                cli_flag="--hp-target",
                help="RobustScaler-HP targets",
            ),
            ParamSpec(
                "rt_budgets",
                "float",
                None,
                sequence=True,
                cli_flag="--rt-budget",
                help="RobustScaler-RT waiting budgets (seconds)",
            ),
            ParamSpec(
                "cost_budgets",
                "float",
                None,
                sequence=True,
                cli_flag="--cost-budget",
                help="RobustScaler-cost idle budgets (seconds)",
            ),
            ParamSpec(
                "include_rt_variant",
                "bool",
                True,
                cli_flag="--rt-variant",
                help="sweep the RT-constrained RobustScaler",
            ),
            ParamSpec(
                "include_cost_variant",
                "bool",
                True,
                cli_flag="--cost-variant",
                help="sweep the cost-constrained RobustScaler",
            ),
            ParamSpec(
                "pool_sizes",
                "int",
                None,
                sequence=True,
                cli_flag="--pool-size",
                help="Backup Pool sizes",
            ),
            ParamSpec(
                "adaptive_factors",
                "float",
                None,
                sequence=True,
                cli_flag="--adaptive-factor",
                help="Adaptive Backup Pool rate factors",
            ),
        ),
        run=_run_pareto,
        result_columns=(
            "trace",
            "scaler",
            "pool_size",
            "rate_factor",
            "target_hp",
            "waiting_budget",
            "idle_budget",
            "n_queries",
            "hit_rate",
            "rt_avg",
            "relative_cost",
        ),
        scenario_param="trace_names",
    )
)
