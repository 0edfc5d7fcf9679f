"""Table III — impact of the periodicity regularization on intensity error.

Arrival counts are sampled from a known beta-bump intensity; the regularized
NHPP (eq. 1) is fitted once with and once without the periodicity penalty,
and the MSE/MAE of the fitted intensity against the ground truth is reported
together with the relative improvement.  :func:`regularized_fit_errors` is
the one sample-fit-score step, shared with the ``regularization-sensitivity``
ablation grid.

Registered as ``"table3"`` in :mod:`repro.api` (a pure fitting study — no
replay, no engine, no runtime executor).
"""

from __future__ import annotations

import numpy as np

from ..api import (
    ExperimentSpec,
    ParamSpec,
    register_experiment,
)
from ..api.session import RunContext
from ..config import ADMMConfig
from ..metrics.errors import mean_absolute_error, mean_squared_error
from ..nhpp.admm import fit_log_intensity
from ..nhpp.objective import RegularizedNHPPObjective
from ..nhpp.sampling import sample_counts
from ..traces.synthetic import periodic_bump_intensity

__all__ = ["regularized_fit_errors"]


def regularized_fit_errors(
    *,
    beta_smooth: float,
    beta_period: float,
    period_seconds: float,
    n_periods: int,
    bin_seconds: float,
    peak_qps: float,
    base_qps: float,
    exponent: float,
    seed: int,
    max_iterations: int,
) -> dict:
    """Fit eq. (1) to counts sampled from a beta bump and score it against the truth.

    The truth is ``peak_qps * 4^e u^e (1 - u)^e + base_qps`` (``u`` the
    phase within one period) over ``n_periods`` periods; counts per
    ``bin_seconds`` bin are sampled with ``seed``.  The periodicity penalty
    uses the true period and is off when ``beta_period`` is 0.  Returns the
    ``mse`` and ``mae`` of the fitted intensity and the ADMM iteration count
    (``admm_iterations``).
    """
    horizon = period_seconds * n_periods
    truth = periodic_bump_intensity(
        peak=peak_qps,
        period_seconds=period_seconds,
        exponent=exponent,
        base=base_qps,
        horizon_seconds=horizon,
        bin_seconds=bin_seconds,
    )
    objective = RegularizedNHPPObjective(
        counts=sample_counts(truth, horizon, seed),
        bin_seconds=bin_seconds,
        beta_smooth=float(beta_smooth),
        beta_period=float(beta_period),
        period_bins=int(round(period_seconds / bin_seconds)),
    )
    result = fit_log_intensity(objective, ADMMConfig(max_iterations=max_iterations))
    estimate = np.exp(result.log_intensity)
    return {
        "mse": mean_squared_error(estimate, truth.values),
        "mae": mean_absolute_error(estimate, truth.values),
        "admm_iterations": result.n_iterations,
    }


def _run_regularization(params: dict, ctx: RunContext) -> list[dict]:
    """Fit the NHPP with and without the periodicity penalty and compare errors.

    The paper's truth is a daily bump ``4^10 u^10 (1 - u)^10 + 0.1``
    observed over one week (``period_seconds=86400``, ``n_periods=7``); the
    default period here is four hours.
    """
    # The experiment's parameters are exactly the fit's keywords.
    rows = [
        {"model": label, **regularized_fit_errors(**{**params, "beta_period": beta_period})}
        for label, beta_period in (
            ("NHPP w/o periodicity reg.", 0.0),
            ("NHPP w/ periodicity reg.", params["beta_period"]),
        )
    ]
    without, with_reg = rows
    rows.append(
        {
            "model": "improvement",
            "mse": _relative_improvement(without["mse"], with_reg["mse"]),
            "mae": _relative_improvement(without["mae"], with_reg["mae"]),
            "admm_iterations": None,
        }
    )
    return rows


def _relative_improvement(baseline: float, improved: float) -> float:
    """Fractional reduction of an error metric (positive means better)."""
    if baseline <= 0:
        return 0.0
    return (baseline - improved) / baseline


register_experiment(
    ExperimentSpec(
        name="table3",
        title="periodicity regularization's effect on intensity error",
        artifact="Table III",
        params=(
            ParamSpec(
                "period_seconds", "float", 14_400.0, help="true period (seconds)"
            ),
            ParamSpec("n_periods", "int", 7, help="observed cycles"),
            ParamSpec("bin_seconds", "float", 60.0, help="fitting bin width"),
            ParamSpec("peak_qps", "float", 1.0, help="intensity peak (QPS)"),
            ParamSpec("base_qps", "float", 0.1, help="intensity base (QPS)"),
            ParamSpec("exponent", "float", 10.0, help="bump sharpness exponent"),
            ParamSpec(
                "beta_smooth", "float", 50.0, help="smoothness weight beta_1"
            ),
            ParamSpec(
                "beta_period", "float", 10.0, help="periodicity weight beta_2"
            ),
            ParamSpec("seed", "int", 0, help="count-sampling seed"),
            ParamSpec("max_iterations", "int", 300, help="ADMM iteration cap"),
        ),
        run=_run_regularization,
        result_columns=("model", "mse", "mae", "admm_iterations"),
        runtime=False,
        engine_aware=False,
    )
)

