"""Ablation benchmarks for three design choices in the paper's method (see
:mod:`repro.experiments.ablation` for what each one isolates):

* kappa look-ahead on/off in the sequential scaling scheme;
* Monte Carlo sample size versus decision accuracy and latency;
* sensitivity of the intensity error to the regularization weights.
"""

from __future__ import annotations

from repro.api import Session

from conftest import print_artifact


def test_ablation_kappa_lookahead(run_once):
    rows = run_once(
        Session(store=None).run,
        "kappa-ablation",
        horizon_seconds=2 * 3600.0,
        monte_carlo_samples=800,
    ).rows
    print_artifact("Ablation — kappa look-ahead (Algorithm 4, eq. 8)", rows)
    with_kappa = next(r for r in rows if "with kappa" in r["variant"])
    without = next(r for r in rows if "no look-ahead" in r["variant"])
    # The look-ahead is what delivers the target hitting probability.
    assert with_kappa["hit_rate"] > without["hit_rate"] + 0.3
    assert with_kappa["hit_rate"] > 0.8


def test_ablation_monte_carlo_samples(run_once):
    rows = run_once(
        Session(store=None).run,
        "mc-sample-ablation",
        sample_sizes=(50, 200, 1000, 5000),
        n_trials=20,
    ).rows
    print_artifact("Ablation — Monte Carlo sample size", rows)
    by_n = {row["n_samples"]: row for row in rows}
    assert by_n[5000]["mean_abs_error"] < by_n[50]["mean_abs_error"]
    # Even the largest sample size solves one decision in well under a second.
    assert by_n[5000]["solve_time_ms"] < 1000.0


def test_ablation_regularization_sensitivity(run_once):
    params = {
        "period_seconds": 3600.0,
        "n_periods": 6,
        "beta_smooth_values": (0.0, 10.0, 50.0),
        "beta_period_values": (0.0, 10.0),
        "max_iterations": 150,
    }
    rows = run_once(
        Session(store=None).run, "regularization-sensitivity", **params
    ).rows
    print_artifact("Ablation — beta_1 / beta_2 sensitivity", rows)
    unregularized = next(
        r for r in rows if r["beta_smooth"] == 0.0 and r["beta_period"] == 0.0
    )
    best = min(rows, key=lambda r: r["mse"])
    assert best["mse"] < unregularized["mse"]
    # The best setting uses at least one of the two penalties.
    assert best["beta_smooth"] > 0.0 or best["beta_period"] > 0.0
