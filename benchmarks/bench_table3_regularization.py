"""Table III — impact of the periodicity regularization on intensity error.

Fits the NHPP with and without the periodicity penalty on arrivals generated
from the paper's daily-bump intensity and reports MSE/MAE of the fitted
intensity against the ground truth plus the relative improvement (the paper
reports 56% MSE / 39% MAE improvements).
"""

from __future__ import annotations

from repro.api import Session

from conftest import print_artifact


def test_table3_periodicity_regularization(run_once):
    params = {
        "period_seconds": 14_400.0,
        "n_periods": 7,
        "bin_seconds": 60.0,
        "peak_qps": 1.0,
        "base_qps": 0.1,
        "max_iterations": 300,
    }
    rows = run_once(Session(store=None).run, "table3", **params).rows
    print_artifact("Table III — NHPP intensity error with/without periodicity reg.", rows)

    without = next(r for r in rows if "w/o" in r["model"])
    with_reg = next(r for r in rows if "w/ " in r["model"])
    improvement = next(r for r in rows if r["model"] == "improvement")
    # Same direction as the paper: the periodicity penalty reduces both errors
    # by a substantial margin.
    assert with_reg["mse"] < without["mse"]
    assert with_reg["mae"] < without["mae"]
    assert improvement["mse"] > 0.15
    assert improvement["mae"] > 0.1
