"""Fig. 9 and Table II — robustness against missing data and anomalies.

Re-runs RobustScaler-HP and RobustScaler-cost on the CRS trace with a full
day of training data removed and on the Alibaba trace with the unexpected
burst erased, then compares QoS/cost and the high-level response-time
quantiles against the unmodified runs.  The paper reports near-identical
numbers before and after the modifications.
"""

from __future__ import annotations

import pytest

from repro.api import Session

from conftest import print_artifact

_COLUMNS = [
    "trace",
    "condition",
    "scaler",
    "hit_rate",
    "rt_avg",
    "relative_cost",
    "rt_p95",
    "rt_p99",
]


def test_fig9_table2_robustness(run_once):
    params = {
        "scale": 0.15,
        "seed": 7,
        "hp_targets": (0.9,),
        "cost_budget_fractions": (0.1,),
        "planning_interval": 10.0,
        "monte_carlo_samples": 200,
    }
    rows = run_once(Session(store=None).run, "robustness", **params).rows
    print_artifact(
        "Figure 9 / Table II — robustness to missing data and anomaly removal",
        rows,
        _COLUMNS,
    )

    def pair(trace: str, scaler_fragment: str) -> tuple[dict, dict]:
        subset = [r for r in rows if r["trace"] == trace and scaler_fragment in r["scaler"]]
        original = next(r for r in subset if r["condition"] == "original")
        modified = next(r for r in subset if r["condition"] != "original")
        return original, modified

    for trace in ("crs", "alibaba"):
        for fragment in ("RobustScaler-HP", "RobustScaler-COST"):
            original, modified = pair(trace, fragment)
            # Metrics barely move under the modification (Fig. 9 / Table II).
            assert modified["hit_rate"] == pytest.approx(original["hit_rate"], abs=0.15)
            assert modified["rt_avg"] == pytest.approx(original["rt_avg"], rel=0.15)
            assert modified["rt_p95"] == pytest.approx(original["rt_p95"], rel=0.25)
