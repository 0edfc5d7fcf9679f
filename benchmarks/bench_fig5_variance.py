"""Fig. 5 — variance of the delivered QoS on the CRS trace.

Reproduces the windowed-variance construction (blocks of 50 queries) for the
baselines and the RobustScaler variants.  The paper's observation is that the
HP-constrained RobustScaler delivers a much stabler QoS (lower variance at
the same mean) than the Adaptive Backup Pool heuristic.
"""

from __future__ import annotations

import numpy as np

from repro.api import Session

from conftest import print_artifact

_COLUMNS = [
    "family",
    "parameter",
    "hit_rate",
    "hit_rate_window_variance",
    "rt_avg",
    "rt_window_variance",
    "relative_cost",
]


def test_fig5_qos_variance(run_once):
    params = {
        "scale": 0.15,
        "seed": 7,
        "planning_interval": 10.0,
        "monte_carlo_samples": 200,
        "hp_targets": (0.5, 0.9),
        "cost_budget_fractions": (0.05, 0.2),
        "pool_sizes": (1, 2),
        "adaptive_factors": (25.0, 50.0),
    }
    rows = run_once(Session(store=None).run, "variance", **params).rows
    print_artifact("Figure 5 — windowed QoS variance on the CRS trace", rows, _COLUMNS)

    def mean_variance(family: str, key: str) -> float:
        values = [row[key] for row in rows if row["family"] == family]
        return float(np.mean(values)) if values else float("nan")

    # RobustScaler-HP should not be wildly less stable than AdapBP; the paper
    # reports it as the stabler of the two.
    rs_var = mean_variance("RobustScaler-HP", "rt_window_variance")
    adap_var = mean_variance("AdapBP", "rt_window_variance")
    assert np.isfinite(rs_var) and np.isfinite(adap_var)
    assert rs_var <= adap_var * 3.0
