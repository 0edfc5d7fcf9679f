"""Table IV — RobustScaler-HP in the simulated versus the "real" environment.

Replays the CRS trace with RobustScaler-HP (target 0.9) under the idealized
simulator and under the real-environment simulator that charges decision
latency, control-plane scheduling latency and pod-startup jitter.  The paper
reports that hit probability, response time and cost barely change between
the two environments.
"""

from __future__ import annotations

import pytest

from repro.api import Session

from conftest import print_artifact

_COLUMNS = [
    "environment",
    "target_hp",
    "hit_rate",
    "rt_avg",
    "cost_per_query",
    "mean_planning_ms",
]


def test_table4_simulated_vs_real_environment(run_once):
    params = {
        "scale": 0.15,
        "seed": 7,
        "target_hp": 0.9,
        "planning_interval": 10.0,
        "monte_carlo_samples": 200,
        "scheduling_latency": 1.0,
        "pending_time_jitter": 2.0,
    }
    rows = run_once(Session(store=None).run, "table4", **params).rows
    print_artifact("Table IV — simulated vs real environment", rows, _COLUMNS)

    simulated = next(r for r in rows if r["environment"] == "simulated")
    real = next(r for r in rows if r["environment"] == "real")
    # The real environment should deliver nearly the same QoS and cost.
    assert real["hit_rate"] == pytest.approx(simulated["hit_rate"], abs=0.1)
    assert real["rt_avg"] == pytest.approx(simulated["rt_avg"], rel=0.1)
    assert real["cost_per_query"] == pytest.approx(simulated["cost_per_query"], rel=0.2)
