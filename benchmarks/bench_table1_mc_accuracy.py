"""Table I — accuracy of the Monte Carlo approximated decisions.

Replays a synthetic bursty trace (the paper uses an hourly bump peaking at
1000 QPS; the benchmark uses a scaled-down peak so the pure-Python replay
finishes quickly) with the three RobustScaler variants and compares the
achieved QoS/cost level with the requested target.
"""

from __future__ import annotations

import pytest

from repro.api import Session

from conftest import print_artifact

_COLUMNS = ["variant", "metric", "target_level", "achieved_level", "n_queries"]


def test_table1_monte_carlo_accuracy(run_once):
    params = {
        "peak_qps": 10.0,
        "period_seconds": 1800.0,
        "horizon_seconds": 4 * 1800.0,
        "target_hp": 0.9,
        "waiting_budget": 1.0,
        "idle_budget": 2.0,
        "planning_interval": 5.0,
        "monte_carlo_samples": 1000,
    }
    rows = run_once(Session(store=None).run, "table1", **params).rows
    print_artifact("Table I — target vs achieved QoS/cost levels", rows, _COLUMNS)

    by_metric = {row["metric"]: row for row in rows}
    hp = by_metric["hit probability"]
    rt = by_metric["waiting seconds"]
    cost = by_metric["idle seconds per instance"]
    # Paper Table I: HP lands at or above its target, RT and cost land close
    # to (the paper: 0.51 s vs 1 s and 2.5 s vs 2 s) their targets.
    assert hp["achieved_level"] == pytest.approx(hp["target_level"], abs=0.1)
    assert rt["achieved_level"] <= rt["target_level"] + 1.0
    assert cost["achieved_level"] == pytest.approx(cost["target_level"], abs=1.5)
