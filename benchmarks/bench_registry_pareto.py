"""Fig. 4's comparison across the whole workload registry.

Beyond the paper's three traces, this benchmark runs the ``pareto`` sweep
over every scenario in :mod:`repro.workloads` (flash crowds, sale events,
batch bursts, multi-tenant mixes, outages, ...) with small explicit grids.
The assertions check the qualitative story: every registered scenario is
covered, the pool-less Backup Pool ``BP(B=0)`` (the reactive policy)
anchors relative cost at 1, and on steady, forecastable traffic
RobustScaler-HP reaches a hit rate no baseline point matches at any cost.
"""

from __future__ import annotations

import pytest

from repro.api import Session
from repro.workloads import scenario_names

from conftest import print_artifact

_COLUMNS = [
    "trace",
    "scaler",
    "target_hp",
    "n_queries",
    "hit_rate",
    "rt_avg",
    "relative_cost",
]


def test_pareto_full_registry(run_once):
    params = {
        "trace_names": tuple(scenario_names()),
        "scale": 0.1,
        "seed": 7,
        "planning_interval": 10.0,
        "monte_carlo_samples": 120,
        "hp_targets": (0.5, 0.9),
        "pool_sizes": (0, 1, 4),
        "adaptive_factors": (10.0,),
        "include_rt_variant": False,
        "include_cost_variant": False,
    }
    rows = run_once(Session(store=None).run, "pareto", **params).rows
    print_artifact("Pareto sweep (full registry)", rows, columns=_COLUMNS)

    assert {row["trace"] for row in rows} == set(scenario_names())

    # The pool-less Backup Pool is the reactive policy: it anchors relative
    # cost at 1 and never finds an idle instance, on every scenario.
    for row in rows:
        if row["scaler"] == "BP(B=0)":
            assert row["relative_cost"] == pytest.approx(1.0)
            assert row["hit_rate"] == 0.0

    # On steady, forecastable traffic the proactive RobustScaler reaches hit
    # rates the reactive-family baselines cannot at any swept setting.
    steady = [r for r in rows if r["trace"] == "steady-state"]
    rs_best = max(
        r["hit_rate"] for r in steady if r["scaler"].startswith("RobustScaler-HP")
    )
    baseline_best = max(
        r["hit_rate"] for r in steady if not r["scaler"].startswith("RobustScaler")
    )
    assert rs_best > baseline_best
