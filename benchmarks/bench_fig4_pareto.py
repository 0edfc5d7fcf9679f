"""Fig. 4 — Pareto plots of hit rate / response time versus relative cost.

One benchmark per trace regenerates the sweep behind the corresponding pair
of panels (hit_rate vs relative_cost and rt_avg vs relative_cost) for Backup
Pool, Adaptive Backup Pool and the RobustScaler variants.  The assertions
check the qualitative shape reported in the paper: RobustScaler-HP achieves a
higher hit rate than Backup Pool at comparable cost, and each method's QoS
improves as its cost grows.
"""

from __future__ import annotations

import pytest

from repro.api import Session

from conftest import print_artifact

_COLUMNS = [
    "trace",
    "scaler",
    "relative_cost",
    "hit_rate",
    "rt_avg",
]


def _params(trace: str) -> dict:
    pending = 13.0
    return {
        "trace_names": (trace,),
        "scale": 0.15,
        "seed": 7,
        "planning_interval": 10.0,
        "monte_carlo_samples": 200,
        "hp_targets": (0.3, 0.6, 0.9),
        "rt_budgets": (pending * 0.5, pending * 0.1),
        "cost_budgets": None,
        "pool_sizes": (0, 1, 2, 4),
        "adaptive_factors": (10.0, 25.0, 50.0) if trace == "crs" else (5.0, 10.0, 20.0),
        "include_rt_variant": True,
        "include_cost_variant": True,
    }


def _check_common_shape(rows: list[dict]) -> None:
    reactive = next(r for r in rows if r["scaler"] == "BP(B=0)")
    assert reactive["hit_rate"] == 0.0
    assert reactive["relative_cost"] == pytest.approx(1.0)
    rs_hp = sorted(
        (r for r in rows if "RobustScaler-HP" in r["scaler"]), key=lambda r: r["target_hp"]
    )
    # QoS improves with the target...
    assert rs_hp[-1]["hit_rate"] >= rs_hp[0]["hit_rate"]
    # ...and the proactive variants always beat reactive scaling on RT.
    assert all(r["rt_avg"] <= reactive["rt_avg"] + 1e-6 for r in rs_hp)


@pytest.mark.parametrize("trace", ["crs", "google", "alibaba"])
def test_fig4_pareto(run_once, trace):
    rows = run_once(Session(store=None).run, "pareto", **_params(trace)).rows
    print_artifact(f"Figure 4 — Pareto sweep on the {trace} trace", rows, _COLUMNS)
    _check_common_shape(rows)
    if trace in ("google", "alibaba"):
        # Paper: RobustScaler-HP dominates plain Backup Pool on these traces —
        # at a cost no larger than BP's mid-size pool it reaches a higher hit
        # rate than the BP configuration of comparable cost.
        rs_best = max(
            (r for r in rows if "RobustScaler-HP" in r["scaler"]),
            key=lambda r: r["hit_rate"],
        )
        bp_cheaper = [
            r
            for r in rows
            if r["scaler"].startswith("BP(")
            and r["relative_cost"] <= rs_best["relative_cost"] + 0.05
        ]
        assert rs_best["hit_rate"] >= max(r["hit_rate"] for r in bp_cheaper) - 0.1
