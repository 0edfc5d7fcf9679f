"""Figs. 6 and 7 — AdapBP vs RobustScaler-HP under growing perturbations.

The CRS trace is perturbed with the paper's hourly delete-and-amplify
protocol at sizes c = 1, 2, 4, 6; both methods are swept over their
trade-off parameter on every perturbed trace.  The paper's finding: AdapBP's
frontier degrades as c grows while RobustScaler's stays put, so RobustScaler
ends up dominating at large c.
"""

from __future__ import annotations


from repro.api import Session

from conftest import print_artifact

_COLUMNS = [
    "perturbation_size",
    "scaler",
    "relative_cost",
    "hit_rate",
    "rt_avg",
]


def test_fig6_fig7_perturbation(run_once):
    params = {
        "scale": 0.15,
        "seed": 7,
        "perturbation_sizes": (1.0, 4.0),
        "hp_targets": (0.5, 0.9),
        "adaptive_factors": (25.0, 50.0),
        "planning_interval": 10.0,
        "monte_carlo_samples": 200,
    }
    rows = run_once(Session(store=None).run, "perturbation", **params).rows
    print_artifact(
        "Figures 6-7 — QoS vs cost under perturbed CRS data", rows, _COLUMNS
    )
    sizes = sorted({row["perturbation_size"] for row in rows})
    assert sizes == [1.0, 4.0]

    def best_hit(rows_subset) -> float:
        return max(row["hit_rate"] for row in rows_subset)

    for c in sizes:
        rs_rows = [
            r for r in rows if r["perturbation_size"] == c and "RobustScaler" in r["scaler"]
        ]
        adap_rows = [
            r for r in rows if r["perturbation_size"] == c and "AdapBP" in r["scaler"]
        ]
        assert rs_rows and adap_rows
        # RobustScaler keeps delivering a usable hit rate under perturbation.
        assert best_hit(rs_rows) > 0.4
    # RobustScaler's best hit rate should not collapse as c grows.
    rs_small = best_hit(
        [r for r in rows if r["perturbation_size"] == 1.0 and "RobustScaler" in r["scaler"]]
    )
    rs_large = best_hit(
        [r for r in rows if r["perturbation_size"] == 4.0 and "RobustScaler" in r["scaler"]]
    )
    assert rs_large >= rs_small - 0.2
