"""Fig. 8 — runtime of the scaling-decision computation versus QPS.

Measures the wall-clock time of one decision update (Monte Carlo scenario
sampling plus the per-query solves of eqs. 3/5/7 for every creation falling
in the planning window) across a wide range of QPS levels.  The paper reports
a linear growth with QPS and decision updates that stay within seconds even
at thousands of QPS.
"""

from __future__ import annotations

import numpy as np

from repro.api import Session

from conftest import print_artifact

_COLUMNS = [
    "qps",
    "variant",
    "decisions_per_update",
    "runtime_seconds",
    "runtime_per_decision_ms",
]


def test_fig8_decision_runtime_vs_qps(run_once):
    params = {
        "qps_levels": (0.1, 1.0, 10.0, 100.0, 1000.0),
        "monte_carlo_samples": 1000,
        "repeats": 1,
    }
    rows = run_once(Session(store=None).run, "scalability", **params).rows
    print_artifact("Figure 8 — decision-update runtime versus QPS", rows, _COLUMNS)

    hp_rows = sorted(
        (r for r in rows if r["variant"].endswith("HP")), key=lambda r: r["qps"]
    )
    runtimes = np.array([r["runtime_seconds"] for r in hp_rows])
    qps = np.array([r["qps"] for r in hp_rows])
    # Runtime grows with QPS (monotone up to measurement noise)...
    assert runtimes[-1] > runtimes[0]
    # ...and stays sub-linear-in-wall-clock terms: even at the largest QPS a
    # decision update finishes within tens of seconds, as in the paper.
    assert runtimes[-1] < 60.0
    # Per-decision cost is roughly flat, the signature of linear scaling.
    per_decision = np.array([r["runtime_per_decision_ms"] for r in hp_rows])
    assert per_decision.max() / max(per_decision.min(), 1e-9) < 50.0
