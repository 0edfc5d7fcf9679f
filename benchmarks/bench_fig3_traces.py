"""Fig. 3 — overview of the three evaluation traces (QPS structure).

The paper plots the per-minute QPS of the CRS, Alibaba and Google traces;
this benchmark regenerates the equivalent summary (volume, mean/peak QPS,
detected periodicity, burst indicator) for the synthetic stand-ins and times
trace generation plus periodicity detection.
"""

from __future__ import annotations

from repro.api import Session

from conftest import print_artifact


def test_fig3_traces_overview(run_once):
    rows = run_once(Session(store=None).run, "traces", scale=0.25, seed=7).rows
    print_artifact("Figure 3 — evaluation traces overview", rows)
    assert len(rows) == 3
    # Every trace stand-in must exhibit a detectable periodic pattern, as the
    # paper's traces do.
    assert all(row["period_detected"] for row in rows)
    # The Alibaba-like trace carries the unexpected burst (large robust z).
    alibaba = next(row for row in rows if row["trace"] == "alibaba")
    assert alibaba["max_robust_z"] > 4.0
