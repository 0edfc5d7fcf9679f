"""Fig. 3 — overview of the QPS series of the three evaluation traces.

The paper's Fig. 3 plots the per-minute QPS of the CRS, Alibaba and Google
traces to show their qualitative character (noisy weekly pattern, recurrent
spikes, one unexpected burst).  This driver regenerates the same summary as
numbers: per-trace query counts, mean/peak QPS, detected periodicity, and the
burstiness of the series.

Registered as ``"traces"`` in :mod:`repro.api` (pure trace statistics — no
replay, no engine, no runtime executor); thanks to the registry-derived
defaults it summarizes any registered workload scenario, not just the
paper's three traces.
"""

from __future__ import annotations

import numpy as np

from ..api import ExperimentSpec, ParamSpec, register_experiment, run_experiment
from ..api.session import RunContext
from ..periodicity.detector import PeriodicityDetector
from ..timeseries.robust import robust_zscore
from ..workloads import get_scenario
from .base import make_trace

__all__ = ["run_traces_overview"]


def _run_traces_overview(params: dict, ctx: RunContext) -> list[dict]:
    """Summarize each evaluation trace (the numeric counterpart of Fig. 3).

    Returns one row per trace with query counts, QPS statistics, the detected
    period, and the largest robust z-score of the QPS series (which flags the
    Alibaba burst).
    """
    rows: list[dict] = []
    for name in params["trace_names"]:
        trace = make_trace(name, scale=params["scale"], seed=params["seed"])
        series = trace.to_qps_series(get_scenario(name).bin_seconds)
        detector = PeriodicityDetector()
        detection = detector.detect(series)
        z_scores = robust_zscore(np.asarray(series.counts, dtype=float))
        rows.append(
            {
                "trace": name,
                "n_queries": trace.n_queries,
                "duration_hours": trace.horizon / 3600.0,
                "mean_qps": trace.mean_qps,
                "peak_qps": float(series.qps.max()),
                "period_detected": detection.detected,
                "period_hours": detection.period_seconds / 3600.0,
                "max_robust_z": float(np.max(np.abs(z_scores)))
                if z_scores.size
                else 0.0,
            }
        )
    return rows


register_experiment(
    ExperimentSpec(
        name="traces",
        title="per-trace QPS statistics, periodicity and burstiness",
        artifact="Fig. 3",
        params=(
            ParamSpec(
                "trace_names",
                "str",
                ("crs", "google", "alibaba"),
                sequence=True,
                cli_flag="--trace",
                help="trace / workload scenario to summarize",
            ),
            ParamSpec("scale", "float", 0.25, help="trace size factor"),
            ParamSpec("seed", "int", 7, help="trace-generation seed"),
        ),
        run=_run_traces_overview,
        result_columns=(
            "trace",
            "n_queries",
            "duration_hours",
            "mean_qps",
            "peak_qps",
            "period_detected",
            "period_hours",
            "max_robust_z",
        ),
        runtime=False,
        engine_aware=False,
        scenario_param="trace_names",
    )
)


def run_traces_overview(
    *,
    trace_names: tuple[str, ...] = ("crs", "google", "alibaba"),
    scale: float = 0.25,
    seed: int = 7,
) -> list[dict]:
    """Fig. 3 trace overview (thin wrapper over the registry path)."""
    return run_experiment(
        "traces", {"trace_names": trace_names, "scale": scale, "seed": seed}
    )
