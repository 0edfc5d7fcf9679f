"""Section VII-B2 — NHPP training time.

The paper reports a training time of roughly 100 seconds on three weeks of
CRS data and under 7 seconds on four days of Alibaba data.  This benchmark
times the full modeling path (periodicity detection + ADMM fit) on the
synthetic counterparts at a reduced scale and checks that the fit quality is
reasonable.
"""

from __future__ import annotations

import time

import numpy as np

from repro.config import ADMMConfig, NHPPConfig
from repro.nhpp.model import NHPPModel
from repro.experiments.base import make_trace
from repro.workloads import get_scenario

from conftest import print_artifact


def _fit(trace, bin_seconds: float) -> NHPPModel:
    config = NHPPConfig(admm=ADMMConfig(max_iterations=200))
    return NHPPModel(config, bin_seconds=bin_seconds).fit(trace)


def test_nhpp_training_time_crs(benchmark):
    trace = make_trace("crs", scale=0.5, seed=7)
    bin_seconds = get_scenario("crs").bin_seconds
    start = time.perf_counter()
    model = benchmark.pedantic(
        _fit, args=(trace, bin_seconds), rounds=1, iterations=1
    )
    fit_seconds = time.perf_counter() - start
    rows = [
        {
            "trace": "crs",
            "n_bins": model.fit_result.intensity.size,
            "period_bins": model.period_bins,
            "admm_iterations": model.fit_result.admm.n_iterations,
            "n_factorizations": model.fit_result.admm.n_factorizations,
            "fit_s": round(fit_seconds, 2),
            "objective": model.fit_result.admm.objective_value,
        }
    ]
    print_artifact("NHPP training on the CRS-like trace", rows)
    assert model.is_fitted
    assert model.period_bins > 0


def test_nhpp_training_time_google(benchmark):
    trace = make_trace("google", scale=0.25, seed=7)
    bin_seconds = get_scenario("google").bin_seconds
    model = benchmark.pedantic(
        _fit, args=(trace, bin_seconds), rounds=1, iterations=1
    )
    assert model.is_fitted
    # The fitted intensity must integrate to roughly the observed volume.
    total = float(
        np.sum(model.fit_result.intensity) * model.fit_result.bin_seconds
    )
    assert total > 0.5 * trace.n_queries
