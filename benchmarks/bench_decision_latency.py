"""Section VII-B2 — per-decision latency of the scaling-decision module.

The paper reports that generating scaling decisions takes under 5 ms on the
real-world traces (QPS below ~6) and stays in the seconds even at thousands
of QPS.  These micro-benchmarks time one HP / RT / cost decision for a single
query at the Monte Carlo sample size used in the experiments, and one
planning round's column-wise solve (``solve_columns``) of ``K = 30`` queries
at ``R = 400`` samples, the shape RobustScaler solves every 10 s, one
round's scenario draw of ``K = 28`` queries with none or 24 already covered,
and the two pieces of a typical round on the 24 h google trace: inverting
1,600 masses that reach about 8 bins of a 118-bin periodic window, and an
RT solve of a single column (K - j = 1, the most common round).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.nhpp.intensity import PiecewiseConstantIntensity
from repro.optimization.formulations import (
    DecisionObjective,
    solve_columns,
    solve_cost_constrained,
    solve_hp_constrained,
    solve_rt_constrained,
)
from repro.optimization.montecarlo import generate_scenarios
from repro.pending import DeterministicPendingTime

_SAMPLES = 1000


def _scenario(rate: float):
    intensity = PiecewiseConstantIntensity(np.array([rate]), 60.0, extrapolation="hold")
    scenarios = generate_scenarios(
        intensity, DeterministicPendingTime(13.0), 1, _SAMPLES, random_state=0
    )
    return scenarios.for_query(0)


@pytest.mark.parametrize("rate", [0.1, 6.0])
def test_hp_decision_latency(benchmark, rate):
    xi, tau = _scenario(rate)
    decision = benchmark(solve_hp_constrained, xi, tau, 0.9)
    assert decision.creation_time >= 0.0


@pytest.mark.parametrize("rate", [0.1, 6.0])
def test_rt_decision_latency(benchmark, rate):
    xi, tau = _scenario(rate)
    decision = benchmark(solve_rt_constrained, xi, tau, 1.0)
    assert decision.creation_time >= 0.0


@pytest.mark.parametrize("rate", [0.1, 6.0])
def test_cost_decision_latency(benchmark, rate):
    xi, tau = _scenario(rate)
    decision = benchmark(solve_cost_constrained, xi, tau, 2.0)
    assert decision.creation_time >= 0.0


@pytest.mark.parametrize(
    "objective, target",
    [
        (DecisionObjective.HIT_PROBABILITY, 0.9),
        (DecisionObjective.RESPONSE_TIME, 1.0),
        (DecisionObjective.COST, 2.0),
    ],
)
def test_round_column_solve_latency(benchmark, objective, target):
    intensity = PiecewiseConstantIntensity(np.array([1.0]), 60.0, extrapolation="hold")
    scenarios = generate_scenarios(
        intensity, DeterministicPendingTime(13.0), 30, 400, random_state=0
    )
    creation = benchmark(
        solve_columns, scenarios.arrival_times, scenarios.pending_times, objective, target
    )
    assert creation.shape == (30,)


@pytest.mark.parametrize("first", [0, 24])
def test_scenario_generation_latency(benchmark, first):
    # K = 28 queries at R = 400 with 24 already covered is a typical RobustScaler
    # round; only the K - first solved columns are drawn.
    intensity = PiecewiseConstantIntensity(np.array([6.0]), 60.0, extrapolation="hold")
    pending = DeterministicPendingTime(13.0)
    scenarios = benchmark(
        generate_scenarios, intensity, pending, 28, 400, 0, first=first
    )
    assert scenarios.n_queries == 28 - first


def test_round_inversion_latency(benchmark):
    # A round's draw: R = 400 rows of K - j = 4 cumulated exponentials plus a
    # Gamma(20, 1) variate, scaled so the largest mass reaches bin 8.
    rng = np.random.default_rng(0)
    window = PiecewiseConstantIntensity(
        rng.gamma(2.0, 0.3, size=118), 60.0, extrapolation="periodic"
    )
    gammas = np.cumsum(rng.exponential(1.0, size=(400, 4)), axis=1)
    gammas += rng.standard_gamma(20, size=(400, 1))
    masses = (gammas * (window.cumulative(8 * 60.0) / gammas.max())).reshape(-1)
    times = benchmark(window.inverse_cumulative, masses)
    assert times.shape == (1_600,) and times.max() <= 8 * 60.0


def test_round_rt_one_column_latency(benchmark):
    intensity = PiecewiseConstantIntensity(np.array([0.3]), 60.0, extrapolation="hold")
    scenarios = generate_scenarios(
        intensity, DeterministicPendingTime(13.0), 20, 400, random_state=0, first=19
    )
    creation = benchmark(
        solve_columns,
        scenarios.arrival_times,
        scenarios.pending_times,
        DecisionObjective.RESPONSE_TIME,
        5.0,
    )
    assert creation.shape == (1,)
