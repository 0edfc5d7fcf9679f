"""Section VII-B2 — per-decision latency of the scaling-decision module.

The paper reports that generating scaling decisions takes under 5 ms on the
real-world traces (QPS below ~6) and stays in the seconds even at thousands
of QPS.  These micro-benchmarks time one HP / RT / cost decision for a single
query at the Monte Carlo sample size used in the experiments, and one
planning round's column-wise solve (``solve_columns``) of ``K = 30`` queries
at ``R = 400`` samples, the shape RobustScaler solves every 10 s.
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


def test_scenario_generation_latency(benchmark):
    intensity = PiecewiseConstantIntensity(np.array([6.0]), 60.0, extrapolation="hold")
    pending = DeterministicPendingTime(13.0)
    scenarios = benchmark(
        generate_scenarios, intensity, pending, 50, _SAMPLES, 0
    )
    assert scenarios.n_queries == 50
