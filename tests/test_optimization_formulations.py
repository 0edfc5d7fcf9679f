"""Tests for the per-query decision formulations (eqs. 3, 5, 7)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.nhpp.intensity import PiecewiseConstantIntensity
from repro.optimization.formulations import (
    DecisionObjective,
    solve_batch,
    solve_columns,
    solve_cost_constrained,
    solve_hp_constrained,
    solve_rt_constrained,
)
from repro.optimization.montecarlo import ArrivalScenarios, generate_scenarios
from repro.pending import DeterministicPendingTime, UniformPendingTime

_SCALAR_SOLVERS = {
    DecisionObjective.HIT_PROBABILITY: solve_hp_constrained,
    DecisionObjective.RESPONSE_TIME: solve_rt_constrained,
    DecisionObjective.COST: solve_cost_constrained,
}


def _exponential_samples(rate: float, pending: float, n: int, seed: int):
    rng = np.random.default_rng(seed)
    xi = rng.exponential(1.0 / rate, size=n)
    tau = np.full(n, pending)
    return xi, tau


class TestHPConstrained:
    def test_matches_analytic_quantile(self):
        rate, pending = 0.5, 2.0
        xi, tau = _exponential_samples(rate, pending, 200_000, 0)
        target = 0.8  # alpha = 0.2
        decision = solve_hp_constrained(xi, tau, target)
        analytic = -np.log(1.0 - 0.2) / rate - pending
        assert decision.raw_creation_time == pytest.approx(analytic, abs=0.05)

    def test_achieves_target_on_samples(self):
        xi, tau = _exponential_samples(0.3, 1.0, 50_000, 1)
        target = 0.9
        decision = solve_hp_constrained(xi, tau, target)
        hit_fraction = np.mean(xi > decision.raw_creation_time + tau)
        assert hit_fraction >= target - 0.01

    def test_infeasible_when_pending_dominates(self):
        # Queries arrive almost immediately but pending time is huge.
        xi = np.full(100, 0.5)
        tau = np.full(100, 10.0)
        decision = solve_hp_constrained(xi, tau, 0.9)
        assert not decision.feasible
        assert decision.creation_time == 0.0

    def test_target_one_gives_earliest(self):
        xi, tau = _exponential_samples(0.5, 1.0, 1000, 2)
        decision = solve_hp_constrained(xi, tau, 1.0)
        assert decision.raw_creation_time <= (xi - tau).min() + 1e-12

    def test_invalid_target_rejected(self):
        xi, tau = _exponential_samples(0.5, 1.0, 10, 3)
        with pytest.raises(ValidationError):
            solve_hp_constrained(xi, tau, 1.5)

    def test_decision_reports_expectations(self):
        xi, tau = _exponential_samples(0.5, 1.0, 5000, 4)
        decision = solve_hp_constrained(xi, tau, 0.7)
        assert decision.expected_idle_time >= 0
        assert decision.expected_waiting_time >= 0
        assert decision.objective is DecisionObjective.HIT_PROBABILITY


class TestRTConstrained:
    def test_waiting_budget_met(self):
        # Sparse arrivals (mean gap 20 s) relative to a 5-second pending time:
        # the waiting budget is feasible with a non-negative creation time.
        xi, tau = _exponential_samples(0.05, 5.0, 20_000, 5)
        budget = 1.0
        decision = solve_rt_constrained(xi, tau, budget)
        assert decision.feasible
        waiting = np.maximum(tau - np.maximum(xi - decision.creation_time, 0.0), 0.0)
        assert waiting.mean() <= budget + 0.01

    def test_infeasible_budget_clamped_to_create_now(self):
        # Dense arrivals relative to the pending time: even creating at time 0
        # cannot meet the budget, so the decision clamps to "create now".
        xi, tau = _exponential_samples(0.4, 5.0, 20_000, 5)
        decision = solve_rt_constrained(xi, tau, 1.0)
        assert not decision.feasible
        assert decision.creation_time == 0.0

    def test_larger_budget_means_later_creation(self):
        xi, tau = _exponential_samples(0.4, 5.0, 20_000, 6)
        early = solve_rt_constrained(xi, tau, 0.5)
        late = solve_rt_constrained(xi, tau, 3.0)
        assert late.raw_creation_time >= early.raw_creation_time

    def test_negative_budget_rejected(self):
        xi, tau = _exponential_samples(0.4, 5.0, 100, 7)
        with pytest.raises(ValidationError):
            solve_rt_constrained(xi, tau, -1.0)


class TestCostConstrained:
    def test_idle_budget_met(self):
        xi, tau = _exponential_samples(0.2, 2.0, 20_000, 8)
        budget = 1.0
        decision = solve_cost_constrained(xi, tau, budget)
        idle = np.maximum(xi - tau - decision.creation_time, 0.0)
        assert idle.mean() <= budget + 0.01

    def test_generous_budget_creates_immediately(self):
        xi, tau = _exponential_samples(0.2, 2.0, 10_000, 9)
        generous = float(np.maximum(xi - tau, 0.0).mean()) + 1.0
        decision = solve_cost_constrained(xi, tau, generous)
        assert decision.creation_time == 0.0

    def test_tight_budget_creates_later(self):
        xi, tau = _exponential_samples(0.2, 2.0, 10_000, 10)
        tight = solve_cost_constrained(xi, tau, 0.1)
        loose = solve_cost_constrained(xi, tau, 2.0)
        assert tight.creation_time >= loose.creation_time


class TestSolveBatch:
    def _scenarios(self) -> ArrivalScenarios:
        intensity = PiecewiseConstantIntensity(np.array([0.5]), 60.0, extrapolation="hold")
        return generate_scenarios(
            intensity, DeterministicPendingTime(2.0), n_queries=5, n_samples=2000, random_state=0
        )

    def test_batch_length(self):
        scenarios = self._scenarios()
        decisions = solve_batch(scenarios, DecisionObjective.HIT_PROBABILITY, 0.8)
        assert len(decisions) == 5

    def test_creation_times_nondecreasing_in_query_index(self):
        scenarios = self._scenarios()
        decisions = solve_batch(scenarios, DecisionObjective.HIT_PROBABILITY, 0.8)
        times = [d.raw_creation_time for d in decisions]
        assert all(b >= a - 0.3 for a, b in zip(times, times[1:]))

    def test_all_objectives_supported(self):
        scenarios = self._scenarios()
        for objective, target in (
            (DecisionObjective.HIT_PROBABILITY, 0.9),
            (DecisionObjective.RESPONSE_TIME, 0.5),
            (DecisionObjective.COST, 1.0),
        ):
            decisions = solve_batch(scenarios, objective, target)
            assert all(d.objective is objective for d in decisions)


def _per_query(xi: np.ndarray, tau: np.ndarray, objective, target):
    """The reference: one scalar solve per column."""
    solve = _SCALAR_SOLVERS[objective]
    return [solve(xi[:, i], tau[:, i], target) for i in range(xi.shape[1])]


def _corpus_case(n_samples: int, tied: bool, jittered: bool, seed: int):
    """``(R, K)`` samples: cumulative gaps like arrivals, optionally rounded to tie."""
    rng = np.random.default_rng(seed)
    xi = np.cumsum(rng.exponential(rng.uniform(0.5, 15.0), size=(n_samples, 9)), axis=1)
    if tied:
        xi = np.round(xi)
    tau = rng.uniform(8.0, 18.0, size=xi.shape) if jittered else np.full(xi.shape, 13.0)
    return xi, tau


def _targets(objective, xi: np.ndarray, tau: np.ndarray) -> list[float]:
    if objective is DecisionObjective.HIT_PROBABILITY:
        return [0.0, 0.5, 0.9, 1.0]
    if objective is DecisionObjective.RESPONSE_TIME:
        # Budget 0 forces the earliest creation; max mean(tau) sits on the
        # boundary of the "never binding" shortcut.
        return [0.0, 0.5, 3.0, float(tau.mean(axis=0).max())]
    # A budget near max C_hat(0) makes (almost) every column "create now".
    return [0.0, 1.0, 5.0, float(np.maximum(xi - tau, 0.0).mean(axis=0).max())]


class TestSolveColumns:
    """The column-wise solver must equal the per-query solvers bit for bit."""

    @pytest.mark.parametrize("objective", list(DecisionObjective))
    @pytest.mark.parametrize("n_samples", [1, 2, 400, 1000])
    @pytest.mark.parametrize("tied", [False, True])
    @pytest.mark.parametrize("jittered", [False, True])
    def test_equals_scalar_solvers(self, objective, n_samples, tied, jittered):
        xi, tau = _corpus_case(n_samples, tied, jittered, seed=n_samples + 2 * tied + jittered)
        for target in _targets(objective, xi, tau):
            expected = [d.raw_creation_time for d in _per_query(xi, tau, objective, target)]
            assert solve_columns(xi, tau, objective, target).tolist() == expected

    @pytest.mark.parametrize("objective", list(DecisionObjective))
    def test_equals_scalar_solvers_on_heavy_ties(self, objective):
        # Integer samples make many breakpoints coincide; there the RT walk's
        # order (arrivals first) decides how the slope's sum rounds.
        rng = np.random.default_rng(11)
        targets = {
            DecisionObjective.HIT_PROBABILITY: [0.5, 0.9],
            DecisionObjective.RESPONSE_TIME: [0.25, 1.0, 2.0],
            DecisionObjective.COST: [0.5, 1.0, 5.0],
        }[objective]
        for n_samples in (49, 400):
            xi = rng.integers(0, 30, size=(n_samples, 40)).astype(float)
            tau = np.full(xi.shape, 3.0)
            for target in targets:
                expected = [d.raw_creation_time for d in _per_query(xi, tau, objective, target)]
                assert solve_columns(xi, tau, objective, target).tolist() == expected

    def test_degenerate_budgets_hit_the_shortcuts(self):
        xi, tau = _corpus_case(400, tied=False, jittered=True, seed=1)
        generous_rt = float(tau.max())
        assert solve_columns(xi, tau, DecisionObjective.RESPONSE_TIME, generous_rt).tolist() == (
            xi.max(axis=0).tolist()
        )
        generous_cost = float((xi - tau).max())
        assert not solve_columns(xi, tau, DecisionObjective.COST, generous_cost).any()

    def test_many_columns_span_several_blocks(self):
        rng = np.random.default_rng(9)
        xi = np.cumsum(rng.exponential(0.2, size=(300, 500)), axis=1)
        tau = np.full(xi.shape, 13.0)
        for objective, target in ((DecisionObjective.HIT_PROBABILITY, 0.9),
                                  (DecisionObjective.RESPONSE_TIME, 1.0),
                                  (DecisionObjective.COST, 2.0)):
            expected = [d.raw_creation_time for d in _per_query(xi, tau, objective, target)]
            assert solve_columns(xi, tau, objective, target).tolist() == expected

    def test_invalid_inputs_rejected(self):
        xi, tau = _corpus_case(10, tied=False, jittered=False, seed=0)
        with pytest.raises(ValidationError):
            solve_columns(xi[:, 0], tau[:, 0], DecisionObjective.HIT_PROBABILITY, 0.9)
        with pytest.raises(ValidationError):
            solve_columns(xi, tau[:, :3], DecisionObjective.HIT_PROBABILITY, 0.9)
        with pytest.raises(ValidationError):
            solve_columns(xi[:0], tau[:0], DecisionObjective.HIT_PROBABILITY, 0.9)
        with pytest.raises(ValidationError):
            solve_columns(xi, tau, DecisionObjective.HIT_PROBABILITY, 1.5)
        with pytest.raises(ValidationError):
            solve_columns(xi, tau, DecisionObjective.RESPONSE_TIME, -1.0)
        with pytest.raises(ValidationError):
            solve_columns(xi, tau, DecisionObjective.COST, -1.0)
        bad = xi.copy()
        bad[0, 0] = np.inf
        with pytest.raises(ValidationError):
            solve_columns(bad, tau, DecisionObjective.COST, 1.0)

    @pytest.mark.parametrize("objective", list(DecisionObjective))
    def test_solve_batch_equals_per_query_decisions(self, objective):
        xi, tau = _corpus_case(400, tied=True, jittered=True, seed=4)
        for target in _targets(objective, xi, tau):
            batch = solve_batch(ArrivalScenarios(xi, tau), objective, target)
            assert batch == _per_query(xi, tau, objective, target)


class TestScenarioColumns:
    @pytest.mark.parametrize("first", [0, 1, 4])
    def test_first_slices_the_full_draw(self, first):
        intensity = PiecewiseConstantIntensity(
            np.array([0.2, 1.5, 0.7]), 60.0, extrapolation="periodic"
        )
        pending = UniformPendingTime(8.0, 18.0)
        full_rng = np.random.default_rng(3)
        sliced_rng = np.random.default_rng(3)
        full = generate_scenarios(intensity, pending, 5, 200, full_rng)
        sliced = generate_scenarios(intensity, pending, 5, 200, sliced_rng, first=first)
        assert np.array_equal(sliced.arrival_times, full.arrival_times[:, first:])
        assert np.array_equal(sliced.pending_times, full.pending_times[:, first:])
        assert sliced_rng.random() == full_rng.random()

    def test_first_must_leave_a_column(self):
        intensity = PiecewiseConstantIntensity(np.array([0.5]), 60.0, extrapolation="hold")
        for first in (-1, 3):
            with pytest.raises(ValidationError):
                generate_scenarios(
                    intensity, DeterministicPendingTime(2.0), 3, 10, 0, first=first
                )
