"""Tests for the per-query decision formulations (eqs. 3, 5, 7)."""

from __future__ import annotations

import numpy as np
import pytest
from scipy import stats
from scipy.special import gammaincinv

from repro.exceptions import ValidationError
from repro.nhpp.intensity import PiecewiseConstantIntensity
from repro.nhpp.sampling import sample_next_arrivals
from repro.optimization.formulations import (
    ColumnSolver,
    DecisionObjective,
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


class TestSolveColumnsOnScenarios:
    """Properties of a planning round's column solve on drawn scenarios."""

    def _scenarios(self) -> ArrivalScenarios:
        intensity = PiecewiseConstantIntensity(np.array([0.5]), 60.0, extrapolation="hold")
        return generate_scenarios(
            intensity, DeterministicPendingTime(2.0), n_queries=5, n_samples=2000, random_state=0
        )

    def _solve(self, objective, target) -> np.ndarray:
        scenarios = self._scenarios()
        return solve_columns(scenarios.arrival_times, scenarios.pending_times, objective, target)

    def test_one_decision_per_query(self):
        assert self._solve(DecisionObjective.HIT_PROBABILITY, 0.8).shape == (5,)

    def test_creation_times_nondecreasing_in_query_index(self):
        times = self._solve(DecisionObjective.HIT_PROBABILITY, 0.8).tolist()
        assert all(b >= a - 0.3 for a, b in zip(times, times[1:]))

    def test_all_objectives_supported(self):
        for objective, target in (
            (DecisionObjective.HIT_PROBABILITY, 0.9),
            (DecisionObjective.RESPONSE_TIME, 0.5),
            (DecisionObjective.COST, 1.0),
        ):
            raw = self._solve(objective, target)
            assert raw.shape == (5,) and np.isfinite(raw).all()


class TestHPClosedFormOnNonHomogeneousIntensity:
    """The Monte Carlo HP decision against its exact value.

    Lambda^-1 is monotone and tau is deterministic, so the exact decision
    for the k-th upcoming query is Lambda^-1(Q_Gamma(k, 1)(1 - target)) - tau.
    The empirical quantile of R samples lies within five binomial standard
    deviations of the level 1 - target.
    """

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("target", [0.3, 0.6, 0.9])
    def test_columns_lie_in_the_quantile_band(self, seed, target):
        intensity = PiecewiseConstantIntensity(
            np.array([0.05, 0.4, 0.1, 1.2, 0.3]), 10.0, extrapolation="hold"
        )
        n_queries, n_samples, pending = 6, 2000, 13.0
        xi = sample_next_arrivals(intensity, n_queries, n_samples, seed)
        tau = np.full(xi.shape, pending)
        raw = solve_columns(xi, tau, DecisionObjective.HIT_PROBABILITY, target)
        k = np.arange(1, n_queries + 1)
        half_width = 5.0 * np.sqrt(target * (1.0 - target) / n_samples)
        low = intensity.inverse_cumulative(gammaincinv(k, 1.0 - target - half_width))
        high = intensity.inverse_cumulative(gammaincinv(k, 1.0 - target + half_width))
        assert np.all(raw >= low - pending)
        assert np.all(raw <= high - pending)


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


def _tied_rows(seed: int, n_samples: int, n_queries: int, taus: tuple[float, ...]):
    """Integer arrivals with a deterministic pending time per column.

    Every arrival is an integer and so is every slack ``xi - tau``, so an
    arrival of one sample often equals another sample's slack.  Column ``i``
    has pending time ``taus[i % len(taus)]``.
    """
    rng = np.random.default_rng(seed)
    xi = rng.integers(0, 30, size=(n_samples, n_queries)).astype(float)
    tau = np.broadcast_to(np.resize(np.array(taus), n_queries), xi.shape).copy()
    return xi, tau


def _assert_columns_equal_scalar(xi, tau, objective, target) -> list[float]:
    expected = [d.raw_creation_time for d in _per_query(xi, tau, objective, target)]
    assert solve_columns(xi, tau, objective, target).tolist() == expected
    return expected


class TestColumnSolversAgainstScalarWalks:
    """Edge shapes of the flat-index RT and cost column solvers."""

    def test_rt_rows_mixing_solved_unsolved_and_unbracketed(self):
        # A budget one ulp below tau = 3 leaves the tau = 1, 2 columns
        # unsolved (budget >= mean(tau)) and solves the tau = 3, 4 ones.
        # One ulp below mean(tau), the running sums on tied breakpoints can
        # end short of the budget: the walk then falls back to max(xi).
        budget = float(np.nextafter(3.0, -np.inf))
        xi, tau = _tied_rows(0, 7, 120, (1.0, 2.0, 3.0, 4.0))
        expected = _assert_columns_equal_scalar(xi, tau, DecisionObjective.RESPONSE_TIME, budget)
        solved = tau.mean(axis=0) > budget
        assert solved.any() and not solved.all()
        fallback = solved & (np.array(expected) == xi.max(axis=0))
        bracketed = solved & (np.array(expected) != xi.max(axis=0))
        assert fallback.any() and bracketed.any()

    @pytest.mark.parametrize("objective", list(DecisionObjective))
    @pytest.mark.parametrize("n_samples", [1, 2, 7, 400])
    def test_tie_heavy_columns(self, objective, n_samples):
        xi, tau = _tied_rows(n_samples, n_samples, 24, (3.0, 13.0))
        for target in _targets(objective, xi, tau) + [float(np.nextafter(3.0, -np.inf))]:
            if objective is DecisionObjective.HIT_PROBABILITY and target > 1.0:
                continue
            _assert_columns_equal_scalar(xi, tau, objective, target)

    @pytest.mark.parametrize("objective", list(DecisionObjective))
    @pytest.mark.parametrize("n_samples", [1, 400])
    def test_one_column(self, objective, n_samples):
        # K - j = 1: the planner's most common round.
        for seed in range(6):
            xi, tau = _corpus_case(n_samples, tied=bool(seed % 2), jittered=seed > 2, seed=seed)
            xi, tau = xi[:, 4:5], tau[:, 4:5]
            for target in _targets(objective, xi, tau):
                _assert_columns_equal_scalar(xi, tau, objective, target)

    def test_cost_root_on_every_kind_of_piece(self):
        # Budget 0 is met on the piece ending at the last breakpoint, a
        # budget above C_hat(v_0) extrapolates left of the first breakpoint,
        # and the others interpolate inside a piece.
        xi, tau = _tied_rows(5, 9, 30, (2.0, 13.0))
        xi[:, ::2] += 20.0  # every slack positive: C_hat(0) exceeds C_hat(v_0)
        slack_first = np.sort(xi - tau, axis=0)[0]
        c_first = np.maximum(xi - tau - slack_first, 0.0).mean(axis=0)
        for target in (0.0, float(c_first.max()) + 0.5, 1.0, 2.5):
            _assert_columns_equal_scalar(xi, tau, DecisionObjective.COST, target)

    def test_no_columns(self):
        xi = np.empty((400, 0))
        for objective, target in ((DecisionObjective.HIT_PROBABILITY, 0.9),
                                  (DecisionObjective.RESPONSE_TIME, 1.0),
                                  (DecisionObjective.COST, 1.0)):
            assert solve_columns(xi, xi, objective, target).shape == (0,)

    def test_column_solver_validates_its_target_once(self):
        with pytest.raises(ValidationError):
            ColumnSolver(DecisionObjective.HIT_PROBABILITY, 1.5)
        with pytest.raises(ValidationError):
            ColumnSolver(DecisionObjective.COST, -1.0)
        xi, tau = _corpus_case(50, tied=True, jittered=True, seed=8)
        solve = ColumnSolver(DecisionObjective.RESPONSE_TIME, 0.5)
        expected = solve_columns(xi, tau, DecisionObjective.RESPONSE_TIME, 0.5)
        assert solve(xi, tau).tolist() == expected.tolist()
        with pytest.raises(ValidationError):
            solve(xi[:, 0], tau[:, 0])


def _periodic_intensity() -> PiecewiseConstantIntensity:
    return PiecewiseConstantIntensity(np.array([0.2, 1.5, 0.7]), 60.0, extrapolation="periodic")


def _inverted(intensity: PiecewiseConstantIntensity, gammas: np.ndarray) -> np.ndarray:
    return intensity.inverse_cumulative(gammas.reshape(-1)).reshape(gammas.shape)


class TestScenarioColumns:
    @pytest.mark.parametrize("first", [1, 4, 24])
    def test_first_columns_follow_the_gamma_law(self, first):
        # Rate 1 makes Lambda the identity: the i-th column is Gamma(first+i+1, 1).
        intensity = PiecewiseConstantIntensity(np.array([1.0]), 60.0, extrapolation="hold")
        scenarios = generate_scenarios(
            intensity, DeterministicPendingTime(13.0), first + 4, 2000, first, first=first
        )
        xi = scenarios.arrival_times
        assert xi.shape == (2000, 4)
        for i in range(4):
            assert stats.kstest(xi[:, i], stats.gamma(first + i + 1).cdf).pvalue > 0.01
        gaps = np.diff(xi, axis=1).reshape(-1)
        assert stats.kstest(gaps, "expon").pvalue > 0.01

    @pytest.mark.parametrize("first", [0, 1, 4])
    def test_stream_order_is_exponentials_gamma_pending(self, first):
        # first=0 draws no Gamma column: a plain cumsum of unit exponentials.
        intensity = _periodic_intensity()
        drawn_rng = np.random.default_rng(5)
        scenarios = generate_scenarios(
            intensity, UniformPendingTime(8.0, 18.0), 6, 200, drawn_rng, first=first
        )
        rng = np.random.default_rng(5)
        gammas = np.cumsum(rng.exponential(1.0, size=(200, 6 - first)), axis=1)
        if first > 0:
            gammas = gammas + rng.standard_gamma(first, size=(200, 1))
        pending = rng.uniform(8.0, 18.0, size=200 * (6 - first)).reshape(200, 6 - first)
        assert np.array_equal(scenarios.arrival_times, _inverted(intensity, gammas))
        assert np.array_equal(scenarios.pending_times, pending)
        assert drawn_rng.random() == rng.random()

    def test_first_must_leave_a_column(self):
        intensity = PiecewiseConstantIntensity(np.array([0.5]), 60.0, extrapolation="hold")
        for first in (-1, 3):
            with pytest.raises(ValidationError):
                generate_scenarios(
                    intensity, DeterministicPendingTime(2.0), 3, 10, 0, first=first
                )
