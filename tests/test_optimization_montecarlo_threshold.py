"""Tests for Monte Carlo scenario generation and the kappa threshold (eq. 8)."""

from __future__ import annotations

import numpy as np
import pytest
from scipy import stats

from repro.exceptions import ValidationError
from repro.nhpp.intensity import PiecewiseConstantIntensity
from repro.optimization.montecarlo import ArrivalScenarios, generate_scenarios
from repro.optimization.threshold import compute_kappa
from repro.pending import DeterministicPendingTime, UniformPendingTime


class TestArrivalScenarios:
    def test_shape_validation(self):
        with pytest.raises(ValidationError):
            ArrivalScenarios(
                arrival_times=np.zeros((3, 2)), pending_times=np.zeros((3, 3))
            )
        with pytest.raises(ValidationError):
            ArrivalScenarios(arrival_times=np.zeros(3), pending_times=np.zeros(3))

    def test_for_query(self):
        arrivals = np.array([[1.0, 2.0], [3.0, 4.0]])
        pending = np.array([[0.5, 0.5], [0.5, 0.5]])
        scenarios = ArrivalScenarios(arrival_times=arrivals, pending_times=pending)
        xi, tau = scenarios.for_query(1)
        np.testing.assert_allclose(xi, [2.0, 4.0])
        with pytest.raises(ValidationError):
            scenarios.for_query(2)


class TestGenerateScenarios:
    def test_shapes(self, constant_intensity, pending_model):
        scenarios = generate_scenarios(constant_intensity, pending_model, 3, 50, 0)
        assert scenarios.n_queries == 3
        assert scenarios.n_samples == 50

    def test_reproducible_with_seed(self, constant_intensity, pending_model):
        a = generate_scenarios(constant_intensity, pending_model, 2, 20, 7)
        b = generate_scenarios(constant_intensity, pending_model, 2, 20, 7)
        np.testing.assert_array_equal(a.arrival_times, b.arrival_times)

    @pytest.mark.parametrize(
        "n_queries,n_samples,name",
        [(0, 10, "n_arrivals"), (3, 0, "n_samples"), (2.5, 10, "n_arrivals")],
    )
    def test_rejects_bad_counts(
        self, constant_intensity, pending_model, n_queries, n_samples, name
    ):
        # The sampler checks the counts, under its own argument names.
        with pytest.raises(ValidationError, match=name):
            generate_scenarios(constant_intensity, pending_model, n_queries, n_samples, 0)

    def test_arrival_marginals_match_intensity(self, pending_model):
        rate = 0.8
        intensity = PiecewiseConstantIntensity(np.array([rate]), 60.0, extrapolation="hold")
        scenarios = generate_scenarios(intensity, pending_model, 1, 5000, 1)
        xi, _ = scenarios.for_query(0)
        result = stats.kstest(xi, "expon", args=(0, 1.0 / rate))
        assert result.pvalue > 0.01


class TestComputeKappa:
    def test_zero_pending_time_gives_zero(self):
        kappa = compute_kappa(1.0, DeterministicPendingTime(0.0), 0.9)
        assert kappa == 0

    def test_zero_intensity_gives_zero(self):
        kappa = compute_kappa(0.0, DeterministicPendingTime(13.0), 0.9)
        assert kappa == 0

    def test_matches_gamma_quantile_definition(self):
        lam, tau, target = 0.2, 13.0, 0.9
        kappa = compute_kappa(lam, DeterministicPendingTime(tau), target)
        alpha = 1.0 - target
        # Definition (8): largest i with alpha-quantile of Gamma(i,1)/lam - tau < 0.
        assert stats.gamma.ppf(alpha, a=kappa) / lam - tau < 0
        assert stats.gamma.ppf(alpha, a=kappa + 1) / lam - tau >= 0

    @pytest.mark.parametrize("target", [0.5, 0.8, 0.9, 0.95, 0.99])
    @pytest.mark.parametrize("lam", [0.05, 0.5, 6.0])
    def test_equals_gamma_ppf_scan(self, lam, target):
        tau, alpha = 13.0, 1.0 - target
        expected = 0
        while expected < 10_000 and stats.gamma.ppf(alpha, a=expected + 1) < lam * tau:
            expected += 1
        assert compute_kappa(lam, DeterministicPendingTime(tau), target) == expected

    def test_kappa_grows_with_intensity(self):
        pending = DeterministicPendingTime(13.0)
        low = compute_kappa(0.1, pending, 0.9)
        high = compute_kappa(2.0, pending, 0.9)
        assert high > low

    def test_kappa_grows_with_target(self):
        pending = DeterministicPendingTime(13.0)
        relaxed = compute_kappa(0.5, pending, 0.5)
        strict = compute_kappa(0.5, pending, 0.99)
        assert strict >= relaxed

    def test_monte_carlo_close_to_exact_for_narrow_uniform(self):
        lam, target = 0.5, 0.9
        exact = compute_kappa(lam, DeterministicPendingTime(10.0), target)
        approx = compute_kappa(
            lam,
            UniformPendingTime(9.99, 10.01),
            target,
            n_samples=20_000,
            random_state=0,
        )
        assert abs(approx - exact) <= 1

    def test_respects_cap(self):
        kappa = compute_kappa(1000.0, DeterministicPendingTime(60.0), 0.99, max_kappa=50)
        assert kappa == 50
