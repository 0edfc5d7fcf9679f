"""Tests for the regularized NHPP objective and soft-thresholding."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ValidationError
from repro.nhpp.objective import RegularizedNHPPObjective, soft_threshold


class TestSoftThreshold:
    def test_scalar(self):
        assert soft_threshold(3.0, 1.0) == 2.0
        assert soft_threshold(-3.0, 1.0) == -2.0
        assert soft_threshold(0.5, 1.0) == 0.0

    def test_zero_threshold_identity(self):
        x = np.array([-2.0, 0.0, 5.0])
        np.testing.assert_allclose(soft_threshold(x, 0.0), x)

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValidationError):
            soft_threshold(1.0, -0.5)

    @given(
        st.floats(min_value=-100, max_value=100),
        st.floats(min_value=0, max_value=50),
    )
    @settings(max_examples=100, deadline=None)
    def test_is_proximal_operator_of_l1(self, x, threshold):
        """Soft thresholding minimizes 0.5*(z-x)^2 + threshold*|z|."""
        z_star = soft_threshold(x, threshold)
        def objective(z):
            return 0.5 * (z - x) ** 2 + threshold * abs(z)

        for delta in (-1e-3, 1e-3):
            assert objective(z_star) <= objective(z_star + delta) + 1e-9

    @given(st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_shrinks_magnitude(self, values):
        x = np.asarray(values)
        out = soft_threshold(x, 1.5)
        assert np.all(np.abs(out) <= np.abs(x) + 1e-12)


class TestRegularizedNHPPObjective:
    def _objective(self, counts=None, period=None, beta_smooth=1.0, beta_period=1.0):
        if counts is None:
            counts = np.array([3.0, 5.0, 2.0, 4.0, 6.0, 1.0])
        return RegularizedNHPPObjective(
            counts=counts,
            bin_seconds=60.0,
            beta_smooth=beta_smooth,
            beta_period=beta_period,
            period_bins=period,
        )

    def test_nll_matches_direct_formula(self):
        obj = self._objective()
        r = np.log(np.maximum(obj.counts, 1.0) / 60.0)
        direct = -obj.counts @ r + 60.0 * np.exp(r).sum()
        assert obj.negative_log_likelihood(r) == pytest.approx(direct)

    def test_nll_minimized_at_mle(self):
        obj = self._objective(beta_smooth=0.0, beta_period=0.0)
        mle = np.log(obj.counts / 60.0)
        base = obj.negative_log_likelihood(mle)
        rng = np.random.default_rng(0)
        for _ in range(10):
            perturbed = mle + rng.normal(scale=0.1, size=mle.size)
            assert obj.negative_log_likelihood(perturbed) >= base - 1e-9

    def test_penalty_zero_for_linear_log_intensity_without_period(self):
        obj = self._objective(beta_period=0.0)
        r = 0.1 * np.arange(obj.n_bins) + 1.0
        assert obj.penalty(r) == pytest.approx(0.0, abs=1e-10)

    def test_penalty_includes_seasonal_term(self):
        obj = self._objective(period=2)
        assert obj.has_period_penalty
        r = np.array([0.0, 1.0, 0.0, 1.0, 0.0, 1.0])
        # Periodic with period 2 -> seasonal penalty 0; curvature penalty > 0.
        seasonal_only = self._objective(period=2, beta_smooth=0.0)
        assert seasonal_only.penalty(r) == pytest.approx(0.0, abs=1e-10)

    def test_period_longer_than_series_dropped(self):
        obj = self._objective(period=10)
        assert not obj.has_period_penalty

    def test_wrong_length_rejected(self):
        obj = self._objective()
        with pytest.raises(ValidationError):
            obj.negative_log_likelihood(np.zeros(3))

    def test_too_few_bins_rejected(self):
        with pytest.raises(ValidationError):
            RegularizedNHPPObjective(np.array([1.0, 2.0]), 60.0, 1.0, 1.0)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValidationError):
            RegularizedNHPPObjective(np.array([1.0, -2.0, 3.0]), 60.0, 1.0, 1.0)

    def test_initial_guess_finite_with_empty_bins(self):
        obj = self._objective(counts=np.array([0.0, 0.0, 5.0, 0.0]))
        guess = obj.initial_guess()
        assert np.all(np.isfinite(guess))

    def test_value_is_nll_plus_penalty(self):
        obj = self._objective(period=3)
        r = obj.initial_guess()
        assert obj.value(r) == pytest.approx(
            obj.negative_log_likelihood(r) + obj.penalty(r)
        )


class TestLikelihoodAgainstScipy:
    """The fitter's likelihood is the Poisson likelihood of the binned counts.

    ``negative_log_likelihood`` drops the two terms that do not depend on
    the intensity, ``sum(log Q_t!)`` and ``sum(Q_t) * log(delta_t)``; adding
    them back gives scipy's Poisson negative log-pmf.
    """

    BIN = 60.0

    def _objective(self, counts):
        return RegularizedNHPPObjective(counts, self.BIN, 0.0, 0.0)

    def _scipy_nll(self, counts, log_intensity):
        from scipy import stats

        means = self.BIN * np.exp(log_intensity)
        return -float(stats.poisson.logpmf(counts, means).sum())

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_scipy_up_to_the_dropped_constant(self, seed):
        from scipy.special import gammaln

        rng = np.random.default_rng(seed)
        counts = rng.poisson(4.0, size=40).astype(float)
        r = rng.normal(np.log(4.0 / self.BIN), 0.5, size=40)
        dropped = float(gammaln(counts + 1.0).sum() - counts.sum() * np.log(self.BIN))
        nll = self._objective(counts).negative_log_likelihood(r)
        assert nll + dropped == pytest.approx(self._scipy_nll(counts, r), rel=1e-10)

    def test_differences_match_scipy_without_the_constant(self):
        rng = np.random.default_rng(3)
        counts = rng.poisson(2.0, size=25).astype(float)
        obj = self._objective(counts)
        r_a = np.full(25, np.log(2.0 / self.BIN))
        r_b = r_a + rng.normal(scale=0.3, size=25)
        ours = obj.negative_log_likelihood(r_b) - obj.negative_log_likelihood(r_a)
        theirs = self._scipy_nll(counts, r_b) - self._scipy_nll(counts, r_a)
        assert ours == pytest.approx(theirs, rel=1e-9)

    def test_empty_bins_contribute_only_their_expected_count(self):
        r = np.log(np.array([0.01, 0.05, 0.08, 0.2]))
        nll = self._objective(np.zeros(4)).negative_log_likelihood(r)
        assert nll == pytest.approx(self.BIN * np.exp(r).sum())
        assert nll == pytest.approx(self._scipy_nll(np.zeros(4), r))

    def test_is_convex_along_random_segments(self):
        rng = np.random.default_rng(4)
        obj = self._objective(rng.poisson(3.0, size=30).astype(float))
        for _ in range(20):
            r0, r1 = rng.normal(-3.0, 1.0, size=(2, 30))
            w = rng.uniform()
            mixed = obj.negative_log_likelihood(w * r0 + (1.0 - w) * r1)
            chord = w * obj.negative_log_likelihood(r0) + (1.0 - w) * (
                obj.negative_log_likelihood(r1)
            )
            assert mixed <= chord + 1e-9

    def test_maximum_likelihood_estimate_is_each_bins_log_rate(self):
        counts = np.array([3.0, 0.0, 7.0, 1.0])
        mle = self._objective(counts).maximum_likelihood_log_intensity()
        np.testing.assert_allclose(mle[[0, 2, 3]], np.log(counts[[0, 2, 3]] / self.BIN))
        # An empty bin is floored so its log-rate stays finite.
        assert mle[1] == pytest.approx(np.log(1e-3 / self.BIN))
