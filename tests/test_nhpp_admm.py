"""Tests for the linearized ADMM solver (Algorithm 2)."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse.linalg
from scipy import optimize, sparse

from repro.config import ADMMConfig
from repro.exceptions import ConvergenceError
from repro.nhpp import admm
from repro.nhpp.admm import fit_log_intensity
from repro.nhpp.intensity import PiecewiseConstantIntensity
from repro.nhpp.objective import RegularizedNHPPObjective
from repro.nhpp.sampling import sample_counts
from repro.traces.synthetic import beta_bump_intensity


def _poisson_counts(rate_per_bin: np.ndarray, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.poisson(rate_per_bin).astype(float)


class TestFitLogIntensity:
    def test_objective_decreases_from_initial_guess(self):
        counts = _poisson_counts(np.full(50, 6.0), seed=1)
        obj = RegularizedNHPPObjective(counts, 60.0, beta_smooth=10.0, beta_period=0.0)
        result = fit_log_intensity(obj, ADMMConfig(max_iterations=100))
        assert result.objective_value <= obj.value(obj.initial_guess()) + 1e-6

    def test_smooth_fit_recovers_constant_rate(self):
        true_rate = 0.1  # per second => 6 per 60-second bin
        counts = _poisson_counts(np.full(80, true_rate * 60.0), seed=2)
        obj = RegularizedNHPPObjective(counts, 60.0, beta_smooth=50.0, beta_period=0.0)
        result = fit_log_intensity(obj, ADMMConfig(max_iterations=200))
        estimate = np.exp(result.log_intensity)
        assert np.mean(np.abs(estimate - true_rate)) < 0.03
        # The smoothness penalty should produce a nearly flat estimate.
        assert estimate.max() - estimate.min() < 0.08

    def test_matches_generic_solver_on_small_problem(self):
        """Cross-check the ADMM optimum against scipy's L-BFGS on a smoothed surrogate."""
        counts = _poisson_counts(np.array([4.0, 6.0, 9.0, 12.0, 9.0, 6.0, 4.0, 3.0]), seed=3)
        beta_smooth = 5.0
        obj = RegularizedNHPPObjective(counts, 30.0, beta_smooth=beta_smooth, beta_period=0.0)
        admm_result = fit_log_intensity(obj, ADMMConfig(max_iterations=2000, tolerance=1e-5))

        d2 = obj.d2.toarray()

        def smooth_objective(r):
            # Use a tight smooth approximation of |x| for the reference solver.
            eps = 1e-8
            diff = d2 @ r
            return (
                -counts @ r
                + 30.0 * np.exp(r).sum()
                + beta_smooth * np.sum(np.sqrt(diff**2 + eps))
            )

        reference = optimize.minimize(
            smooth_objective, obj.initial_guess(), method="L-BFGS-B"
        )
        assert admm_result.objective_value <= smooth_objective(reference.x) + 0.05 * abs(
            smooth_objective(reference.x)
        )

    def test_periodicity_penalty_ties_cycles_together(self):
        period_bins = 20
        times = (np.arange(period_bins * 6) + 0.5) * 60.0
        rates = beta_bump_intensity(
            times, peak=0.2, period_seconds=period_bins * 60.0, exponent=6.0, base=0.01
        )
        intensity = PiecewiseConstantIntensity(rates, 60.0, extrapolation="periodic")
        counts = sample_counts(intensity, times.size * 60.0, 5).astype(float)
        # Corrupt one cycle with an artificial dropout.
        corrupted = counts.copy()
        corrupted[40:60] = 0.0

        def fit(beta_period):
            obj = RegularizedNHPPObjective(
                corrupted, 60.0, beta_smooth=10.0, beta_period=beta_period,
                period_bins=period_bins,
            )
            return np.exp(fit_log_intensity(obj, ADMMConfig(max_iterations=200)).log_intensity)

        without = fit(0.0)
        with_reg = fit(50.0)
        truth = rates
        err_without = np.mean(np.abs(without[40:60] - truth[40:60]))
        err_with = np.mean(np.abs(with_reg[40:60] - truth[40:60]))
        assert err_with < err_without

    def test_converges_on_small_smooth_problem(self):
        counts = _poisson_counts(np.full(30, 10.0), seed=6)
        obj = RegularizedNHPPObjective(counts, 60.0, beta_smooth=5.0, beta_period=0.0)
        result = fit_log_intensity(obj, ADMMConfig(max_iterations=3000, tolerance=1e-2))
        assert result.converged

    def test_raise_on_no_convergence(self):
        counts = _poisson_counts(np.full(40, 8.0), seed=7)
        obj = RegularizedNHPPObjective(counts, 60.0, beta_smooth=20.0, beta_period=0.0)
        with pytest.raises(ConvergenceError):
            fit_log_intensity(
                obj,
                ADMMConfig(max_iterations=1, tolerance=1e-12),
                raise_on_no_convergence=True,
            )

    def test_initial_guess_shape_validated(self):
        counts = _poisson_counts(np.full(10, 5.0))
        obj = RegularizedNHPPObjective(counts, 60.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            fit_log_intensity(obj, initial_guess=np.zeros(3))

    def test_deterministic(self):
        counts = _poisson_counts(np.full(25, 4.0), seed=9)
        obj = RegularizedNHPPObjective(counts, 60.0, 5.0, 0.0)
        a = fit_log_intensity(obj, ADMMConfig(max_iterations=50))
        b = fit_log_intensity(obj, ADMMConfig(max_iterations=50))
        np.testing.assert_array_equal(a.log_intensity, b.log_intensity)


class TestSystemMatrixAssembly:
    """The ``A_k`` assembled once, in SuperLU's column order, equals a fresh sum every iteration."""

    @pytest.mark.parametrize(
        "beta_period,period_bins",
        [(2.0, 24), (2.0, None), (0.0, 24)],
        ids=["periodic", "aperiodic", "beta-period-0"],
    )
    def test_in_place_matrix_matches_fresh_sum(self, monkeypatch, beta_period, period_bins):
        rates = 5.0 + 4.0 * np.sin(2.0 * np.pi * np.arange(120) / 24.0)
        obj = RegularizedNHPPObjective(
            _poisson_counts(rates, seed=3),
            60.0,
            beta_smooth=5.0,
            beta_period=beta_period,
            period_bins=period_bins,
        )
        cfg = ADMMConfig(max_iterations=40)
        diagonals: list[np.ndarray] = []
        factored: list[tuple[np.ndarray, np.ndarray, np.ndarray, object]] = []
        with_diagonal = admm._SystemMatrix.with_diagonal
        splu = scipy.sparse.linalg.splu

        def recording_with_diagonal(system, diagonal):
            diagonals.append(diagonal.copy())
            return with_diagonal(system, diagonal)

        def recording_splu(matrix, **options):
            factor = splu(matrix, **options)
            if options.get("permc_spec") == "NATURAL":
                arrays = (matrix.indptr.copy(), matrix.indices.copy(), matrix.data.copy())
                factored.append((*arrays, factor))
            return factor

        monkeypatch.setattr(admm._SystemMatrix, "with_diagonal", recording_with_diagonal)
        # admm imports splu when it runs, so patching the scipy module reaches it.
        monkeypatch.setattr(scipy.sparse.linalg, "splu", recording_splu)
        result = fit_log_intensity(obj, cfg)

        assert len(diagonals) == len(factored) == result.n_iterations
        static_quadratic = admm.RHO * (obj.d2.T @ obj.d2).tocsc()
        if obj.dl is not None:
            static_quadratic = static_quadratic + admm.RHO * (obj.dl.T @ obj.dl).tocsc()
        rhs = np.linspace(-1.0, 1.0, obj.n_bins)
        for diagonal, (indptr, indices, data, factor) in zip(diagonals, factored):
            fresh = static_quadratic + sparse.diags(diagonal, format="csc")
            # splu sorts a non-canonical input in place before factoring it,
            # so the canonical form is what it would have factored.
            fresh.sum_duplicates()
            default_factor = splu(fresh)
            permuted = fresh[:, np.argsort(default_factor.perm_c)]
            np.testing.assert_array_equal(indptr, permuted.indptr)
            np.testing.assert_array_equal(indices, permuted.indices)
            assert data.tobytes() == permuted.data.tobytes()
            # NATURAL keeps the stored column order, so SuperLU repeats the
            # default factorization's arithmetic on the same columns.
            np.testing.assert_array_equal(factor.perm_c, np.arange(obj.n_bins))
            np.testing.assert_array_equal(factor.perm_r, default_factor.perm_r)
            solved = factor.solve(rhs)[default_factor.perm_c]
            assert solved.tobytes() == default_factor.solve(rhs).tobytes()
