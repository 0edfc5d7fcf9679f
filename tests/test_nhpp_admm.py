"""Tests for the linearized ADMM solver (Algorithm 2)."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse.linalg
from scipy import optimize, sparse

from repro.config import ADMMConfig
from repro.exceptions import ConvergenceError, ValidationError
from repro.nhpp import admm
from repro.nhpp.admm import fit_log_intensity
from repro.nhpp.objective import RegularizedNHPPObjective
from repro.nhpp.sampling import sample_counts
from repro.traces.synthetic import periodic_bump_intensity


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
        horizon = period_bins * 6 * 60.0
        intensity = periodic_bump_intensity(
            peak=0.2,
            period_seconds=period_bins * 60.0,
            exponent=6.0,
            base=0.01,
            horizon_seconds=horizon,
            bin_seconds=60.0,
        )
        counts = sample_counts(intensity, horizon, 5).astype(float)
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
        truth = intensity.values
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
        with pytest.raises(ValidationError):
            fit_log_intensity(obj, initial_guess=np.zeros(3))

    def test_deterministic(self):
        counts = _poisson_counts(np.full(25, 4.0), seed=9)
        obj = RegularizedNHPPObjective(counts, 60.0, 5.0, 0.0)
        a = fit_log_intensity(obj, ADMMConfig(max_iterations=50))
        b = fit_log_intensity(obj, ADMMConfig(max_iterations=50))
        np.testing.assert_array_equal(a.log_intensity, b.log_intensity)


def _static_quadratic(obj: RegularizedNHPPObjective) -> sparse.csc_matrix:
    static_quadratic = admm.RHO * (obj.d2.T @ obj.d2).tocsc()
    if obj.dl is not None:
        static_quadratic = static_quadratic + admm.RHO * (obj.dl.T @ obj.dl).tocsc()
    return static_quadratic


def _seasonal_objective(beta_period: float = 2.0, period_bins: int | None = 24):
    rates = 5.0 + 4.0 * np.sin(2.0 * np.pi * np.arange(120) / 24.0)
    return RegularizedNHPPObjective(
        _poisson_counts(rates, seed=3),
        60.0,
        beta_smooth=5.0,
        beta_period=beta_period,
        period_bins=period_bins,
    )


class TestSystemMatrixAssembly:
    """The ``A_k`` assembled once, in SuperLU's column order, equals a fresh sum when factored."""

    @pytest.mark.parametrize(
        "beta_period,period_bins",
        [(2.0, 24), (2.0, None), (0.0, 24)],
        ids=["periodic", "aperiodic", "beta-period-0"],
    )
    def test_in_place_matrix_matches_fresh_sum(self, monkeypatch, beta_period, period_bins):
        obj = _seasonal_objective(beta_period, period_bins)
        cfg = ADMMConfig(max_iterations=40)
        diagonals: list[np.ndarray] = []
        factored: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, object]] = []
        with_diagonal = admm._SystemMatrix.with_diagonal
        splu = scipy.sparse.linalg.splu

        def recording_with_diagonal(system, diagonal):
            diagonals.append(diagonal.copy())
            return with_diagonal(system, diagonal)

        def recording_splu(matrix, **options):
            factor = splu(matrix, **options)
            if options.get("permc_spec") == "NATURAL":
                arrays = (matrix.indptr.copy(), matrix.indices.copy(), matrix.data.copy())
                factored.append((diagonals[-1], *arrays, factor))
            return factor

        monkeypatch.setattr(admm._SystemMatrix, "with_diagonal", recording_with_diagonal)
        # admm imports splu when it runs, so patching the scipy module reaches it.
        monkeypatch.setattr(scipy.sparse.linalg, "splu", recording_splu)
        result = fit_log_intensity(obj, cfg)

        assert len(diagonals) == result.n_iterations
        # The first solve factors; later ones mostly reuse a kept factor.
        assert 1 <= len(factored) == result.n_factorizations < result.n_iterations
        static_quadratic = _static_quadratic(obj)
        rhs = np.linspace(-1.0, 1.0, obj.n_bins)
        for diagonal, indptr, indices, data, factor in factored:
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


class TestPreconditionedSolve:
    """``_SystemMatrix.solve``: PCG on a kept factor, refactor and direct fallback."""

    @staticmethod
    def _system_and_rhs():
        obj = _seasonal_objective()
        rhs = np.random.default_rng(5).normal(size=obj.n_bins)
        base = np.linspace(1.0, 9.0, obj.n_bins) * 60.0
        static_quadratic = _static_quadratic(obj)
        return admm._SystemMatrix(static_quadratic), static_quadratic, rhs, base

    @staticmethod
    def _direct(static_quadratic, diagonal, rhs):
        matrix = static_quadratic + sparse.diags(diagonal, format="csc")
        return scipy.sparse.linalg.splu(matrix).solve(rhs)

    def test_pcg_residual_within_tolerance(self):
        system, static_quadratic, rhs, base = self._system_and_rhs()
        system.solve(base, rhs)
        assert (system.n_factorizations, system.cg_steps) == (1, 0)
        diagonal = base * np.exp(0.05 * np.sin(np.arange(base.size)))
        x = system.solve(diagonal, rhs)
        # A kept factor and no fallback: the returned x is PCG's.
        assert system.n_factorizations == 1
        assert 0 < system.cg_steps < admm._CG_MAX_STEPS
        matrix = static_quadratic + sparse.diags(diagonal, format="csc")
        residual = np.linalg.norm(rhs - matrix @ x) / np.linalg.norm(rhs)
        assert residual <= admm._CG_TOLERANCE

    def test_far_diagonal_falls_back_to_a_direct_solve(self):
        system, static_quadratic, rhs, base = self._system_and_rhs()
        system.solve(base, rhs)
        far = base * np.exp(6.0 * np.cos(np.arange(base.size)))
        x = system.solve(far, rhs)
        # PCG gave up and this very solve factored: the result is direct.
        assert system.n_factorizations == 2
        assert 0 < system.cg_steps <= admm._CG_MAX_STEPS
        np.testing.assert_allclose(x, self._direct(static_quadratic, far, rhs), rtol=1e-12, atol=0)

    def test_pcg_missing_its_cap_solves_directly(self, monkeypatch):
        monkeypatch.setattr(admm, "_CG_MAX_STEPS", 1)
        system, static_quadratic, rhs, base = self._system_and_rhs()
        system.solve(base, rhs)
        diagonal = base * np.exp(0.05 * np.sin(np.arange(base.size)))
        x = system.solve(diagonal, rhs)
        assert (system.n_factorizations, system.cg_steps) == (2, 1)
        direct = self._direct(static_quadratic, diagonal, rhs)
        np.testing.assert_allclose(x, direct, rtol=1e-12, atol=0)

    def test_many_steps_refactor_on_the_next_solve(self, monkeypatch):
        monkeypatch.setattr(admm, "_REFACTOR_STEPS", 0)
        system, static_quadratic, rhs, base = self._system_and_rhs()
        diagonals = [base * np.exp(0.05 * k * np.sin(np.arange(base.size))) for k in range(4)]
        solutions = [system.solve(diagonal, rhs) for diagonal in diagonals]
        # Direct, PCG (a step > 0 drops the factor), direct, PCG.
        assert system.n_factorizations == 2
        for diagonal, x in zip(diagonals, solutions):
            np.testing.assert_allclose(
                x, self._direct(static_quadratic, diagonal, rhs), rtol=1e-10, atol=0
            )


def _fit_factoring_every_iteration(system, diagonal, rhs):
    """The solve before PCG: a fresh SuperLU factor of every ``A_k``."""
    factor = scipy.sparse.linalg.splu(system.with_diagonal(diagonal), permc_spec="NATURAL")
    return factor.solve(rhs)[system._perm_c]


class TestFitMatchesFactorEveryIteration:
    """PCG fits equal the factor-every-iteration fit up to round-off."""

    @pytest.mark.parametrize(
        "name,scale,seed,train_fraction",
        # The golden planning cases (aperiodic and periodic google) and a
        # short stretch of crs with a daily period on 300 s bins.
        [("google", 0.1, 7, 0.75), ("google", 0.3, 7, 0.75), ("crs", 0.1, 7, 0.3)],
        ids=["google-0.1", "google-0.3", "crs-0.1"],
    )
    def test_matches_reference(self, monkeypatch, name, scale, seed, train_fraction):
        from repro.nhpp.model import NHPPModel
        from repro.workloads import get_scenario

        scenario = get_scenario(name)
        train, _ = scenario.build_trace(scale=scale, seed=seed).split(train_fraction)
        bin_seconds = scenario.simulator_defaults["bin_seconds"]
        fit = NHPPModel(bin_seconds=bin_seconds).fit(train).fit_result
        monkeypatch.setattr(admm._SystemMatrix, "solve", _fit_factoring_every_iteration)
        reference = NHPPModel(bin_seconds=bin_seconds).fit(train).fit_result

        assert fit.period_bins == reference.period_bins
        assert fit.admm.n_iterations == reference.admm.n_iterations
        assert fit.admm.converged == reference.admm.converged
        assert fit.admm.n_factorizations < fit.admm.n_iterations
        np.testing.assert_allclose(
            fit.log_intensity, reference.log_intensity, rtol=0, atol=1e-8
        )
