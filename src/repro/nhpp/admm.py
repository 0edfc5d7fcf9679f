"""Linearized ADMM for the regularized NHPP objective (Algorithm 2).

The objective (1) is split with auxiliary variables ``y = D2 r`` and
``z = D_L r``.  The ``y`` and ``z`` subproblems have closed-form proximal
solutions (soft-thresholding and ridge shrinkage); the ``r`` subproblem is
solved after a second-order Taylor expansion of the exponential likelihood
term around the current iterate, which reduces it to one sparse banded linear
system per iteration:

    A_k r_{k+1} = B_k
    A_k = delta_t * diag(exp(r_k)) + rho * D2^T D2 + rho * D_L^T D_L
    B_k = Q - delta_t * exp(r_k) + delta_t * diag(exp(r_k)) r_k
          + D2^T (nu_y + rho y) + D_L^T (nu_z + rho z)

The matrices are banded with bandwidth ``O(L)``, so a factorization costs
``O(T L^2)`` as discussed in Section V of the paper.  Only the diagonal
``delta_t * exp(r_k)`` changes between iterations, so the fit does not factor
every ``A_k``: it keeps one sparse LU factor and solves the following systems
by conjugate gradient preconditioned with it, refactoring only when the
solves start to need more than a few steps (see :class:`_SystemMatrix`).
Each solution is either direct or has a relative residual of at most
:data:`_CG_TOLERANCE`, so the iterates match a factor-every-iteration fit up
to round-off.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..config import ADMMConfig
from ..exceptions import ConvergenceError, ValidationError
from .objective import RegularizedNHPPObjective, soft_threshold

if TYPE_CHECKING:
    from scipy import sparse

__all__ = ["ADMMResult", "fit_log_intensity"]

#: Augmented-Lagrangian penalty parameter ``rho > 0``.
RHO = 10.0

#: Log-intensities are clipped to this symmetric range before exponentiation
#: to keep the Taylor-expanded subproblem numerically stable.
_LOG_INTENSITY_CLIP = 30.0

#: Number of trailing iterations over which the objective must be flat for
#: the objective-stagnation stopping rule to fire.
_OBJECTIVE_WINDOW = 10

#: Relative residual ``||b - A_k x|| / ||b||`` at which a PCG solve stops.
_CG_TOLERANCE = 1e-12

#: A PCG solve that needs more steps than this makes the next solve refactor.
_REFACTOR_STEPS = 4

#: PCG steps after which a solve gives up, factors ``A_k`` and solves directly.
_CG_MAX_STEPS = 20


@dataclass
class ADMMResult:
    """Outcome of an ADMM run.

    Attributes
    ----------
    log_intensity:
        The fitted log-intensity vector ``r``.
    converged:
        Whether the residual tolerance was met within the iteration budget.
    n_iterations:
        Number of iterations performed.
    objective_value:
        Final value of the objective (1).
    n_factorizations:
        Sparse LU factorizations of ``A_k`` over the run.
    cg_steps:
        Preconditioned conjugate-gradient steps over the run.
    """

    log_intensity: np.ndarray
    converged: bool
    n_iterations: int
    objective_value: float
    n_factorizations: int
    cg_steps: int


class _SystemMatrix:
    """Solves ``A_k x = b`` with ``A_k = static_quadratic + diag(d_k)``, assembled once.

    ``A_k`` differs from the static quadratic only on its diagonal, so its
    CSC structure is built once and :meth:`with_diagonal` overwrites the
    diagonal entries in place.  The static quadratic is put in canonical form
    first (sorted indices, which ``splu`` would otherwise impose in place).
    Its diagonal is a sum of squares, so adding a positive ``d_k`` drops no
    entry: the pattern is the same for every ``A_k``.

    SuperLU's column order (COLAMD, then the elimination tree's postorder)
    depends on that pattern only, so it is taken once, from a factorization
    of the assembled matrix.  The stored matrix is ``A_k`` with its columns
    already in that order and is factored with ``permc_spec="NATURAL"``.

    A factor is kept across iterations.  :meth:`solve` runs conjugate
    gradient on ``A_k``, preconditioned by the kept factor of an earlier
    ``A_j`` and warm-started from the previous solution, until the relative
    residual is at most :data:`_CG_TOLERANCE`.  The next call refactors when
    a solve took more than :data:`_REFACTOR_STEPS` steps; a solve that misses
    the tolerance within :data:`_CG_MAX_STEPS` factors ``A_k`` and solves
    directly.  CG needs a symmetric operator, and the column-permuted matrix
    is not one, so it runs in the original coordinates: the matvec gathers
    ``x`` into the stored column order and the preconditioner permutes the
    factor's solution back.
    """

    def __init__(self, static_quadratic: sparse.csc_matrix) -> None:
        # Imported here: scipy is slow to import and only the fit uses it.
        from scipy import sparse
        from scipy.sparse.linalg import splu

        static_quadratic.sum_duplicates()
        n = static_quadratic.shape[0]
        assembled = static_quadratic + sparse.identity(n, format="csc")
        # Column i of A_k is column perm_c[i] of the permuted matrix.
        self._perm_c = splu(assembled).perm_c
        self._source_column = np.argsort(self._perm_c)
        self.matrix = assembled[:, self._source_column]
        columns = self._source_column[np.repeat(np.arange(n), np.diff(self.matrix.indptr))]
        diagonal_entries = np.flatnonzero(self.matrix.indices == columns)
        # Ordered by column of A_k, so d_k is added without a gather.
        self._diagonal_entries = diagonal_entries[self._perm_c]
        self._static_diagonal = static_quadratic.diagonal()
        self._factor = None
        self._solution: np.ndarray | None = None
        self.n_factorizations = 0
        self.cg_steps = 0

    def with_diagonal(self, diagonal: np.ndarray) -> sparse.csc_matrix:
        """The column-permuted matrix with ``diagonal`` added to the static diagonal."""
        self.matrix.data[self._diagonal_entries] = self._static_diagonal + diagonal
        return self.matrix

    def solve(self, diagonal: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """``x`` with ``(static_quadratic + diag(diagonal)) x = rhs``."""
        matrix = self.with_diagonal(diagonal)
        solution = None
        if self._factor is not None:
            solution, steps = self._conjugate_gradient(matrix, rhs)
            self.cg_steps += steps
            if steps > _REFACTOR_STEPS:
                self._factor = None
        if solution is None:
            from scipy.sparse.linalg import splu

            self._factor = splu(matrix, permc_spec="NATURAL")
            self.n_factorizations += 1
            solution = self._factor.solve(rhs)[self._perm_c]
        self._solution = solution
        return solution

    def _conjugate_gradient(
        self, matrix: sparse.csc_matrix, rhs: np.ndarray
    ) -> tuple[np.ndarray | None, int]:
        """PCG from the previous solution: ``(x, steps)``, ``x`` is ``None`` if it missed."""
        source_column = self._source_column
        perm_c = self._perm_c
        factor = self._factor
        tolerance = _CG_TOLERANCE * float(np.linalg.norm(rhs))
        x = self._solution.copy()
        residual = rhs - matrix @ x[source_column]
        if np.linalg.norm(residual) <= tolerance:
            return x, 0
        preconditioned = factor.solve(residual)[perm_c]
        direction = preconditioned
        alignment = float(residual @ preconditioned)
        for step in range(1, _CG_MAX_STEPS + 1):
            product = matrix @ direction[source_column]
            alpha = alignment / float(direction @ product)
            x += alpha * direction
            residual -= alpha * product
            if np.linalg.norm(residual) <= tolerance:
                # The recurred residual drifts from the true one; accept only
                # a solution whose true residual meets the tolerance.
                true_residual = np.linalg.norm(rhs - matrix @ x[source_column])
                return (x if true_residual <= tolerance else None), step
            preconditioned = factor.solve(residual)[perm_c]
            next_alignment = float(residual @ preconditioned)
            direction = preconditioned + (next_alignment / alignment) * direction
            alignment = next_alignment
        return None, _CG_MAX_STEPS


def fit_log_intensity(
    objective: RegularizedNHPPObjective,
    config: ADMMConfig | None = None,
    *,
    initial_guess: np.ndarray | None = None,
    raise_on_no_convergence: bool = False,
) -> ADMMResult:
    """Run Algorithm 2 on ``objective`` and return the fitted log-intensity.

    Parameters
    ----------
    objective:
        The regularized NHPP objective to minimize.
    config:
        ADMM hyper-parameters; defaults to :class:`~repro.config.ADMMConfig`.
    initial_guess:
        Optional warm start for ``r``; defaults to the data-driven guess of
        the objective.
    raise_on_no_convergence:
        When ``True`` a :class:`~repro.exceptions.ConvergenceError` is raised
        if the tolerance is not reached; by default the best iterate is
        returned with ``converged=False``.
    """
    cfg = config or ADMMConfig()
    rho = RHO
    d2 = objective.d2
    dl = objective.dl
    counts = objective.counts
    delta_t = objective.bin_seconds
    n = objective.n_bins

    r = objective.initial_guess() if initial_guess is None else np.array(initial_guess, dtype=float)
    if r.shape != (n,):
        raise ValidationError(f"initial_guess must have shape ({n},), got {r.shape}")

    y = d2 @ r
    nu_y = np.zeros(d2.shape[0])
    if dl is not None:
        z = dl @ r
        nu_z = np.zeros(dl.shape[0])
    else:
        z = None
        nu_z = None

    # Transposed views, built once rather than on every product below.
    d2_t = d2.T
    dl_t = None if dl is None else dl.T
    static_quadratic = rho * (d2_t @ d2).tocsc()
    if dl is not None:
        static_quadratic = static_quadratic + rho * (dl_t @ dl).tocsc()
    system = _SystemMatrix(static_quadratic)

    recent_objectives: list[float] = []
    eps_abs = cfg.tolerance * 1e-2
    sqrt_m = np.sqrt(max(d2.shape[0] + (dl.shape[0] if dl is not None else 0), 1))
    sqrt_n = np.sqrt(max(n, 1))

    converged = False
    iteration = 0
    for iteration in range(1, cfg.max_iterations + 1):
        r_clipped = np.clip(r, -_LOG_INTENSITY_CLIP, _LOG_INTENSITY_CLIP)
        exp_r = np.exp(r_clipped)

        # --- r update: solve the sparse banded normal equations A_k r = B_k.
        b_vector = (
            counts
            - delta_t * exp_r
            + delta_t * exp_r * r
            + d2_t @ (nu_y + rho * y)
        )
        if dl is not None:
            b_vector = b_vector + dl_t @ (nu_z + rho * z)
        r_new = system.solve(delta_t * exp_r, b_vector)
        r_new = np.clip(r_new, -_LOG_INTENSITY_CLIP, _LOG_INTENSITY_CLIP)

        # --- y update: proximal operator of beta1 * ||.||_1.
        d2_r = d2 @ r_new
        y_new = soft_threshold(d2_r - nu_y / rho, objective.beta_smooth / rho)

        # --- z update: ridge shrinkage.
        if dl is not None:
            dl_r = dl @ r_new
            z_new = (rho * dl_r - nu_z) / (objective.beta_period + rho)
        else:
            dl_r = None
            z_new = None

        # --- dual updates.
        nu_y = nu_y + rho * (y_new - d2_r)
        if dl is not None:
            nu_z = nu_z + rho * (z_new - dl_r)

        # --- residuals (Boyd et al. 2011, section 3.3).
        primal = float(np.linalg.norm(y_new - d2_r))
        dual = float(rho * np.linalg.norm(d2_t @ (y_new - y)))
        split_norm = max(float(np.linalg.norm(d2_r)), float(np.linalg.norm(y_new)))
        dual_scale_vec = d2_t @ nu_y
        if dl is not None:
            primal = float(np.hypot(primal, np.linalg.norm(z_new - dl_r)))
            dual = float(np.hypot(dual, rho * np.linalg.norm(dl_t @ (z_new - z))))
            split_norm = max(
                split_norm, float(np.linalg.norm(dl_r)), float(np.linalg.norm(z_new))
            )
            dual_scale_vec = dual_scale_vec + dl_t @ nu_z
        step = float(np.linalg.norm(r_new - r) / (np.linalg.norm(r) + 1e-12))

        r, y = r_new, y_new
        if dl is not None:
            z = z_new

        current_objective = objective.value(r)
        recent_objectives.append(current_objective)

        eps_primal = sqrt_m * eps_abs + cfg.tolerance * split_norm
        eps_dual = sqrt_n * eps_abs + cfg.tolerance * float(np.linalg.norm(dual_scale_vec))
        residuals_small = primal <= eps_primal and dual <= eps_dual

        # Practical stopping rules for the slow tail of ADMM: the iterate has
        # stopped moving, or the objective has been flat over the last window
        # of iterations.  Both only apply after a warm-up because the first
        # iterate can coincide exactly with the initial guess.
        stagnated = iteration >= 10 and step < eps_abs
        objective_flat = False
        if iteration >= 20 and len(recent_objectives) >= _OBJECTIVE_WINDOW:
            window_values = recent_objectives[-_OBJECTIVE_WINDOW:]
            spread = max(window_values) - min(window_values)
            objective_flat = spread <= cfg.tolerance * 1e-2 * max(1.0, abs(current_objective))
        if residuals_small or stagnated or objective_flat:
            converged = True
            break

    if not converged and raise_on_no_convergence:
        raise ConvergenceError(
            f"ADMM did not converge within {cfg.max_iterations} iterations "
            f"(last primal residual {primal:.3e}, dual {dual:.3e})"
        )

    return ADMMResult(
        log_intensity=r,
        converged=converged,
        n_iterations=iteration,
        objective_value=objective.value(r),
        n_factorizations=system.n_factorizations,
        cg_steps=system.cg_steps,
    )
