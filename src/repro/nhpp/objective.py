"""The regularized NHPP objective of equation (1) and related primitives.

The negative log-likelihood of observing counts ``Q_t`` in intervals of
length ``delta_t`` under a piecewise-constant intensity ``exp(r_t)`` is
(up to constants)

    lkh(r) = -Q^T r + delta_t * 1^T exp(r)

and the full objective adds an L1 trend-filtering penalty on the second
difference of ``r`` and, when a period ``L`` is detected, a squared L2
penalty on the ``L``-step forward difference:

    F(r) = lkh(r) + beta1 * ||D2 r||_1 + (beta2 / 2) * ||D_L r||_2^2
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .._validation import as_1d_float_array, check_non_negative, check_positive
from ..exceptions import ValidationError
from ..timeseries.differencing import second_difference_matrix, seasonal_difference_matrix

if TYPE_CHECKING:
    from scipy import sparse

__all__ = ["soft_threshold", "RegularizedNHPPObjective"]


def soft_threshold(x: np.ndarray | float, threshold: float) -> np.ndarray | float:
    """Elementwise soft-thresholding ``sign(x) * max(|x| - threshold, 0)``.

    This is the proximal operator of ``threshold * ||.||_1`` used in line 3 of
    Algorithm 2.
    """
    threshold = check_non_negative(threshold, "threshold")
    x_arr = np.asarray(x, dtype=float)
    out = np.sign(x_arr) * np.maximum(np.abs(x_arr) - threshold, 0.0)
    return out if np.ndim(x) else float(out)


@dataclass
class RegularizedNHPPObjective:
    """Evaluates the objective (1) and exposes its building blocks.

    Parameters
    ----------
    counts:
        Observed per-interval counts ``Q_t``.
    bin_seconds:
        Interval width ``delta_t``.
    beta_smooth:
        Weight ``beta_1`` of the L1 second-difference penalty.
    beta_period:
        Weight ``beta_2`` of the squared L2 seasonal-difference penalty.
    period_bins:
        Detected period ``L`` in bins, or ``None`` / 0 to disable the
        periodicity penalty.
    """

    counts: np.ndarray
    bin_seconds: float
    beta_smooth: float
    beta_period: float
    period_bins: int | None = None

    def __post_init__(self) -> None:
        self.counts = as_1d_float_array(self.counts, "counts")
        if self.counts.size < 3:
            raise ValidationError("NHPP fitting requires at least 3 intervals")
        if np.any(self.counts < 0):
            raise ValidationError("counts must be non-negative")
        self.bin_seconds = check_positive(self.bin_seconds, "bin_seconds")
        self.beta_smooth = check_non_negative(self.beta_smooth, "beta_smooth")
        self.beta_period = check_non_negative(self.beta_period, "beta_period")
        if self.period_bins is not None and self.period_bins <= 0:
            self.period_bins = None
        if self.period_bins is not None and self.period_bins >= self.counts.size:
            # A period longer than the series cannot be penalized; drop it.
            self.period_bins = None

        n = self.counts.size
        self._d2 = second_difference_matrix(n)
        if self.period_bins is not None and self.beta_period > 0:
            self._dl = seasonal_difference_matrix(n, int(self.period_bins))
        else:
            self._dl = None

    @property
    def n_bins(self) -> int:
        """Number of intervals T."""
        return int(self.counts.size)

    @property
    def d2(self) -> sparse.csr_matrix:
        """The second-order difference operator ``D2``."""
        return self._d2

    @property
    def dl(self) -> sparse.csr_matrix | None:
        """The seasonal difference operator ``D_L`` or ``None`` if disabled."""
        return self._dl

    @property
    def has_period_penalty(self) -> bool:
        """Whether the periodicity regularization term is active."""
        return self._dl is not None

    def negative_log_likelihood(self, log_intensity: np.ndarray) -> float:
        """``-Q^T r + delta_t * sum(exp(r))`` for log-intensity ``r``."""
        r = as_1d_float_array(log_intensity, "log_intensity")
        if r.size != self.n_bins:
            raise ValidationError(
                f"log_intensity must have length {self.n_bins}, got {r.size}"
            )
        return float(-self.counts @ r + self.bin_seconds * np.exp(r).sum())

    def penalty(self, log_intensity: np.ndarray) -> float:
        """Value of the regularization terms at ``log_intensity``."""
        r = as_1d_float_array(log_intensity, "log_intensity")
        value = self.beta_smooth * float(np.abs(self._d2 @ r).sum())
        if self._dl is not None:
            seasonal_diff = self._dl @ r
            value += 0.5 * self.beta_period * float(seasonal_diff @ seasonal_diff)
        return value

    def value(self, log_intensity: np.ndarray) -> float:
        """Full objective ``F(r)``."""
        return self.negative_log_likelihood(log_intensity) + self.penalty(log_intensity)

    def initial_guess(self) -> np.ndarray:
        """Data-driven starting point: ``log(max(Q_t, 0.5) / delta_t)``.

        Empty intervals are floored at half a query so the logarithm is
        finite; the smoothness penalty pulls those bins toward their
        neighbours during the first iterations.
        """
        floored = np.maximum(self.counts, 0.5)
        return np.log(floored / self.bin_seconds)

    def maximum_likelihood_log_intensity(self) -> np.ndarray:
        """Unregularized MLE ``log(Q_t / delta_t)`` with empty-bin flooring.

        This is the estimate the paper warns about: it tracks every noisy bin
        exactly and serves as the "no regularization" ablation baseline.
        """
        floored = np.maximum(self.counts, 1e-3)
        return np.log(floored / self.bin_seconds)
