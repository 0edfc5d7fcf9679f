"""Homogeneous Poisson baseline model and model comparison utilities.

The conventional workload model in the serverless literature is a
*homogeneous* Poisson process (constant rate).  The paper's contribution is
precisely to replace it with a regularized NHPP; this module provides the
homogeneous baseline so users (and the test suite) can quantify how much the
non-homogeneous model buys on a given workload:

* :class:`HomogeneousPoissonModel` — maximum-likelihood constant-rate fit
  with the same ``forecast()`` interface as :class:`~repro.nhpp.model.NHPPModel`;
* :func:`poisson_log_likelihood` — exact log-likelihood of a count series
  under any piecewise-constant intensity;
* :func:`compare_aic` — AIC comparison between two fitted intensities, where
  the effective number of parameters of a regularized NHPP is approximated by
  the number of distinct linear pieces of its log-intensity (the standard
  degrees-of-freedom estimate for L1 trend filtering).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._validation import check_positive
from ..exceptions import ModelNotFittedError, ValidationError
from ..types import ArrivalTrace, QPSSeries
from .intensity import PiecewiseConstantIntensity

__all__ = [
    "HomogeneousPoissonModel",
    "poisson_log_likelihood",
    "effective_degrees_of_freedom",
    "compare_aic",
    "ModelComparison",
]


class HomogeneousPoissonModel:
    """Constant-rate Poisson arrival model (the classical baseline).

    Parameters
    ----------
    bin_seconds:
        Bin width used when the model is fitted from an
        :class:`~repro.types.ArrivalTrace`; only affects the granularity of
        the returned intensity object, not the fitted rate.
    """

    def __init__(self, bin_seconds: float = 60.0) -> None:
        self.bin_seconds = check_positive(bin_seconds, "bin_seconds")
        self._rate: float | None = None

    def fit(self, data: QPSSeries | ArrivalTrace) -> "HomogeneousPoissonModel":
        """Fit the maximum-likelihood constant rate (total count / duration)."""
        if isinstance(data, QPSSeries):
            total = float(np.sum(data.counts))
            duration = data.duration
        elif isinstance(data, ArrivalTrace):
            total = float(data.n_queries)
            duration = data.horizon
        else:
            raise ValidationError(
                f"data must be a QPSSeries or ArrivalTrace, got {type(data).__name__}"
            )
        if duration <= 0:
            raise ValidationError("cannot fit a rate on a zero-length observation window")
        self._rate = total / duration
        return self

    @property
    def is_fitted(self) -> bool:
        """Whether :meth:`fit` has been called."""
        return self._rate is not None

    @property
    def rate(self) -> float:
        """The fitted arrival rate in queries per second."""
        if self._rate is None:
            raise ModelNotFittedError("HomogeneousPoissonModel must be fitted before use")
        return self._rate

    def forecast(self, horizon_seconds: float | None = None) -> PiecewiseConstantIntensity:
        """Constant-rate forecast (the rate is held forever)."""
        del horizon_seconds  # the constant rate needs no explicit horizon
        return PiecewiseConstantIntensity(
            np.array([self.rate]), self.bin_seconds, extrapolation="hold"
        )

    def expected_count(self, start: float, end: float) -> float:
        """Expected number of arrivals in ``[start, end)``."""
        if end < start:
            raise ValidationError(f"end ({end}) must be >= start ({start})")
        return self.rate * (end - start)


def poisson_log_likelihood(
    counts: np.ndarray,
    intensity_values: np.ndarray,
    bin_seconds: float,
) -> float:
    """Exact Poisson log-likelihood of ``counts`` under a per-bin intensity.

    Parameters
    ----------
    counts:
        Observed counts ``Q_t`` per bin.
    intensity_values:
        Intensity (queries per second) per bin; must be positive where the
        count is positive.
    bin_seconds:
        Bin width ``delta_t``.
    """
    counts = np.asarray(counts, dtype=float)
    values = np.asarray(intensity_values, dtype=float)
    if counts.shape != values.shape:
        raise ValidationError(
            f"counts and intensity_values must have the same shape, got "
            f"{counts.shape} and {values.shape}"
        )
    check_positive(bin_seconds, "bin_seconds")
    if np.any(values < 0):
        raise ValidationError("intensity_values must be non-negative")
    # Imported here: scipy is slow to import and only fits and diagnostics use it.
    from scipy import special

    means = values * bin_seconds
    if np.any((means == 0) & (counts > 0)):
        return float("-inf")
    safe_means = np.where(means > 0, means, 1.0)
    log_pmf = counts * np.log(safe_means) - means - special.gammaln(counts + 1.0)
    log_pmf = np.where((means == 0) & (counts == 0), 0.0, log_pmf)
    return float(np.sum(log_pmf))


def effective_degrees_of_freedom(log_intensity: np.ndarray, *, tolerance: float = 1e-4) -> int:
    """Degrees of freedom of an L1-trend-filtered log-intensity.

    For L1 trend filtering the standard unbiased estimate of the degrees of
    freedom is the number of knots plus two — equivalently the number of
    distinct linear pieces plus one.  A constant-rate model therefore gets 1,
    matching its single parameter.
    """
    r = np.asarray(log_intensity, dtype=float)
    if r.size < 3:
        return int(r.size)
    second_diff = np.abs(np.diff(r, n=2))
    knots = int(np.count_nonzero(second_diff > tolerance))
    return knots + 2


@dataclass(frozen=True)
class ModelComparison:
    """Outcome of an AIC comparison between two intensity estimates.

    Attributes
    ----------
    log_likelihood_a, log_likelihood_b:
        Poisson log-likelihoods of the two candidates on the same counts.
    dof_a, dof_b:
        Effective parameter counts.
    aic_a, aic_b:
        Akaike information criteria (lower is better).
    preferred:
        ``"a"`` or ``"b"``.
    """

    log_likelihood_a: float
    log_likelihood_b: float
    dof_a: int
    dof_b: int
    aic_a: float
    aic_b: float
    preferred: str


def compare_aic(
    counts: np.ndarray,
    bin_seconds: float,
    intensity_a: np.ndarray,
    intensity_b: np.ndarray,
    *,
    dof_a: int | None = None,
    dof_b: int | None = None,
) -> ModelComparison:
    """AIC comparison of two per-bin intensity estimates on the same counts.

    Degrees of freedom default to the trend-filtering estimate of
    :func:`effective_degrees_of_freedom` applied to the log of each estimate.
    """
    counts = np.asarray(counts, dtype=float)
    a = np.asarray(intensity_a, dtype=float)
    b = np.asarray(intensity_b, dtype=float)
    if dof_a is None:
        dof_a = effective_degrees_of_freedom(np.log(np.maximum(a, 1e-300)))
    if dof_b is None:
        dof_b = effective_degrees_of_freedom(np.log(np.maximum(b, 1e-300)))
    ll_a = poisson_log_likelihood(counts, a, bin_seconds)
    ll_b = poisson_log_likelihood(counts, b, bin_seconds)
    aic_a = 2.0 * dof_a - 2.0 * ll_a
    aic_b = 2.0 * dof_b - 2.0 * ll_b
    return ModelComparison(
        log_likelihood_a=ll_a,
        log_likelihood_b=ll_b,
        dof_a=int(dof_a),
        dof_b=int(dof_b),
        aic_a=aic_a,
        aic_b=aic_b,
        preferred="a" if aic_a <= aic_b else "b",
    )
