"""Goodness-of-fit diagnostics for fitted NHPP models.

The time-rescaling theorem states that if arrivals ``xi_1 < xi_2 < ...``
follow an NHPP with integrated intensity ``Lambda``, then the rescaled
interarrival times ``Lambda(xi_i) - Lambda(xi_{i-1})`` are i.i.d. unit
exponentials.  Comparing the empirical distribution of the rescaled
interarrivals against ``Exp(1)`` with a Kolmogorov-Smirnov statistic gives a
simple, model-agnostic goodness-of-fit check that we expose both as a
diagnostic for users and as a regression test for the fitter.
"""

from __future__ import annotations

import numpy as np

from .._validation import as_1d_float_array, check_sorted
from ..exceptions import ValidationError
from .intensity import PiecewiseConstantIntensity

__all__ = ["rescaled_interarrival_times", "ks_statistic_time_rescaling"]


def rescaled_interarrival_times(
    arrival_times: np.ndarray,
    intensity: PiecewiseConstantIntensity,
) -> np.ndarray:
    """Map arrival times through the integrated intensity and difference them.

    Returns the sequence ``Lambda(xi_i) - Lambda(xi_{i-1})`` (with
    ``Lambda(xi_0) := Lambda(0) = 0``), which is i.i.d. ``Exp(1)`` when the
    model is correct.
    """
    arrivals = as_1d_float_array(arrival_times, "arrival_times")
    check_sorted(arrivals, "arrival_times")
    if arrivals.size < 2:
        raise ValidationError("need at least two arrivals to compute interarrival times")
    cumulative = np.asarray(intensity.cumulative(arrivals), dtype=float)
    rescaled = np.diff(np.concatenate([[0.0], cumulative]))
    return rescaled


def ks_statistic_time_rescaling(
    arrival_times: np.ndarray,
    intensity: PiecewiseConstantIntensity,
) -> tuple[float, float]:
    """Kolmogorov-Smirnov test of the rescaled interarrivals against Exp(1).

    Returns
    -------
    tuple
        ``(statistic, p_value)`` from :func:`scipy.stats.kstest`.
    """
    # Imported here: scipy.stats is slow to import and only this diagnostic uses it.
    from scipy import stats

    rescaled = rescaled_interarrival_times(arrival_times, intensity)
    result = stats.kstest(rescaled, "expon")
    return float(result.statistic), float(result.pvalue)
