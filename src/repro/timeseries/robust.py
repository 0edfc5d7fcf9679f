"""Robust statistics: MAD, robust z-scores, winsorizing, median filtering.

Real-world QPS traces carry outliers, bursts and missing intervals.  The
periodicity detector clips or down-weights such points using the estimators
in this module, which is what makes the pipeline "robust" in the sense of
the paper (robust periodicity detection, refs. [18], [19]).
"""

from __future__ import annotations

import numpy as np

from .._validation import as_1d_float_array, check_integer, check_positive
from ..exceptions import ValidationError

__all__ = ["mad", "robust_zscore", "winsorize", "median_filter"]

#: Scale factor that makes the MAD a consistent estimator of the standard
#: deviation under a normal distribution.
_MAD_TO_SIGMA = 1.4826


def mad(values: np.ndarray, *, scale_to_sigma: bool = True) -> float:
    """Median absolute deviation of ``values``.

    Parameters
    ----------
    values:
        Input series.
    scale_to_sigma:
        When ``True`` (default) the MAD is multiplied by 1.4826 so that it is
        comparable to a standard deviation for Gaussian data.
    """
    values = as_1d_float_array(values, "values")
    if values.size == 0:
        raise ValidationError("mad requires at least one observation")
    deviation = float(np.median(np.abs(values - np.median(values))))
    return deviation * _MAD_TO_SIGMA if scale_to_sigma else deviation


def robust_zscore(values: np.ndarray) -> np.ndarray:
    """Robust z-scores: (x - median) / MAD.

    A constant series gets all-zero scores instead of dividing by zero.
    """
    values = as_1d_float_array(values, "values")
    scale = mad(values)
    if scale <= 0:
        return np.zeros_like(values)
    return (values - np.median(values)) / scale


def winsorize(values: np.ndarray, *, z_limit: float = 5.0) -> np.ndarray:
    """Clip observations whose robust z-score exceeds ``z_limit``.

    Returns a new array; points within the limit are untouched.
    """
    values = as_1d_float_array(values, "values")
    check_positive(z_limit, "z_limit")
    scale = mad(values)
    if scale <= 0:
        return values.copy()
    center = np.median(values)
    low = center - z_limit * scale
    high = center + z_limit * scale
    return np.clip(values, low, high)


def median_filter(values: np.ndarray, window: int) -> np.ndarray:
    """Running median with a centered window that shrinks at the edges."""
    values = as_1d_float_array(values, "values")
    window = check_integer(window, "window", minimum=1)
    if window == 1 or values.size == 0:
        return values.copy()
    half = window // 2
    out = np.empty_like(values)
    for i in range(values.size):
        start = max(0, i - half)
        end = min(values.size, i + half + 1)
        out[i] = np.median(values[start:end])
    return out
