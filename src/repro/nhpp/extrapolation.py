"""Extrapolation of a fitted historical intensity into the future (module 3).

Given the per-bin intensity estimated on historical data, the query-arrival
prediction module extends it beyond the end of the training window:

* when a period ``L`` was detected, the last complete cycle(s) of the fitted
  intensity are repeated cyclically — the periodicity regularizer has already
  pulled each cycle towards the common pattern, so the last cycle is a robust
  template;
* when no period was detected, the median intensity of the trailing
  :data:`TRAILING_WINDOW_BINS` bins is held constant, which is the natural
  prediction for a locally stationary process.

Either way the forecast is an unbounded function of time: the periodic
template repeats forever and the held level never ends, so there is no
horizon to choose.
"""

from __future__ import annotations

import numpy as np

from .._validation import check_positive
from ..exceptions import ValidationError
from .intensity import PiecewiseConstantIntensity

__all__ = ["extrapolate_intensity"]

#: Number of trailing fitted bins whose median is the aperiodic forecast.
TRAILING_WINDOW_BINS = 30


def extrapolate_intensity(
    fitted_values: np.ndarray,
    bin_seconds: float,
    *,
    period_bins: int | None = None,
) -> PiecewiseConstantIntensity:
    """Build a forecast intensity starting at the end of the training window.

    Parameters
    ----------
    fitted_values:
        Historical per-bin intensity (queries per second) from the NHPP fit.
    bin_seconds:
        Bin width of the fitted intensity.
    period_bins:
        Detected period in bins, or ``None`` when the workload is aperiodic.

    Returns
    -------
    PiecewiseConstantIntensity
        Forecast intensity whose time origin is the end of the training data:
        one template cycle with ``extrapolation="periodic"``, or one held
        level with ``extrapolation="hold"``.
    """
    values = np.asarray(fitted_values, dtype=float)
    if values.ndim != 1 or values.size == 0:
        raise ValidationError("fitted_values must be a non-empty 1-D array")
    if np.any(values < 0):
        raise ValidationError("fitted_values must be non-negative")
    bin_seconds = check_positive(bin_seconds, "bin_seconds")

    if period_bins is not None and period_bins > 0 and values.size >= period_bins:
        template = _periodic_template(values, int(period_bins))
        return PiecewiseConstantIntensity(
            template, bin_seconds, extrapolation="periodic"
        )
    level = float(np.median(values[-TRAILING_WINDOW_BINS:]))
    return PiecewiseConstantIntensity(
        np.array([level]), bin_seconds, extrapolation="hold"
    )


def _periodic_template(values: np.ndarray, period_bins: int) -> np.ndarray:
    """Average the trailing complete cycles to form one template cycle.

    The template starts at the phase immediately following the last training
    bin so that "time 0 of the forecast" lines up with the correct phase of
    the cycle.
    """
    n = values.size
    n_cycles = n // period_bins
    usable = values[n - n_cycles * period_bins:]
    cycles = usable.reshape(n_cycles, period_bins)
    # Robust average across cycles: the median resists a single anomalous cycle.
    template = np.median(cycles, axis=0)
    # ``usable`` covers a whole number of cycles ending exactly at the last
    # training bin, so the template's index 0 is already the phase of the
    # first forecast bin; no further alignment is needed.
    return template
