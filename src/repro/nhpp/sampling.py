"""Exact samplers for (non-)homogeneous Poisson processes.

Three sampling tasks appear in the pipeline:

* generating synthetic workload traces from a known intensity
  (:func:`sample_arrival_times`);
* generating per-bin counts for QPS-level simulations (:func:`sample_counts`);
* drawing Monte Carlo samples of the arrival times of the next ``K`` queries
  given a forecast intensity, which is what the stochastically constrained
  optimizer consumes (:func:`sample_next_arrivals`).

For a piecewise-constant intensity the first two are exact via per-bin
Poisson counts with uniform placement; the third uses the time-rescaling
representation: the ``i``-th arrival after time 0 occurs where the integrated
intensity reaches a ``Gamma(i, 1)`` variate.
"""

from __future__ import annotations

import numpy as np

from .._validation import check_integer, check_non_negative, check_positive
from ..exceptions import ValidationError
from ..rng import RandomState, ensure_rng
from .intensity import PiecewiseConstantIntensity

__all__ = [
    "sample_counts",
    "sample_arrival_times",
    "sample_next_arrivals",
    "sample_homogeneous_arrivals",
]


def sample_counts(
    intensity: PiecewiseConstantIntensity,
    horizon_seconds: float,
    random_state: RandomState = None,
) -> np.ndarray:
    """Sample per-bin Poisson counts over ``[0, horizon_seconds)``.

    The returned array has one entry per ``intensity.bin_seconds`` bin.
    """
    check_positive(horizon_seconds, "horizon_seconds")
    rng = ensure_rng(random_state)
    n_bins = int(np.ceil(horizon_seconds / intensity.bin_seconds))
    times = (np.arange(n_bins) + 0.5) * intensity.bin_seconds
    rates = np.asarray(intensity.value(times), dtype=float) * intensity.bin_seconds
    # The final bin may be truncated by the horizon.
    last_width = horizon_seconds - (n_bins - 1) * intensity.bin_seconds
    rates[-1] *= last_width / intensity.bin_seconds
    return rng.poisson(np.maximum(rates, 0.0))


def sample_arrival_times(
    intensity: PiecewiseConstantIntensity,
    horizon_seconds: float,
    random_state: RandomState = None,
    *,
    vectorized: bool = False,
) -> np.ndarray:
    """Sample exact NHPP arrival times over ``[0, horizon_seconds)``.

    For each bin the number of arrivals is Poisson with mean
    ``lambda_bin * width`` and, conditionally on the count, the arrival times
    are i.i.d. uniform in the bin — the standard exact construction for
    piecewise-constant intensities.

    ``vectorized=True`` selects the bulk construction — one
    ``rng.poisson`` call over all bins, bin offsets placed with a single
    uniform draw via ``np.repeat`` — which samples from exactly the same
    distribution and is orders of magnitude faster on long horizons
    (~200x at 1e5 bins), but consumes the random stream in a different
    order: the same seed yields a different (equally valid) realization
    than the default per-bin loop.  The flag is opt-in so seeded baselines
    recorded with the loop construction stay bit-for-bit reproducible.
    """
    check_positive(horizon_seconds, "horizon_seconds")
    rng = ensure_rng(random_state)
    bin_seconds = intensity.bin_seconds
    n_bins = int(np.ceil(horizon_seconds / bin_seconds))
    if vectorized:
        starts = np.arange(n_bins) * bin_seconds
        widths = np.minimum(starts + bin_seconds, horizon_seconds) - starts
        keep = widths > 0
        starts, widths = starts[keep], widths[keep]
        rates = np.asarray(
            intensity.value(starts + 0.5 * widths), dtype=float
        ) * widths
        counts = rng.poisson(np.maximum(rates, 0.0))
        total = int(counts.sum())
        if total == 0:
            return np.empty(0)
        offsets = rng.uniform(0.0, 1.0, size=total) * np.repeat(widths, counts)
        out = np.repeat(starts, counts) + offsets
        out.sort()
        return out
    arrivals: list[np.ndarray] = []
    for b in range(n_bins):
        start = b * bin_seconds
        end = min((b + 1) * bin_seconds, horizon_seconds)
        width = end - start
        if width <= 0:
            continue
        rate = float(intensity.value(start + 0.5 * width)) * width
        count = int(rng.poisson(max(rate, 0.0)))
        if count:
            arrivals.append(start + rng.uniform(0.0, width, size=count))
    if not arrivals:
        return np.empty(0)
    out = np.concatenate(arrivals)
    out.sort()
    return out


def sample_next_arrivals(
    intensity: PiecewiseConstantIntensity,
    n_arrivals: int,
    n_samples: int,
    random_state: RandomState = None,
    *,
    first: int = 0,
) -> np.ndarray:
    """Monte Carlo samples of the arrival times of the next ``n_arrivals`` queries.

    Parameters
    ----------
    intensity:
        Forecast intensity whose origin is "now".
    n_arrivals:
        Number of upcoming arrivals ``K`` to sample.
    n_samples:
        Number of Monte Carlo replications ``R``.
    random_state:
        Seed or generator.
    first:
        Index of the first upcoming query whose samples are returned.  The
        random stream is consumed exactly as for ``first=0`` and the result
        equals that draw's ``[:, first:]``; only the returned columns pay for
        the inversion of the cumulative intensity.

    Returns
    -------
    numpy.ndarray
        Array of shape ``(n_samples, n_arrivals - first)`` where column ``i``
        holds samples of the arrival time of the ``(first+i+1)``-th upcoming
        query.

    Notes
    -----
    The construction uses the time-rescaling theorem: with
    ``Lambda(t) = int_0^t lambda``, the ``i``-th arrival time equals
    ``Lambda^{-1}(gamma_i)`` with ``gamma_i ~ Gamma(i, 1)``.  Sampling the
    cumulative sums of ``n_arrivals`` unit exponentials per replication gives
    all the Gamma variates at once.
    """
    check_integer(n_arrivals, "n_arrivals", minimum=1)
    check_integer(n_samples, "n_samples", minimum=1)
    check_integer(first, "first", minimum=0)
    if first >= n_arrivals:
        raise ValidationError(f"first must be below n_arrivals={n_arrivals}, got {first}")
    rng = ensure_rng(random_state)
    exponentials = rng.exponential(1.0, size=(n_samples, n_arrivals))
    gammas = np.cumsum(exponentials, axis=1)[:, first:]
    flat = gammas.reshape(-1)
    times = np.asarray(intensity.inverse_cumulative(flat), dtype=float)
    return times.reshape(gammas.shape)


def sample_homogeneous_arrivals(
    rate: float,
    horizon_seconds: float,
    random_state: RandomState = None,
) -> np.ndarray:
    """Sample arrival times of a homogeneous Poisson process with ``rate`` per second."""
    check_non_negative(rate, "rate")
    check_positive(horizon_seconds, "horizon_seconds")
    rng = ensure_rng(random_state)
    if rate == 0:
        return np.empty(0)
    count = int(rng.poisson(rate * horizon_seconds))
    if count == 0:
        return np.empty(0)
    times = rng.uniform(0.0, horizon_seconds, size=count)
    times.sort()
    return times
