"""Synthetic workload generators standing in for the paper's three traces.

Each generator builds a non-negative intensity profile (queries per second)
on a regular grid, multiplies in noise, and samples an exact NHPP realization
from it.  The three named generators reproduce the structural features that
drive the paper's experiments:

* :func:`generate_crs_like_trace` — very low traffic, strong weekly + daily
  pattern, heavy multiplicative noise and occasional empty stretches, long
  processing times (container image builds);
* :func:`generate_google_like_trace` — moderate traffic over one day with
  recurrent sub-daily spikes;
* :func:`generate_alibaba_like_trace` — higher traffic over several days with
  a daily pattern and one large unexpected burst (the anomaly the robustness
  experiment removes).

The paper's closed-form intensities (the scalability study of Table I and
the regularization study of Table III) are beta bumps sampled on a bin grid:
:func:`periodic_bump_intensity` builds one.
"""

from __future__ import annotations

import numpy as np

from .._validation import check_non_negative, check_positive
from ..exceptions import ValidationError
from ..nhpp.intensity import PiecewiseConstantIntensity
from ..nhpp.sampling import sample_arrival_times
from ..rng import RandomState, ensure_rng
from ..types import ArrivalTrace

__all__ = [
    "beta_bump_intensity",
    "periodic_bump_intensity",
    "generate_trace_from_intensity",
    "generate_crs_like_trace",
    "generate_google_like_trace",
    "generate_alibaba_like_trace",
]

_DAY = 86_400.0
_HOUR = 3_600.0
_WEEK = 7 * _DAY


def beta_bump_intensity(
    t: np.ndarray,
    *,
    peak: float,
    period_seconds: float,
    exponent: float,
    base: float,
) -> np.ndarray:
    """The paper's beta-shaped periodic intensity family.

    Evaluates ``peak * 4^e * u^e * (1 - u)^e + base`` with
    ``u = (t mod period) / period``; the normalization ``4^e`` makes the bump
    peak exactly at ``peak + base`` in the middle of each period.
    """
    check_positive(period_seconds, "period_seconds")
    check_non_negative(peak, "peak")
    check_non_negative(base, "base")
    check_positive(exponent, "exponent")
    u = np.mod(np.asarray(t, dtype=float), period_seconds) / period_seconds
    return peak * (4.0**exponent) * (u**exponent) * ((1.0 - u) ** exponent) + base


def periodic_bump_intensity(
    *,
    peak: float,
    period_seconds: float,
    exponent: float,
    base: float,
    horizon_seconds: float,
    bin_seconds: float,
) -> PiecewiseConstantIntensity:
    """:func:`beta_bump_intensity` on ``int(horizon / bin)`` bins, repeated periodically.

    Each bin holds the bump's value at the bin midpoint; beyond the horizon
    the profile repeats (``extrapolation="periodic"``).
    """
    times = (np.arange(int(horizon_seconds / bin_seconds)) + 0.5) * bin_seconds
    values = beta_bump_intensity(
        times, peak=peak, period_seconds=period_seconds, exponent=exponent, base=base
    )
    return PiecewiseConstantIntensity(values, bin_seconds, extrapolation="periodic")


def generate_trace_from_intensity(
    intensity: PiecewiseConstantIntensity,
    horizon_seconds: float,
    *,
    processing_time_mean: float = 20.0,
    processing_time_distribution: str = "exponential",
    name: str | None = None,
    random_state: RandomState = None,
    vectorized: bool = False,
) -> ArrivalTrace:
    """Sample an :class:`~repro.types.ArrivalTrace` from an intensity.

    Parameters
    ----------
    intensity:
        Ground-truth intensity.
    horizon_seconds:
        Length of the generated trace.
    processing_time_mean:
        Mean query processing time in seconds.
    processing_time_distribution:
        ``"exponential"``, ``"lognormal"`` (sigma 0.5) or ``"bimodal"``
        (cold/warm lognormal mixture: 15% of queries pay an 8x cold-start
        premium, mixture mean equal to ``processing_time_mean``).
    name:
        Trace name; defaults to ``"synthetic"``.
    random_state:
        Seed or generator.
    vectorized:
        Use the bulk arrival sampler (see
        :func:`repro.nhpp.sampling.sample_arrival_times`); much faster on
        long horizons but consumes the random stream in a different order,
        so seeded traces differ from the default construction.
    """
    check_positive(horizon_seconds, "horizon_seconds")
    check_non_negative(processing_time_mean, "processing_time_mean")
    rng = ensure_rng(random_state)
    arrivals = sample_arrival_times(intensity, horizon_seconds, rng, vectorized=vectorized)
    processing = _sample_processing_times(
        arrivals.size, processing_time_mean, processing_time_distribution, rng
    )
    return ArrivalTrace(arrivals, processing, name=name or "synthetic", horizon=horizon_seconds)


#: Cold/warm mixture parameters of the ``"bimodal"`` processing-time family:
#: this fraction of queries lands on a cold instance ...
_BIMODAL_COLD_FRACTION = 0.15
#: ... and pays this multiple of the warm-path mean (container pull, model
#: load, JIT warm-up), so the two modes are clearly separated.
_BIMODAL_COLD_MULTIPLIER = 8.0
#: Log-scale spreads of the warm and cold modes (warm executions cluster
#: tightly; cold starts are more dispersed).
_BIMODAL_WARM_SIGMA = 0.2
_BIMODAL_COLD_SIGMA = 0.35


def _lognormal_with_mean(
    mean: float, sigma: float, size: int, rng: np.random.Generator
) -> np.ndarray:
    mu = np.log(mean) - 0.5 * sigma**2
    return rng.lognormal(mu, sigma, size=size)


def _sample_processing_times(
    count: int,
    mean: float,
    distribution: str,
    rng: np.random.Generator,
) -> np.ndarray:
    # Checked first, so an empty trace or a zero mean rejects an unknown
    # family too.
    if distribution not in ("exponential", "lognormal", "bimodal"):
        raise ValidationError(
            "processing_time_distribution must be 'exponential', 'lognormal' "
            f"or 'bimodal', got {distribution!r}"
        )
    if count == 0:
        return np.empty(0)
    if mean == 0:
        return np.zeros(count)
    if distribution == "exponential":
        return rng.exponential(mean, size=count)
    if distribution == "lognormal":
        return _lognormal_with_mean(mean, 0.5, count, rng)
    # Cold/warm mixture: most queries run on a warm instance, a minority
    # pays the cold-start premium.  The warm-mode mean is chosen so the
    # mixture's expectation equals ``mean``, keeping scenarios with this
    # family comparable to unimodal ones at the same nominal mean.
    warm_mean = mean / (
        1.0 - _BIMODAL_COLD_FRACTION
        + _BIMODAL_COLD_FRACTION * _BIMODAL_COLD_MULTIPLIER
    )
    cold = rng.random(count) < _BIMODAL_COLD_FRACTION
    times = _lognormal_with_mean(warm_mean, _BIMODAL_WARM_SIGMA, count, rng)
    n_cold = int(cold.sum())
    if n_cold:
        times[cold] = _lognormal_with_mean(
            warm_mean * _BIMODAL_COLD_MULTIPLIER,
            _BIMODAL_COLD_SIGMA,
            n_cold,
            rng,
        )
    return times


def _noisy(
    values: np.ndarray,
    noise_level: float,
    rng: np.random.Generator,
    *,
    correlation_bins: int = 15,
) -> np.ndarray:
    """Multiplicative noise with unit mean, given coefficient of variation, and memory.

    Real workload intensities drift smoothly rather than jumping
    independently every bin, so the gamma noise is smoothed over
    ``correlation_bins`` bins before being applied; this keeps part of the
    fluctuation predictable, as it is in the paper's production traces.
    """
    if noise_level <= 0:
        return values
    # Inflate the per-bin variance so that the smoothed noise retains roughly
    # the requested coefficient of variation.
    effective_level = noise_level * np.sqrt(max(correlation_bins, 1))
    shape = 1.0 / effective_level**2
    noise = rng.gamma(shape, 1.0 / shape, size=values.size)
    if correlation_bins > 1 and values.size > correlation_bins:
        kernel = np.ones(correlation_bins) / correlation_bins
        noise = np.convolve(noise, kernel, mode="same")
    return values * noise


def generate_crs_like_trace(
    *,
    n_weeks: int = 4,
    mean_qps: float = 0.009,
    noise_level: float = 0.5,
    processing_time_mean: float = 178.0,
    bin_seconds: float = 300.0,
    seed: int = 7,
) -> ArrivalTrace:
    """A CRS-like container-registry trace: low traffic, weekly + daily cycles, noisy.

    The default parameters yield roughly the 21 000 queries over four weeks of
    the paper's CRS trace, with queries concentrated on working hours of
    weekdays and heavy multiplicative noise on top of the seasonal pattern.
    """
    check_positive(mean_qps, "mean_qps")
    rng = ensure_rng(seed)
    horizon = n_weeks * _WEEK
    n_bins = int(horizon / bin_seconds)
    times = (np.arange(n_bins) + 0.5) * bin_seconds

    day_of_week = np.floor(np.mod(times, _WEEK) / _DAY)
    weekday_factor = np.where(day_of_week < 5, 1.0, 0.35)
    hour_of_day = np.mod(times, _DAY) / _HOUR
    # Working-hours bump centered at 14:00 plus a small overnight baseline.
    daily_factor = 0.25 + 1.5 * np.exp(-0.5 * ((hour_of_day - 14.0) / 3.5) ** 2)

    profile = weekday_factor * daily_factor
    profile = _noisy(profile, noise_level, rng)
    # Occasional silent stretches (missing / zero-traffic intervals).
    quiet = rng.random(n_bins) < 0.02
    profile[quiet] = 0.0
    profile *= mean_qps / max(profile.mean(), 1e-12)

    intensity = PiecewiseConstantIntensity(profile, bin_seconds, extrapolation="periodic")
    return generate_trace_from_intensity(
        intensity,
        horizon,
        processing_time_mean=processing_time_mean,
        processing_time_distribution="lognormal",
        name="crs-like",
        random_state=rng,
    )


def generate_google_like_trace(
    *,
    n_hours: int = 24,
    mean_qps: float = 0.23,
    spike_period_hours: float = 2.0,
    spike_amplitude: float = 4.0,
    noise_level: float = 0.3,
    processing_time_mean: float = 30.0,
    bin_seconds: float = 60.0,
    seed: int = 11,
) -> ArrivalTrace:
    """A Google-cluster-like job trace: moderate traffic with recurrent spikes."""
    check_positive(mean_qps, "mean_qps")
    rng = ensure_rng(seed)
    horizon = n_hours * _HOUR
    n_bins = int(horizon / bin_seconds)
    times = (np.arange(n_bins) + 0.5) * bin_seconds

    spike_period = spike_period_hours * _HOUR
    base = np.ones(n_bins)
    spikes = beta_bump_intensity(
        times, peak=spike_amplitude, period_seconds=spike_period, exponent=12.0, base=0.0
    )
    profile = _noisy(base + spikes, noise_level, rng)
    profile *= mean_qps / max(profile.mean(), 1e-12)

    intensity = PiecewiseConstantIntensity(profile, bin_seconds, extrapolation="periodic")
    return generate_trace_from_intensity(
        intensity,
        horizon,
        processing_time_mean=processing_time_mean,
        processing_time_distribution="exponential",
        name="google-like",
        random_state=rng,
    )


def generate_alibaba_like_trace(
    *,
    n_days: int = 5,
    mean_qps: float = 1.2,
    burst_day: int = 3,
    burst_multiplier: float = 8.0,
    burst_duration_hours: float = 2.0,
    noise_level: float = 0.3,
    processing_time_mean: float = 25.0,
    bin_seconds: float = 60.0,
    seed: int = 13,
) -> ArrivalTrace:
    """An Alibaba-cluster-like trace: daily spikes plus one unexpected burst.

    The burst lands on day ``burst_day`` (0-based) and is what the robustness
    experiment of Fig. 9 removes before re-running the autoscalers.
    """
    check_positive(mean_qps, "mean_qps")
    rng = ensure_rng(seed)
    horizon = n_days * _DAY
    n_bins = int(horizon / bin_seconds)
    times = (np.arange(n_bins) + 0.5) * bin_seconds

    daily = beta_bump_intensity(
        times, peak=3.0, period_seconds=_DAY, exponent=8.0, base=0.4
    )
    # Secondary intra-day spikes every 6 hours, as in the recurrent-spike
    # structure visible in the paper's Fig. 3.
    intraday = beta_bump_intensity(
        times, peak=1.0, period_seconds=6 * _HOUR, exponent=20.0, base=0.0
    )
    profile = _noisy(daily + intraday, noise_level, rng)

    if 0 <= burst_day < n_days and burst_multiplier > 0:
        burst_start = burst_day * _DAY + 10 * _HOUR
        burst_end = burst_start + burst_duration_hours * _HOUR
        in_burst = (times >= burst_start) & (times < burst_end)
        profile[in_burst] *= burst_multiplier

    profile *= mean_qps * n_bins / max(profile.sum(), 1e-12)

    intensity = PiecewiseConstantIntensity(profile, bin_seconds, extrapolation="periodic")
    return generate_trace_from_intensity(
        intensity,
        horizon,
        processing_time_mean=processing_time_mean,
        processing_time_distribution="exponential",
        name="alibaba-like",
        random_state=rng,
    )
