"""Robust periodicity detection on QPS series.

The detector mirrors the first module of the RobustScaler framework
(Section IV) and the two-stage structure of RobustPeriod [18]:

1. **Time aggregation** — merge fine-grained bins to average out arrival
   randomness that would otherwise obscure cyclic structure in low-traffic
   series.
2. **Robust preprocessing** — winsorize outliers and remove a running-median
   trend so bursts and level shifts do not create spurious spectral peaks.
3. **Candidate proposal** — pick periodogram frequencies whose power stands
   well above the median power.
4. **Validation** — accept a candidate only if the autocorrelation of the
   preprocessed series at the candidate lag is a genuine local peak above a
   threshold.

The detected period is reported both in bins of the *original* series and in
seconds, which is what the NHPP model needs for its ``D_L`` regularizer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..exceptions import PeriodicityDetectionError
from ..timeseries.acf import autocorrelation
from ..timeseries.aggregation import aggregate_counts
from ..timeseries.periodogram import FrequencyCandidate, dominant_frequencies
from ..timeseries.robust import median_filter, winsorize
from ..types import QPSSeries

__all__ = ["PeriodicityDetector", "PeriodicityResult"]

#: Base bins merged before detection, reducing the stochastic component of
#: low-traffic series (Section IV); shrunk for short series.
AGGREGATION_FACTOR = 5

#: A period candidate longer than this fraction of the aggregated series is
#: rejected as unverifiable.
MAX_PERIOD_FRACTION = 0.5

#: Minimum autocorrelation at the candidate lag for it to be accepted.
ACF_THRESHOLD = 0.2

#: Minimum periodogram power, as a multiple of the median power, for a
#: frequency to be a candidate.
POWER_THRESHOLD = 4.0

#: Maximum number of periodogram candidates examined.
MAX_CANDIDATES = 10


@dataclass(frozen=True)
class PeriodicityResult:
    """Outcome of periodicity detection on one series.

    Attributes
    ----------
    detected:
        Whether any periodic pattern passed both the spectral and the ACF
        checks.
    period_bins:
        Period length in bins of the original (non-aggregated) series;
        0 when nothing was detected.
    period_seconds:
        Period length in seconds; 0.0 when nothing was detected.
    acf_value:
        Autocorrelation of the aggregated series at the accepted lag.
    candidates:
        All periodogram candidates that were examined, strongest first.
    aggregation_factor:
        The aggregation factor actually used.
    """

    detected: bool
    period_bins: int
    period_seconds: float
    acf_value: float
    candidates: list[FrequencyCandidate] = field(default_factory=list)
    aggregation_factor: int = 1


class PeriodicityDetector:
    """Detect dominant cyclic patterns in a QPS series."""

    def detect(self, series: QPSSeries) -> PeriodicityResult:
        """Run detection on ``series`` and return a :class:`PeriodicityResult`."""
        factor = self._effective_aggregation(series)
        if factor > 1:
            aggregated = aggregate_counts(series.counts, factor, how="mean")
        else:
            aggregated = np.asarray(series.counts, dtype=float)
        if aggregated.size < 16:
            raise PeriodicityDetectionError(
                f"series too short for periodicity detection: {aggregated.size} aggregated bins"
            )

        prepared = self._preprocess(aggregated)
        max_period = int(aggregated.size * MAX_PERIOD_FRACTION)
        candidates = dominant_frequencies(
            prepared,
            power_threshold=POWER_THRESHOLD,
            max_candidates=MAX_CANDIDATES,
            min_period=2,
            max_period=max(2, max_period),
        )

        acf = autocorrelation(prepared)
        for candidate in candidates:
            lag = self._validated_lag(acf, candidate.period)
            if lag is None:
                continue
            period_bins = self._refine_on_base_series(series, lag * factor, factor)
            return PeriodicityResult(
                detected=True,
                period_bins=period_bins,
                period_seconds=period_bins * series.bin_seconds,
                acf_value=float(acf[lag]),
                candidates=candidates,
                aggregation_factor=factor,
            )
        return PeriodicityResult(
            detected=False,
            period_bins=0,
            period_seconds=0.0,
            acf_value=0.0,
            candidates=candidates,
            aggregation_factor=factor,
        )

    def _effective_aggregation(self, series: QPSSeries) -> int:
        """Shrink :data:`AGGREGATION_FACTOR` for short series."""
        factor = AGGREGATION_FACTOR
        # Keep at least 64 aggregated bins so the periodogram has resolution.
        while factor > 1 and series.n_bins // factor < 64:
            factor -= 1
        return max(1, factor)

    def _preprocess(self, aggregated: np.ndarray) -> np.ndarray:
        """Winsorize and detrend the aggregated series."""
        clipped = winsorize(aggregated, z_limit=5.0)
        trend_window = max(3, clipped.size // 4)
        if trend_window % 2 == 0:
            trend_window += 1
        trend = median_filter(clipped, trend_window)
        return clipped - trend

    def _validated_lag(self, acf: np.ndarray, candidate_lag: int) -> int | None:
        """Confirm a periodogram candidate against the ACF and refine the lag.

        The true period need not be an integer number of aggregated bins, so
        the ACF peak can sit a few lags away from the periodogram candidate.
        We search a small neighborhood around the candidate, take the lag with
        the highest autocorrelation, and accept it when that autocorrelation
        clears :data:`ACF_THRESHOLD`.
        """
        if candidate_lag >= acf.size or candidate_lag < 2:
            return None
        neighborhood = max(1, candidate_lag // 10)
        low = max(2, candidate_lag - neighborhood)
        high = min(acf.size - 1, candidate_lag + neighborhood)
        if low > high:
            return None
        window = acf[low: high + 1]
        best = int(low + np.argmax(window))
        if acf[best] < ACF_THRESHOLD:
            return None
        return best

    def _refine_on_base_series(
        self, series: QPSSeries, coarse_period_bins: int, factor: int
    ) -> int:
        """Sharpen a period found on the aggregated series to base-bin resolution.

        Aggregation quantizes the period to multiples of the aggregation
        factor; a few percent of period error compounds into a large phase
        drift when the intensity is extrapolated over many cycles, so the lag
        is re-estimated on the original series within one aggregation step of
        the coarse estimate.
        """
        if factor <= 1:
            return coarse_period_bins
        base = winsorize(np.asarray(series.counts, dtype=float), z_limit=5.0)
        acf = autocorrelation(base)
        low = max(2, coarse_period_bins - factor)
        high = min(acf.size - 1, coarse_period_bins + factor)
        if low > high:
            return coarse_period_bins
        window = acf[low: high + 1]
        return int(low + np.argmax(window))
