"""High-level NHPP workload model (modules 1-3 of the framework glued together).

:class:`NHPPModel` wraps periodicity detection, the ADMM fit of the
regularized log-intensity, and periodic extrapolation behind a small
scikit-learn-like interface:

>>> model = NHPPModel()
>>> model.fit(qps_series)                 # doctest: +SKIP
>>> forecast = model.forecast()           # doctest: +SKIP
>>> forecast.value(120.0)                 # intensity 2 minutes from "now"
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..config import NHPPConfig
from ..exceptions import ModelNotFittedError, PeriodicityDetectionError, ValidationError
from ..periodicity.detector import PeriodicityDetector, PeriodicityResult
from ..telemetry import get_recorder
from ..types import ArrivalTrace, QPSSeries
from .admm import ADMMResult, fit_log_intensity
from .extrapolation import extrapolate_intensity
from .intensity import PiecewiseConstantIntensity
from .objective import RegularizedNHPPObjective

__all__ = ["NHPPModel", "NHPPFitResult"]

#: Numerical floor (queries per second) applied to fitted intensities.
MIN_INTENSITY = 1e-8

#: Bucket bounds of the ``fit.admm_iterations`` histogram (iterations).
_ITERATION_BUCKETS = (10.0, 30.0, 100.0, 300.0, 1_000.0, 3_000.0)

#: Bucket bounds of the ``fit.cg_steps`` histogram (PCG steps per fit).
_CG_STEP_BUCKETS = (10.0, 100.0, 300.0, 1_000.0, 3_000.0, 10_000.0)


@dataclass(frozen=True)
class NHPPFitResult:
    """Summary of one NHPP fit.

    Attributes
    ----------
    log_intensity:
        Fitted log-intensity per training bin.
    intensity:
        ``exp(log_intensity)`` in queries per second.
    period_bins:
        Period used for the seasonal penalty (0 if none).
    periodicity:
        Full periodicity-detection result (``None`` when detection was
        skipped because a period was supplied explicitly).
    admm:
        Diagnostics of the ADMM run.
    bin_seconds:
        Width of the training bins.
    """

    log_intensity: np.ndarray
    intensity: np.ndarray
    period_bins: int
    periodicity: Optional[PeriodicityResult]
    admm: ADMMResult
    bin_seconds: float


class NHPPModel:
    """Regularized non-homogeneous Poisson process workload model.

    Parameters
    ----------
    config:
        NHPP hyper-parameters (regularization weights, ADMM settings).
    bin_seconds:
        Default bin width used when fitting directly from an
        :class:`~repro.types.ArrivalTrace`.
    """

    def __init__(
        self,
        config: NHPPConfig | None = None,
        *,
        bin_seconds: float = 60.0,
    ) -> None:
        self.config = config or NHPPConfig()
        self.bin_seconds = float(bin_seconds)
        self._fit_result: NHPPFitResult | None = None

    # ------------------------------------------------------------------ fit

    def fit(
        self,
        data: QPSSeries | ArrivalTrace,
        *,
        period_bins: int | None = None,
    ) -> "NHPPModel":
        """Fit the regularized NHPP to ``data``.

        Parameters
        ----------
        data:
            Either a :class:`~repro.types.QPSSeries` or an
            :class:`~repro.types.ArrivalTrace` (aggregated internally using
            ``bin_seconds``).
        period_bins:
            Explicit period to use for the seasonal penalty, bypassing
            detection.  ``0`` disables the penalty; ``None`` (default) lets
            the robust periodicity detector choose the period.
        """
        series = self._as_series(data)
        periodicity_result: PeriodicityResult | None = None

        if period_bins is None:
            try:
                periodicity_result = PeriodicityDetector().detect(series)
            except PeriodicityDetectionError:
                periodicity_result = None
            if periodicity_result is not None and periodicity_result.detected:
                period_bins = periodicity_result.period_bins
            else:
                period_bins = 0

        objective = RegularizedNHPPObjective(
            counts=series.counts,
            bin_seconds=series.bin_seconds,
            beta_smooth=self.config.beta_smooth,
            beta_period=self.config.beta_period,
            period_bins=period_bins or None,
        )
        recorder = get_recorder()
        with recorder.span("fit.admm"):
            admm_result = fit_log_intensity(objective, self.config.admm)
        # A fit that stops at its iteration cap still returns its last
        # iterate; the counter makes that visible in ``repro telemetry show``.
        recorder.inc("fit.unconverged", int(not admm_result.converged))
        recorder.histogram("fit.admm_iterations", _ITERATION_BUCKETS).observe(
            admm_result.n_iterations
        )
        recorder.inc("fit.admm_factorizations", admm_result.n_factorizations)
        recorder.histogram("fit.cg_steps", _CG_STEP_BUCKETS).observe(admm_result.cg_steps)
        intensity = np.maximum(np.exp(admm_result.log_intensity), MIN_INTENSITY)

        self._fit_result = NHPPFitResult(
            log_intensity=admm_result.log_intensity,
            intensity=intensity,
            period_bins=int(period_bins or 0),
            periodicity=periodicity_result,
            admm=admm_result,
            bin_seconds=series.bin_seconds,
        )
        return self

    def _as_series(self, data: QPSSeries | ArrivalTrace) -> QPSSeries:
        if isinstance(data, QPSSeries):
            return data
        if isinstance(data, ArrivalTrace):
            return data.to_qps_series(self.bin_seconds)
        raise ValidationError(
            f"data must be a QPSSeries or ArrivalTrace, got {type(data).__name__}"
        )

    # -------------------------------------------------------------- queries

    @property
    def is_fitted(self) -> bool:
        """Whether :meth:`fit` has been called successfully."""
        return self._fit_result is not None

    @property
    def fit_result(self) -> NHPPFitResult:
        """Full fit diagnostics; raises if the model is not fitted."""
        if self._fit_result is None:
            raise ModelNotFittedError("NHPPModel must be fitted before use")
        return self._fit_result

    @property
    def fitted_intensity(self) -> PiecewiseConstantIntensity:
        """The fitted historical intensity as a piecewise-constant function."""
        result = self.fit_result
        return PiecewiseConstantIntensity(
            result.intensity, result.bin_seconds, extrapolation="hold"
        )

    @property
    def period_bins(self) -> int:
        """Period (bins) used during fitting; 0 when aperiodic."""
        return self.fit_result.period_bins

    @property
    def period_seconds(self) -> float:
        """Period in seconds; 0.0 when aperiodic."""
        result = self.fit_result
        return result.period_bins * result.bin_seconds

    def intensity_at(self, t: float | np.ndarray) -> np.ndarray | float:
        """Fitted historical intensity at training time(s) ``t`` (seconds)."""
        return self.fitted_intensity.value(t)

    def forecast(self) -> PiecewiseConstantIntensity:
        """Forecast intensity whose origin is the end of the training window.

        The forecast is defined at every future time: the last cycle's
        template repeats with the fitted period, or, for an aperiodic fit,
        the trailing median level is held (see
        :func:`~repro.nhpp.extrapolation.extrapolate_intensity`).
        """
        result = self.fit_result
        return extrapolate_intensity(
            result.intensity,
            result.bin_seconds,
            period_bins=result.period_bins or None,
        )

    def expected_count(self, start: float, end: float) -> float:
        """Expected number of arrivals in ``[start, end)`` of training time."""
        if end < start:
            raise ValidationError(f"end ({end}) must be >= start ({start})")
        intensity = self.fitted_intensity
        return float(intensity.cumulative(end) - intensity.cumulative(start))
