"""Rolling (online) NHPP forecasting.

The paper notes that the NHPP model "only needs to be retrained at a low
frequency (e.g. every half an hour)".  :class:`RollingNHPPForecaster` packages
that operational pattern: it maintains a sliding window of observed arrivals,
refits the regularized NHPP whenever the refresh interval has elapsed, and
serves the current forecast (shifted to "now") to the planner in between
refits.  The object is deliberately independent of the simulator so it can be
wired into a real control loop as easily as into an experiment.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .._validation import check_non_negative, check_positive
from ..config import NHPPConfig
from ..exceptions import ModelNotFittedError, ValidationError
from ..types import QPSSeries
from .intensity import PiecewiseConstantIntensity
from .model import NHPPModel

__all__ = ["RollingNHPPForecaster"]


@dataclass
class _RefitRecord:
    """Bookkeeping for one refit (exposed for diagnostics/tests)."""

    refit_time: float
    n_observations: int
    period_bins: int
    converged: bool = field(default=True)


class RollingNHPPForecaster:
    """Maintain an NHPP forecast over a stream of observed arrivals.

    Parameters
    ----------
    bin_seconds:
        Bin width of the QPS series the model is refitted on.
    window_seconds:
        Length of the trailing observation window used for each refit.
    refresh_seconds:
        Minimum wall-clock spacing between refits (the paper suggests around
        half an hour).
    config:
        NHPP hyper-parameters.
    min_observations:
        Refits are skipped while fewer arrivals than this are in the window.
    """

    def __init__(
        self,
        *,
        bin_seconds: float = 60.0,
        window_seconds: float = 7 * 86_400.0,
        refresh_seconds: float = 1800.0,
        config: NHPPConfig | None = None,
        min_observations: int = 30,
    ) -> None:
        self.bin_seconds = check_positive(bin_seconds, "bin_seconds")
        self.window_seconds = check_positive(window_seconds, "window_seconds")
        self.refresh_seconds = check_positive(refresh_seconds, "refresh_seconds")
        self.min_observations = int(min_observations)
        self.config = config or NHPPConfig()
        self._arrivals: list[float] = []
        self._last_refit_time: float | None = None
        self._forecast: PiecewiseConstantIntensity | None = None
        self._forecast_origin: float = 0.0
        self._history: list[_RefitRecord] = []

    # ----------------------------------------------------------- ingestion

    def observe(self, arrival_times: np.ndarray | float) -> None:
        """Record one or more observed arrival times (absolute seconds)."""
        values = np.atleast_1d(np.asarray(arrival_times, dtype=float))
        if values.size == 0:
            return
        if np.any(~np.isfinite(values)) or np.any(values < 0):
            raise ValidationError("arrival times must be finite and non-negative")
        if self._arrivals and values.min() < self._arrivals[-1] - 1e-9:
            raise ValidationError(
                "arrival times must be observed in non-decreasing order"
            )
        self._arrivals.extend(float(v) for v in np.sort(values))

    @property
    def n_observations(self) -> int:
        """Number of arrivals currently retained (within the sliding window)."""
        return len(self._arrivals)

    @property
    def refit_history(self) -> list[_RefitRecord]:
        """Diagnostics for every refit performed so far."""
        return list(self._history)

    # ------------------------------------------------------------ refitting

    def _trim_window(self, now: float) -> None:
        cutoff = now - self.window_seconds
        if cutoff <= 0 or not self._arrivals:
            return
        arrivals = np.asarray(self._arrivals)
        keep_from = int(np.searchsorted(arrivals, cutoff, side="left"))
        if keep_from:
            self._arrivals = self._arrivals[keep_from:]

    def maybe_refit(self, now: float, *, force: bool = False) -> bool:
        """Refit the model if the refresh interval has elapsed.

        Parameters
        ----------
        now:
            Current time in seconds (same clock as the observed arrivals).
        force:
            Refit even if the refresh interval has not elapsed yet.

        Returns
        -------
        bool
            ``True`` when a refit was performed.
        """
        check_non_negative(now, "now")
        due = (
            force
            or self._last_refit_time is None
            or now - self._last_refit_time >= self.refresh_seconds
        )
        if not due:
            return False
        self._trim_window(now)
        if len(self._arrivals) < self.min_observations:
            return False

        arrivals = np.asarray(self._arrivals, dtype=float)
        window_start = max(0.0, now - self.window_seconds)
        relative = arrivals - window_start
        n_bins = max(3, int(np.ceil((now - window_start) / self.bin_seconds)))
        edges = np.arange(n_bins + 1) * self.bin_seconds
        counts, _ = np.histogram(relative, bins=edges)
        series = QPSSeries(counts, self.bin_seconds, name="rolling-window")

        model = NHPPModel(self.config, bin_seconds=self.bin_seconds).fit(series)
        self._forecast = model.forecast()
        self._forecast_origin = window_start + series.duration
        self._last_refit_time = now
        self._history.append(
            _RefitRecord(
                refit_time=now,
                n_observations=int(arrivals.size),
                period_bins=model.period_bins,
                converged=model.fit_result.admm.converged,
            )
        )
        return True

    # ------------------------------------------------------------- serving

    @property
    def is_ready(self) -> bool:
        """Whether at least one successful refit has happened."""
        return self._forecast is not None

    def forecast_at(self, now: float) -> PiecewiseConstantIntensity:
        """The current forecast shifted so that its origin is ``now``."""
        if self._forecast is None:
            raise ModelNotFittedError(
                "RollingNHPPForecaster has no fitted model yet; call maybe_refit first"
            )
        offset = max(0.0, float(now) - self._forecast_origin)
        return self._forecast.shift(offset)

    def expected_arrivals(self, now: float, horizon_seconds: float) -> float:
        """Expected number of arrivals in ``[now, now + horizon_seconds)``."""
        check_non_negative(horizon_seconds, "horizon_seconds")
        return float(self.forecast_at(now).cumulative(horizon_seconds))
