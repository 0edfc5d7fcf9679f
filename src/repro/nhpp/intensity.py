"""Piecewise-constant intensity functions.

The NHPP model of the paper assumes the intensity is constant within each
time step ``delta_t`` (``lambda_t = exp(r_t)``).  This module provides the
intensity object shared by the fitter, the forecaster, the Monte Carlo
samplers and the scaling planner: it can evaluate the intensity at any time,
integrate it, and invert the integrated intensity — the operation needed to
map Gamma-distributed event counts back to arrival times.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .._validation import as_1d_float_array, check_non_negative, check_positive
from ..exceptions import ValidationError

__all__ = ["PiecewiseConstantIntensity", "PlanningWindow"]


class PiecewiseConstantIntensity:
    """A right-open piecewise-constant intensity on ``[0, horizon)``.

    Parameters
    ----------
    values:
        Intensity (queries per second) in each bin; must be non-negative.
    bin_seconds:
        Width of each bin in seconds.
    extrapolation:
        Behaviour for times beyond the last bin:

        * ``"hold"`` — keep the last bin's value forever (default);
        * ``"periodic"`` — repeat the whole profile cyclically;
        * ``"zero"`` — intensity drops to zero.
    """

    def __init__(
        self,
        values: np.ndarray,
        bin_seconds: float,
        *,
        extrapolation: str = "hold",
    ) -> None:
        values = as_1d_float_array(values, "values")
        if values.size == 0:
            raise ValidationError("intensity requires at least one bin")
        if np.any(values < 0):
            raise ValidationError("intensity values must be non-negative")
        if extrapolation not in ("hold", "periodic", "zero"):
            raise ValidationError(
                f"extrapolation must be 'hold', 'periodic' or 'zero', got {extrapolation!r}"
            )
        self._values = values
        self.bin_seconds = check_positive(bin_seconds, "bin_seconds")
        self.extrapolation = extrapolation
        # Cumulative integral at bin edges: shape (n_bins + 1,)
        self._cum_edges = np.concatenate([[0.0], np.cumsum(values) * self.bin_seconds])

    @property
    def values(self) -> np.ndarray:
        """Read-only view of the per-bin intensity values."""
        view = self._values.view()
        view.flags.writeable = False
        return view

    @property
    def n_bins(self) -> int:
        """Number of explicit bins."""
        return int(self._values.size)

    @property
    def duration(self) -> float:
        """Length of the explicitly specified window in seconds."""
        return self.n_bins * self.bin_seconds

    @property
    def total_mass(self) -> float:
        """Integrated intensity over the explicit window (expected count)."""
        return float(self._cum_edges[-1])

    def value(self, t: float | np.ndarray) -> np.ndarray | float:
        """Intensity at time(s) ``t`` (seconds)."""
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        out = np.empty_like(t_arr)
        duration = self.duration
        inside = t_arr < duration
        idx = np.clip((t_arr[inside] / self.bin_seconds).astype(int), 0, self.n_bins - 1)
        out[inside] = self._values[idx]
        beyond = ~inside
        if np.any(beyond):
            out[beyond] = self._extrapolated_value(t_arr[beyond])
        out[t_arr < 0] = 0.0
        return out if np.ndim(t) else float(out[0])

    def _extrapolated_value(self, t: np.ndarray) -> np.ndarray:
        if self.extrapolation == "zero":
            return np.zeros_like(t)
        if self.extrapolation == "hold":
            return np.full_like(t, self._values[-1])
        wrapped = np.mod(t, self.duration)
        idx = np.clip((wrapped / self.bin_seconds).astype(int), 0, self.n_bins - 1)
        return self._values[idx]

    def cumulative(self, t: float | np.ndarray) -> np.ndarray | float:
        """Integrated intensity ``Lambda(t) = int_0^t lambda(u) du``."""
        if isinstance(t, float) and 0.0 <= t <= self.duration:
            # A float inside the window: the vector path's float operations
            # below, in the same order, on scalars.
            idx = min(int(t / self.bin_seconds), self.n_bins - 1)
            within = t - idx * self.bin_seconds
            return float(self._cum_edges[idx] + self._values[idx] * within)
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        out = np.empty_like(t_arr)
        duration = self.duration
        t_clipped = np.clip(t_arr, 0.0, None)

        inside = t_clipped <= duration
        ti = t_clipped[inside]
        idx = np.minimum((ti / self.bin_seconds).astype(int), self.n_bins - 1)
        within = ti - idx * self.bin_seconds
        out[inside] = self._cum_edges[idx] + self._values[idx] * within

        beyond = ~inside
        if np.any(beyond):
            tb = t_clipped[beyond]
            extra = tb - duration
            if self.extrapolation == "zero":
                tail = np.zeros_like(extra)
            elif self.extrapolation == "hold":
                tail = self._values[-1] * extra
            else:  # periodic
                full_cycles = np.floor(extra / duration)
                remainder = extra - full_cycles * duration
                tail = full_cycles * self.total_mass + self.cumulative(remainder)
            out[beyond] = self.total_mass + tail
        return out if np.ndim(t) else float(out[0])

    def inverse_cumulative(self, mass: float | np.ndarray) -> np.ndarray | float:
        """Smallest ``t`` with ``Lambda(t) >= mass`` (vectorized).

        Raises
        ------
        ValidationError
            If the requested mass can never be reached (e.g. zero
            extrapolation and ``mass > total_mass``).
        """
        m_arr = np.atleast_1d(np.asarray(mass, dtype=float))
        total = self.total_mass
        if m_arr.size and m_arr.min() > 0:
            largest = m_arr.max()
            if largest <= total:
                # Fast path: every mass inverts inside the window, with the
                # general path's arithmetic and none of its masks or copies.
                out = self._invert_positive(m_arr, largest)
                return out if np.ndim(mass) else float(out[0])
        if np.any(m_arr < 0):
            raise ValidationError("mass must be non-negative")
        out = np.empty_like(m_arr)

        inside = m_arr <= total
        if np.any(inside):
            out[inside] = self._invert_within_window(m_arr[inside])

        beyond = ~inside
        if np.any(beyond):
            mb = m_arr[beyond]
            if self.extrapolation == "zero":
                raise ValidationError(
                    "requested cumulative mass exceeds the total mass of a "
                    "zero-extrapolated intensity"
                )
            # With a vanishingly small tail rate (or total mass) the division
            # below can overflow to inf, and two inf samples make downstream
            # diffs NaN; clamping at the largest finite float keeps the
            # inversion finite and monotone — such times are unreachable for
            # every practical purpose anyway.
            finite_max = np.finfo(float).max
            if self.extrapolation == "hold":
                rate = self._values[-1]
                if rate <= 0:
                    raise ValidationError(
                        "cannot invert cumulative intensity: held intensity is zero"
                    )
                with np.errstate(over="ignore"):
                    tail = (mb - total) / rate
                out[beyond] = self.duration + np.minimum(tail, finite_max)
            else:  # periodic
                if total <= 0:
                    raise ValidationError(
                        "cannot invert cumulative intensity: periodic profile has zero mass"
                    )
                extra = mb - total
                with np.errstate(over="ignore"):
                    cycles = np.minimum(np.floor(extra / total), finite_max)
                remainder = np.clip(extra - cycles * total, 0.0, total)
                with np.errstate(over="ignore"):
                    base = self.duration * (1.0 + cycles)
                out[beyond] = np.minimum(base, finite_max) + self._invert_within_window(
                    remainder
                )
        return out if np.ndim(mass) else float(out[0])

    def _invert_within_window(self, masses: np.ndarray) -> np.ndarray:
        """Vectorized inversion for masses within the explicit window.

        For a target mass ``m`` the smallest ``t`` with ``Lambda(t) >= m`` lies
        in the bin just before the first cumulative edge reaching ``m`` (that
        bin necessarily has positive intensity), except for ``m = 0`` which
        maps to ``t = 0``.
        """
        out = np.zeros_like(masses)
        positive = masses > 0
        if np.any(positive):
            m = masses[positive]
            out[positive] = self._invert_positive(m, m.max())
        return out

    def _invert_positive(self, m: np.ndarray, largest: float) -> np.ndarray:
        """:meth:`_invert_within_window` for masses in ``(0, largest]``.

        ``largest`` is the largest of the masses and at most ``total_mass``.
        Mass ``m`` inverts in the bin just before the first cumulative edge
        that reaches it.  Edge 0 is zero, below every mass, and edge
        ``reach``, the first that ``largest`` reaches, reaches every mass.
        So the bin is the count of edges ``1 .. reach - 1`` below ``m``,
        one search over those edges, always in ``[0, reach)``.  A planning
        round's masses reach a handful of a window's bins, so the search
        covers those and not the whole profile.
        """
        edges = self._cum_edges
        reach = int(edges.searchsorted(largest))
        bin_index = edges[1:reach].searchsorted(m)
        # cum_edges[bin_index] < m <= cum_edges[bin_index + 1] guarantees a
        # strictly positive rate; the maximum guards against float round-off.
        rates = self._values[bin_index]
        np.maximum(rates, 1e-300, out=rates)
        within = m - edges[bin_index]
        within /= rates
        np.minimum(within, self.bin_seconds, out=within)
        out = bin_index * self.bin_seconds
        out += within
        return out

    def upper_bound(self, window_seconds: float | None = None) -> float:
        """Maximum intensity over ``[0, window_seconds]`` (or the whole profile)."""
        if window_seconds is None:
            return float(self._values.max())
        check_non_negative(window_seconds, "window_seconds")
        if window_seconds >= self.duration:
            bound = float(self._values.max())
            if self.extrapolation == "hold":
                bound = max(bound, float(self._values[-1]))
            return bound
        n = max(1, int(np.ceil(window_seconds / self.bin_seconds)))
        return float(self._values[:n].max())

    def shift(self, offset_seconds: float) -> "PiecewiseConstantIntensity":
        """Return the intensity viewed from ``offset_seconds`` onwards.

        The returned object has its own time origin at ``offset_seconds`` of
        this intensity; extrapolation behaviour is preserved.  Used by the
        planner, which always reasons in "seconds from now".
        """
        check_non_negative(offset_seconds, "offset_seconds")
        return self._shifted(self._shift_bins(offset_seconds))

    def _shift_bins(self, offset_seconds: float) -> np.ndarray | None:
        """The bins :meth:`shift` samples, one per bin of the shifted window.

        The shifted profile holds this intensity's value at the midpoint of
        each of its bins.  Index ``n_bins`` stands for the zero a
        zero-extrapolated intensity takes past its window; ``None`` stands
        for the one-bin tail a hold or zero intensity becomes once the
        offset passes its window.
        """
        horizon = self.duration
        if offset_seconds >= horizon:
            if self.extrapolation != "periodic":
                return None
            offset_seconds = float(np.mod(offset_seconds, horizon))
        # Sample the shifted profile on the same grid width:
        # times = (offset + k * bin) + 0.5 * bin, one per bin k.
        n_bins = self.n_bins
        times = offset_seconds + self._shift_grid
        times += 0.5 * self.bin_seconds
        if self.extrapolation == "periodic":
            # np.mod returns times inside the window unchanged, bit for bit.
            np.mod(times, horizon, out=times)
        bins = (times / self.bin_seconds).astype(int)
        np.minimum(bins, n_bins - 1, out=bins)
        if self.extrapolation == "zero":
            bins[times >= horizon] = n_bins
        return bins

    @cached_property
    def _shift_grid(self) -> np.ndarray:
        """``arange(n_bins) * bin_seconds``, the bin starts :meth:`_shift_bins` offsets."""
        return np.arange(self.n_bins) * self.bin_seconds

    def _shifted(self, bins: np.ndarray | None) -> "PiecewiseConstantIntensity":
        """The shifted window holding the values of ``bins`` (see :meth:`_shift_bins`)."""
        if bins is None:
            tail = self._values[-1] if self.extrapolation == "hold" else 0.0
            return PiecewiseConstantIntensity(
                np.array([tail]), self.bin_seconds, extrapolation=self.extrapolation
            )
        values = self._values
        if self.extrapolation == "zero":
            values = np.append(values, 0.0)
        return PiecewiseConstantIntensity(
            values[bins], self.bin_seconds, extrapolation=self.extrapolation
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"PiecewiseConstantIntensity(n_bins={self.n_bins}, "
            f"bin_seconds={self.bin_seconds}, extrapolation={self.extrapolation!r})"
        )


class PlanningWindow:
    """``forecast.shift(now)`` across planning rounds, rebuilt only when its bins change.

    A shifted window, and every cumulative mass taken from it, is a pure
    function of the forecast bins that :meth:`PiecewiseConstantIntensity.shift`
    samples.  Consecutive rounds inside one bin (six of them at 10 s rounds
    on 60 s bins) sample the same bins, so the window is built once and
    reused, bit for bit, until the bins change.  Only the latest window is
    kept, so memory stays at one window however many rounds run.

    Parameters
    ----------
    forecast:
        Intensity whose time origin is the start of the replay.
    horizons:
        Times (seconds from "now") at which :meth:`at` also reports the
        window's cumulative mass.
    """

    def __init__(
        self, forecast: PiecewiseConstantIntensity, horizons: tuple[float, ...] = ()
    ) -> None:
        self.forecast = forecast
        self.horizons = tuple(float(horizon) for horizon in horizons)
        self._key: bytes | None = None
        self._window: PiecewiseConstantIntensity | None = None
        self._masses: tuple[float, ...] = ()

    def at(self, now: float) -> tuple[PiecewiseConstantIntensity, tuple[float, ...]]:
        """``forecast.shift(now)`` and its cumulative mass at each of ``horizons``."""
        check_non_negative(now, "now")
        bins = self.forecast._shift_bins(now)
        key = None if bins is None else bins.tobytes()
        if self._window is None or key != self._key:
            window = self.forecast._shifted(bins)
            self._masses = tuple(float(window.cumulative(h)) for h in self.horizons)
            self._window, self._key = window, key
        return self._window, self._masses
