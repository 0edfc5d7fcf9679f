"""Composable intensity primitives for workload-scenario generation.

A scenario's ground-truth intensity is assembled from small building blocks
— seasonal bumps, ramps, flash crowds, regime-switching bursts, noise fields
— that combine algebraically:

* ``a + b`` superposes two components (multi-tenant traffic);
* ``a - b`` subtracts (e.g. carving an outage window out of a baseline);
* ``2.0 * a`` scales the amplitude;
* ``a * b`` modulates one component by another (amplitude modulation,
  weekday/weekend profiles, multiplicative noise);
* ``a.clip(lower, upper)`` bounds the result.

Every primitive evaluates on a vectorized time grid via :meth:`sample` and
compiles into the :class:`~repro.nhpp.intensity.PiecewiseConstantIntensity`
that the exact NHPP samplers in :mod:`repro.nhpp.sampling` consume.
Stochastic primitives (:class:`RegimeSwitching`, :class:`GammaNoise`) draw
from the generator passed to :meth:`sample`, so a composite is reproducible
bit-for-bit given one seed: components consume the stream in a fixed
left-to-right order.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .._validation import check_non_negative, check_positive
from ..exceptions import ValidationError, WorkloadError
from ..nhpp.intensity import PiecewiseConstantIntensity
from ..rng import RandomState, ensure_rng

__all__ = [
    "IntensityPrimitive",
    "as_primitive",
    "Constant",
    "SeasonalBump",
    "Sinusoid",
    "WeeklyProfile",
    "Ramp",
    "FlashCrowd",
    "ParetoBursts",
    "Pulse",
    "RegimeSwitching",
    "GammaNoise",
    "Superpose",
    "Scale",
    "Modulate",
    "Clip",
]

DAY_SECONDS = 86_400.0
HOUR_SECONDS = 3_600.0
WEEK_SECONDS = 7 * DAY_SECONDS


def as_primitive(value: "IntensityPrimitive | float") -> "IntensityPrimitive":
    """Coerce a scalar into a :class:`Constant` (primitives pass through)."""
    if isinstance(value, IntensityPrimitive):
        return value
    if isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(
        value, bool
    ):
        return Constant(float(value))
    raise ValidationError(
        f"cannot interpret {type(value).__name__} as an intensity primitive"
    )


class IntensityPrimitive:
    """Base class of the intensity algebra.

    Subclasses implement :meth:`sample`, which evaluates the component on a
    vector of times (seconds).  Intermediate values may be negative (the
    algebra permits subtraction); :meth:`compile` clips the final profile at
    zero before building the piecewise-constant intensity.
    """

    def sample(self, times: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Evaluate the component at ``times`` (vectorized)."""
        raise NotImplementedError

    def compile(
        self,
        horizon_seconds: float,
        bin_seconds: float,
        *,
        random_state: RandomState = None,
    ) -> PiecewiseConstantIntensity:
        """Materialize the component as a piecewise-constant intensity.

        The component is evaluated at bin midpoints over ``[0, horizon)``,
        negative values are clipped to zero, and the result wraps into a
        periodic :class:`~repro.nhpp.intensity.PiecewiseConstantIntensity`.
        """
        check_positive(horizon_seconds, "horizon_seconds")
        check_positive(bin_seconds, "bin_seconds")
        rng = ensure_rng(random_state)
        n_bins = max(1, int(math.ceil(horizon_seconds / bin_seconds)))
        times = (np.arange(n_bins) + 0.5) * bin_seconds
        values = np.asarray(self.sample(times, rng), dtype=float)
        if values.shape != times.shape:
            raise WorkloadError(
                f"{type(self).__name__}.sample returned shape {values.shape}, "
                f"expected {times.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise WorkloadError(
                f"{type(self).__name__} produced non-finite intensity values"
            )
        return PiecewiseConstantIntensity(
            np.maximum(values, 0.0), bin_seconds, extrapolation="periodic"
        )

    # ------------------------------------------------------------- algebra

    def __add__(self, other: "IntensityPrimitive | float") -> "Superpose":
        return Superpose((self, as_primitive(other)))

    def __radd__(self, other: "IntensityPrimitive | float") -> "Superpose":
        return Superpose((as_primitive(other), self))

    def __sub__(self, other: "IntensityPrimitive | float") -> "Superpose":
        return Superpose((self, Scale(as_primitive(other), -1.0)))

    def __rsub__(self, other: "IntensityPrimitive | float") -> "Superpose":
        return Superpose((as_primitive(other), Scale(self, -1.0)))

    def __mul__(self, other: "IntensityPrimitive | float") -> "IntensityPrimitive":
        if isinstance(other, IntensityPrimitive):
            return Modulate(self, other)
        if isinstance(other, (int, float, np.integer, np.floating)) and not isinstance(
            other, bool
        ):
            return Scale(self, float(other))
        return NotImplemented

    def __rmul__(self, other: "IntensityPrimitive | float") -> "IntensityPrimitive":
        return self.__mul__(other)

    def __neg__(self) -> "Scale":
        return Scale(self, -1.0)

    def clip(self, lower: float = 0.0, upper: float | None = None) -> "Clip":
        """Bound the component between ``lower`` and ``upper``."""
        return Clip(self, lower, upper)


class Constant(IntensityPrimitive):
    """A constant level (queries per second)."""

    def __init__(self, level: float) -> None:
        level = float(level)
        if not math.isfinite(level):
            raise ValidationError(f"level must be finite, got {level!r}")
        self.level = level

    def sample(self, times: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        return np.full_like(times, self.level, dtype=float)

    def __repr__(self) -> str:
        return f"Constant({self.level:g})"


class SeasonalBump(IntensityPrimitive):
    """The paper's beta-shaped periodic bump: one smooth peak per period.

    Evaluates ``peak * 4^s * u^s * (1-u)^s + base`` with
    ``u = (t / period - phase_fraction) mod 1``; the normalization makes the
    bump top out at exactly ``peak + base`` mid-period.  ``sharpness``
    controls how concentrated the peak is (larger = spikier).
    """

    def __init__(
        self,
        period_seconds: float,
        peak: float,
        *,
        sharpness: float = 8.0,
        base: float = 0.0,
        phase_fraction: float = 0.0,
    ) -> None:
        self.period_seconds = check_positive(period_seconds, "period_seconds")
        self.peak = check_non_negative(peak, "peak")
        self.sharpness = check_positive(sharpness, "sharpness")
        self.base = check_non_negative(base, "base")
        self.phase_fraction = float(phase_fraction)

    def sample(self, times: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        u = np.mod(times / self.period_seconds - self.phase_fraction, 1.0)
        s = self.sharpness
        return self.peak * (4.0**s) * (u**s) * ((1.0 - u) ** s) + self.base

    def __repr__(self) -> str:
        return (
            f"SeasonalBump(period={self.period_seconds:g}, peak={self.peak:g}, "
            f"sharpness={self.sharpness:g})"
        )


class Sinusoid(IntensityPrimitive):
    """A cosine seasonality ``mean + amplitude * cos(2 pi (t/period - phase))``."""

    def __init__(
        self,
        period_seconds: float,
        mean: float,
        amplitude: float,
        *,
        phase_fraction: float = 0.0,
    ) -> None:
        self.period_seconds = check_positive(period_seconds, "period_seconds")
        self.mean = float(mean)
        self.amplitude = check_non_negative(amplitude, "amplitude")
        self.phase_fraction = float(phase_fraction)

    def sample(self, times: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        angle = 2.0 * np.pi * (times / self.period_seconds - self.phase_fraction)
        return self.mean + self.amplitude * np.cos(angle)

    def __repr__(self) -> str:
        return (
            f"Sinusoid(period={self.period_seconds:g}, mean={self.mean:g}, "
            f"amplitude={self.amplitude:g})"
        )


class WeeklyProfile(IntensityPrimitive):
    """Per-day-of-week multipliers (Monday-first), e.g. a weekend dip.

    Typically used as a modulator: ``daily_pattern * WeeklyProfile(...)``.
    """

    def __init__(self, day_factors: Sequence[float]) -> None:
        factors = np.asarray(day_factors, dtype=float)
        if factors.shape != (7,):
            raise ValidationError(
                f"day_factors must contain exactly 7 values, got shape {factors.shape}"
            )
        if np.any(factors < 0) or not np.all(np.isfinite(factors)):
            raise ValidationError("day_factors must be finite and non-negative")
        self.day_factors = factors

    def sample(self, times: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        day = np.floor(np.mod(times, WEEK_SECONDS) / DAY_SECONDS).astype(int)
        return self.day_factors[np.clip(day, 0, 6)]

    def __repr__(self) -> str:
        return f"WeeklyProfile({list(np.round(self.day_factors, 3))})"


class Ramp(IntensityPrimitive):
    """A linear or exponential ramp between two levels.

    The value is ``start_level`` before ``start_seconds``, ``end_level``
    after ``end_seconds``, and interpolates in between — linearly or
    geometrically (``shape="exponential"``, which requires both levels to be
    positive and models steady compounding growth such as a product launch).
    """

    def __init__(
        self,
        start_level: float,
        end_level: float,
        *,
        start_seconds: float = 0.0,
        end_seconds: float,
        shape: str = "linear",
    ) -> None:
        self.start_level = float(start_level)
        self.end_level = float(end_level)
        self.start_seconds = check_non_negative(start_seconds, "start_seconds")
        self.end_seconds = float(end_seconds)
        if self.end_seconds <= self.start_seconds:
            raise ValidationError(
                f"end_seconds ({end_seconds}) must be greater than start_seconds "
                f"({start_seconds})"
            )
        if shape not in ("linear", "exponential"):
            raise ValidationError(
                f"shape must be 'linear' or 'exponential', got {shape!r}"
            )
        if shape == "exponential" and (self.start_level <= 0 or self.end_level <= 0):
            raise ValidationError("exponential ramps require positive levels")
        self.shape = shape

    def sample(self, times: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        span = self.end_seconds - self.start_seconds
        frac = np.clip((times - self.start_seconds) / span, 0.0, 1.0)
        if self.shape == "linear":
            return self.start_level + (self.end_level - self.start_level) * frac
        ratio = self.end_level / self.start_level
        return self.start_level * np.power(ratio, frac)

    def __repr__(self) -> str:
        return (
            f"Ramp({self.start_level:g}->{self.end_level:g}, "
            f"[{self.start_seconds:g}, {self.end_seconds:g}]s, {self.shape})"
        )


class FlashCrowd(IntensityPrimitive):
    """A flash-crowd spike: zero, sharp linear rise, exponential decay.

    The component is zero before ``onset_seconds``, rises linearly to
    ``peak`` over ``rise_seconds``, then decays as
    ``peak * exp(-(t - onset - rise) / decay_seconds)``.
    """

    def __init__(
        self,
        onset_seconds: float,
        peak: float,
        *,
        rise_seconds: float = 300.0,
        decay_seconds: float = 1800.0,
    ) -> None:
        self.onset_seconds = check_non_negative(onset_seconds, "onset_seconds")
        self.peak = check_non_negative(peak, "peak")
        self.rise_seconds = check_positive(rise_seconds, "rise_seconds")
        self.decay_seconds = check_positive(decay_seconds, "decay_seconds")

    def sample(self, times: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        rel = times - self.onset_seconds
        rising = self.peak * np.clip(rel / self.rise_seconds, 0.0, 1.0)
        decaying = self.peak * np.exp(
            -np.clip(rel - self.rise_seconds, 0.0, None) / self.decay_seconds
        )
        return np.where(rel <= self.rise_seconds, rising, decaying) * (rel >= 0)

    def __repr__(self) -> str:
        return f"FlashCrowd(onset={self.onset_seconds:g}, peak={self.peak:g})"


class ParetoBursts(IntensityPrimitive):
    """A compound-Poisson field of flash crowds with Pareto-heavy peaks.

    Burst onsets form a homogeneous Poisson process with
    ``bursts_per_day`` events per day; each burst rises linearly over
    ``rise_seconds`` to a random peak and decays exponentially with time
    constant ``decay_seconds``.  Peaks are i.i.d. Pareto(``alpha``) scaled
    by ``peak_scale`` (minimum value ``peak_scale``), so for ``alpha <= 2``
    the peak distribution is heavy-tailed with infinite variance and the
    realized traffic exhibits the occasional monster burst of real flash
    crowds — traffic no periodic forecast can anticipate.

    The realization is random but fully determined by the generator passed
    to :meth:`sample`: draws depend only on the evaluation horizon, in the
    fixed order (count, onsets, peaks).
    """

    def __init__(
        self,
        bursts_per_day: float,
        alpha: float,
        peak_scale: float,
        *,
        rise_seconds: float = 120.0,
        decay_seconds: float = 1200.0,
    ) -> None:
        self.bursts_per_day = check_non_negative(bursts_per_day, "bursts_per_day")
        self.alpha = check_positive(alpha, "alpha")
        self.peak_scale = check_non_negative(peak_scale, "peak_scale")
        self.rise_seconds = check_positive(rise_seconds, "rise_seconds")
        self.decay_seconds = check_positive(decay_seconds, "decay_seconds")

    def sample(self, times: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        total = np.zeros_like(times, dtype=float)
        if times.size == 0 or self.bursts_per_day == 0 or self.peak_scale == 0:
            return total
        t_max = float(np.max(times))
        n_bursts = int(rng.poisson(self.bursts_per_day * t_max / DAY_SECONDS))
        if n_bursts == 0:
            return total
        onsets = np.sort(rng.uniform(0.0, t_max, size=n_bursts))
        # Pareto with minimum value peak_scale: scale * (1 + Pareto(alpha)).
        peaks = self.peak_scale * (1.0 + rng.pareto(self.alpha, size=n_bursts))
        for onset, peak in zip(onsets, peaks):
            rel = times - onset
            rising = peak * np.clip(rel / self.rise_seconds, 0.0, 1.0)
            decaying = peak * np.exp(
                -np.clip(rel - self.rise_seconds, 0.0, None) / self.decay_seconds
            )
            total += np.where(rel <= self.rise_seconds, rising, decaying) * (rel >= 0)
        return total

    def __repr__(self) -> str:
        return (
            f"ParetoBursts(rate={self.bursts_per_day:g}/day, alpha={self.alpha:g}, "
            f"peak_scale={self.peak_scale:g})"
        )


class Pulse(IntensityPrimitive):
    """A rectangular window: ``level`` on ``[start, end)``, zero elsewhere.

    Useful both additively (a batch window) and as a modulator — e.g.
    ``base * (1 - Pulse(start, end))`` silences traffic during an outage.
    """

    def __init__(self, start_seconds: float, end_seconds: float, level: float = 1.0) -> None:
        self.start_seconds = check_non_negative(start_seconds, "start_seconds")
        self.end_seconds = float(end_seconds)
        if self.end_seconds <= self.start_seconds:
            raise ValidationError(
                f"end_seconds ({end_seconds}) must be greater than start_seconds "
                f"({start_seconds})"
            )
        self.level = float(level)

    def sample(self, times: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        inside = (times >= self.start_seconds) & (times < self.end_seconds)
        return np.where(inside, self.level, 0.0)

    def __repr__(self) -> str:
        return f"Pulse([{self.start_seconds:g}, {self.end_seconds:g})s, {self.level:g})"


class RegimeSwitching(IntensityPrimitive):
    """MMPP-style regime switching between a set of intensity levels.

    The process holds each regime for an exponentially distributed dwell
    time with mean ``mean_dwell_seconds``, then jumps to a uniformly chosen
    *different* regime.  The realization is random but fully determined by
    the generator passed to :meth:`sample`; evaluation is vectorized (dwell
    times are drawn in bulk and mapped to the grid via ``searchsorted``).
    """

    def __init__(
        self,
        levels: Sequence[float],
        mean_dwell_seconds: float,
        *,
        start_regime: int | None = 0,
    ) -> None:
        arr = np.asarray(levels, dtype=float)
        if arr.ndim != 1 or arr.size < 2:
            raise ValidationError("levels must be a 1-D sequence of at least two values")
        if np.any(arr < 0) or not np.all(np.isfinite(arr)):
            raise ValidationError("levels must be finite and non-negative")
        self.levels = arr
        self.mean_dwell_seconds = check_positive(mean_dwell_seconds, "mean_dwell_seconds")
        if start_regime is not None and not 0 <= int(start_regime) < arr.size:
            raise ValidationError(
                f"start_regime must be in [0, {arr.size}), got {start_regime}"
            )
        self.start_regime = None if start_regime is None else int(start_regime)

    def sample(self, times: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        if times.size == 0:
            return np.empty(0)
        t_max = float(np.max(times))
        chunk = max(16, int(math.ceil(t_max / self.mean_dwell_seconds)) + 8)
        blocks: list[np.ndarray] = []
        total = 0.0
        while total <= t_max:
            draw = rng.exponential(self.mean_dwell_seconds, size=chunk)
            blocks.append(draw)
            total += float(draw.sum())
        durations = np.concatenate(blocks)
        edges = np.cumsum(durations)
        n_levels = self.levels.size
        if self.start_regime is None:
            first = int(rng.integers(0, n_levels))
        else:
            first = self.start_regime
        # Jump offsets in {1, ..., n-1} guarantee the next regime differs.
        steps = rng.integers(1, n_levels, size=durations.size)
        regimes = (first + np.concatenate([[0], np.cumsum(steps[:-1])])) % n_levels
        segment = np.searchsorted(edges, times, side="right")
        return self.levels[regimes[segment]]

    def __repr__(self) -> str:
        return (
            f"RegimeSwitching(levels={list(np.round(self.levels, 4))}, "
            f"mean_dwell={self.mean_dwell_seconds:g}s)"
        )


class GammaNoise(IntensityPrimitive):
    """A unit-mean multiplicative gamma noise field with optional memory.

    ``cv`` is the coefficient of variation of the (smoothed) field; when
    ``correlation_bins > 1`` the per-bin draws are smoothed with a moving
    average so the fluctuation drifts instead of jumping independently every
    bin (mirroring the noise model of the synthetic paper traces).  Use as a
    modulator: ``pattern * GammaNoise(0.3, correlation_bins=10)``.
    """

    def __init__(self, cv: float, *, correlation_bins: int = 1) -> None:
        self.cv = check_non_negative(cv, "cv")
        if int(correlation_bins) < 1:
            raise ValidationError(
                f"correlation_bins must be >= 1, got {correlation_bins}"
            )
        self.correlation_bins = int(correlation_bins)

    def sample(self, times: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        if self.cv <= 0:
            return np.ones_like(times, dtype=float)
        smoothing = self.correlation_bins > 1 and times.size > self.correlation_bins
        # Inflate per-bin variance so the smoothed field keeps roughly the
        # requested coefficient of variation — only when smoothing actually
        # runs, otherwise tiny grids would get sqrt(correlation_bins)x noise.
        effective = self.cv * math.sqrt(self.correlation_bins) if smoothing else self.cv
        shape = 1.0 / effective**2
        noise = rng.gamma(shape, 1.0 / shape, size=times.size)
        if smoothing:
            kernel = np.ones(self.correlation_bins) / self.correlation_bins
            # Normalize by the kernel mass actually inside the window so the
            # zero-padded boundaries keep the field's unit mean.
            mass = np.convolve(np.ones(times.size), kernel, mode="same")
            noise = np.convolve(noise, kernel, mode="same") / mass
        return noise

    def __repr__(self) -> str:
        return f"GammaNoise(cv={self.cv:g}, correlation_bins={self.correlation_bins})"


class Superpose(IntensityPrimitive):
    """Pointwise sum of components (multi-tenant superposition)."""

    def __init__(self, components: Sequence[IntensityPrimitive]) -> None:
        flat: list[IntensityPrimitive] = []
        for component in components:
            component = as_primitive(component)
            if type(component) is Superpose:
                flat.extend(component.components)
            else:
                flat.append(component)
        if not flat:
            raise ValidationError("Superpose requires at least one component")
        self.components = tuple(flat)

    def sample(self, times: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        total = np.zeros_like(times, dtype=float)
        for component in self.components:
            total = total + np.asarray(component.sample(times, rng), dtype=float)
        return total

    def __repr__(self) -> str:
        return " + ".join(repr(c) for c in self.components)


class Scale(IntensityPrimitive):
    """A component multiplied by a scalar factor."""

    def __init__(self, component: IntensityPrimitive, factor: float) -> None:
        self.component = as_primitive(component)
        factor = float(factor)
        if not math.isfinite(factor):
            raise ValidationError(f"factor must be finite, got {factor!r}")
        self.factor = factor

    def sample(self, times: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        return self.factor * np.asarray(self.component.sample(times, rng), dtype=float)

    def __repr__(self) -> str:
        return f"{self.factor:g} * {self.component!r}"


class Modulate(IntensityPrimitive):
    """Pointwise product of two components (amplitude modulation)."""

    def __init__(self, carrier: IntensityPrimitive, modulator: IntensityPrimitive) -> None:
        self.carrier = as_primitive(carrier)
        self.modulator = as_primitive(modulator)

    def sample(self, times: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        carrier = np.asarray(self.carrier.sample(times, rng), dtype=float)
        modulator = np.asarray(self.modulator.sample(times, rng), dtype=float)
        return carrier * modulator

    def __repr__(self) -> str:
        return f"({self.carrier!r}) * ({self.modulator!r})"


class Clip(IntensityPrimitive):
    """A component clipped to ``[lower, upper]``."""

    def __init__(
        self,
        component: IntensityPrimitive,
        lower: float = 0.0,
        upper: float | None = None,
    ) -> None:
        self.component = as_primitive(component)
        self.lower = float(lower)
        self.upper = None if upper is None else float(upper)
        if self.upper is not None and self.upper < self.lower:
            raise ValidationError(
                f"upper ({upper}) must be >= lower ({lower}) in Clip"
            )

    def sample(self, times: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        values = np.asarray(self.component.sample(times, rng), dtype=float)
        return np.clip(values, self.lower, self.upper)

    def __repr__(self) -> str:
        upper = "inf" if self.upper is None else f"{self.upper:g}"
        return f"clip({self.component!r}, [{self.lower:g}, {upper}])"
