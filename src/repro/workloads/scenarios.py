"""Scenario specifications: a named workload plus its simulator defaults.

A :class:`Scenario` is the unit the registry, the CLI, the sweep experiment
and the benchmark all operate on.  It bundles *how to generate* the workload
(either an intensity built from :mod:`repro.workloads.primitives` and
sampled as an exact NHPP, or a seeded trace generator for the paper traces)
with its per-workload evaluation defaults: the train/test split, the
fitting bin width, and the instance pending time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Protocol

from ..exceptions import ValidationError, WorkloadError
from ..nhpp.intensity import PiecewiseConstantIntensity
from ..rng import ensure_rng
from ..telemetry import get_recorder
from ..traces.synthetic import generate_trace_from_intensity
from ..types import ArrivalTrace
from .primitives import IntensityPrimitive

__all__ = ["Scenario", "IntensityBuilder", "TraceGenerator"]


class IntensityBuilder(Protocol):
    """Builds the scenario's intensity primitive for a given horizon.

    Receiving the (possibly scaled) horizon lets builders anchor events
    relative to it — e.g. a flash crowd at 80% of the horizon stays in the
    test window at every scale.
    """

    def __call__(self, horizon_seconds: float) -> IntensityPrimitive: ...


class TraceGenerator(Protocol):
    """Seeded trace generator used by the paper-trace scenarios."""

    def __call__(self, *, seed: int, scale: float) -> ArrivalTrace: ...


@dataclass(frozen=True)
class Scenario:
    """One named, parameterized, seed-reproducible workload scenario.

    Exactly one of ``intensity`` and ``generator`` must be set:

    * ``intensity`` — a builder returning a composable
      :class:`~repro.workloads.primitives.IntensityPrimitive`; the trace is
      an exact NHPP realization of the compiled intensity;
    * ``generator`` — a seeded callable producing the trace directly (used
      for the registry aliases of the paper's ``crs``/``google``/``alibaba``
      traces).

    Attributes
    ----------
    name:
        Registry key (case-insensitive lookups).
    description:
        One-line description shown by ``repro workloads list``.
    intensity:
        Intensity builder, called with the scaled horizon in seconds.
    generator:
        Seeded trace generator (keyword arguments ``seed`` and ``scale``).
    horizon_seconds:
        Unscaled trace length in seconds.
    bin_seconds:
        Grid width for intensity compilation and NHPP fitting.
    processing_time_mean, processing_time_distribution:
        Per-query processing-time model of the generated trace.
    pending_time:
        Instance startup latency (seconds) used with this scenario.
    train_fraction:
        Fraction of the horizon used for training (rest is test).
    default_seed:
        Seed used when the caller does not pass one.
    tags:
        Free-form labels (``"bursty"``, ``"seasonal"``, ``"paper"``, ...).
    """

    name: str
    description: str
    intensity: IntensityBuilder | None = None
    generator: TraceGenerator | None = None
    horizon_seconds: float = 86_400.0
    bin_seconds: float = 60.0
    processing_time_mean: float = 20.0
    processing_time_distribution: str = "exponential"
    pending_time: float = 13.0
    train_fraction: float = 0.75
    default_seed: int = 7
    tags: tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        if (self.intensity is None) == (self.generator is None):
            raise WorkloadError(
                f"scenario {self.name!r} must define exactly one of "
                "'intensity' and 'generator'"
            )
        if not self.name:
            raise WorkloadError("scenario name must be non-empty")
        if not 0.0 < self.train_fraction < 1.0:
            raise ValidationError(
                f"train_fraction must be in (0, 1), got {self.train_fraction}"
            )
        for attr in ("horizon_seconds", "bin_seconds", "pending_time"):
            value = getattr(self, attr)
            if not (isinstance(value, (int, float)) and value > 0 and math.isfinite(value)):
                raise ValidationError(f"{attr} must be positive and finite, got {value!r}")

    # -------------------------------------------------------------- helpers

    @property
    def kind(self) -> str:
        """``"intensity"`` for primitive-built scenarios, ``"generator"`` else."""
        return "intensity" if self.intensity is not None else "generator"

    @property
    def simulator_defaults(self) -> dict:
        """This scenario's :func:`repro.runtime.prepare_workload` settings.

        The one source of a workload's train/test split, fitting bin width
        and pending time: :class:`repro.runtime.WorkloadSpec` prepares and
        keys every realization of the scenario with them, generated or
        replaced by a modified trace.
        """
        return {
            "train_fraction": self.train_fraction,
            "bin_seconds": self.bin_seconds,
            "pending_time": self.pending_time,
        }

    @property
    def cache_token(self) -> str | None:
        """The generator's content token, or ``None`` when it has none.

        CSV-backed generators expose a digest of their file; the key of a
        scenario realization (``WorkloadSpec.cache_key()``) appends it, so
        editing the file invalidates the cached preparation.
        """
        token = getattr(self.generator, "cache_token", None)
        return None if token is None else str(token)

    def resolve_seed(self, seed: int | None) -> int:
        """The seed actually used: ``default_seed`` when ``seed`` is None."""
        seed = self.default_seed if seed is None else int(seed)
        if seed < 0:
            raise ValidationError(f"seed must be non-negative, got {seed}")
        return seed

    def scaled_horizon(self, scale: float) -> float:
        """Horizon after applying ``scale`` (floored at ten bins)."""
        scale = float(scale)
        if not scale > 0:
            raise ValidationError(f"scale must be positive, got {scale}")
        return max(self.horizon_seconds * scale, 10.0 * self.bin_seconds)

    # ------------------------------------------------------------- building

    def _compile_intensity(
        self, horizon: float, rng: "np.random.Generator"
    ) -> PiecewiseConstantIntensity:
        if self.intensity is None:
            raise WorkloadError(
                f"scenario {self.name!r} is generator-backed and has no "
                "closed-form intensity"
            )
        return self.intensity(horizon).compile(horizon, self.bin_seconds, random_state=rng)

    def build_intensity(
        self, *, scale: float = 1.0, seed: int | None = None
    ) -> PiecewiseConstantIntensity:
        """Compile the scenario's ground-truth intensity (intensity scenarios only)."""
        horizon = self.scaled_horizon(scale)
        return self._compile_intensity(horizon, ensure_rng(self.resolve_seed(seed)))

    def build_trace(self, *, scale: float = 1.0, seed: int | None = None) -> ArrivalTrace:
        """Generate the scenario's trace, deterministically for a given seed.

        The build runs in a ``trace.generate`` telemetry span.
        """
        seed = self.resolve_seed(seed)
        with get_recorder().span("trace.generate"):
            if self.generator is not None:
                scale = float(scale)
                if not scale > 0:
                    raise ValidationError(f"scale must be positive, got {scale}")
                return self.generator(seed=seed, scale=scale)
            horizon = self.scaled_horizon(scale)
            rng = ensure_rng(seed)
            intensity = self._compile_intensity(horizon, rng)
            # The bulk arrival sampler draws from the same distribution as the
            # per-bin loop but consumes the random stream in a different order,
            # so the seeded realizations below are pinned as golden fixtures in
            # ``tests/golden/`` (see README: re-baselining golden fixtures).
            return generate_trace_from_intensity(
                intensity,
                horizon,
                processing_time_mean=self.processing_time_mean,
                processing_time_distribution=self.processing_time_distribution,
                name=self.name,
                random_state=rng,
                vectorized=True,
            )

    def build_split(
        self, *, scale: float = 1.0, seed: int | None = None
    ) -> tuple[ArrivalTrace, ArrivalTrace]:
        """Generate the trace and return its (train, test) split."""
        return self.build_trace(scale=scale, seed=seed).split(self.train_fraction)
