"""Shared helpers for the experiment drivers.

Every driver names its sweep points as :class:`~repro.runtime.EvalTask`
batches: a :class:`~repro.runtime.WorkloadSpec` whose split, bin width and
pending time come from the scenario registry, and a
:class:`~repro.runtime.ScalerSpec` that builds the autoscaler.  This module
holds the few pieces the drivers share on top of that: the per-trace sweep
grids and the RobustScaler spec bound to a driver's planner parameters.
"""

from __future__ import annotations

from typing import Mapping

from ..runtime.spec import ScalerSpec
from ..workloads import get_scenario

__all__ = [
    "trace_defaults",
    "robustscaler_spec",
]


def robustscaler_spec(
    params: Mapping,
    kind: str,
    target: float,
    *,
    parameter_name: str | None = None,
) -> ScalerSpec:
    """A RobustScaler :class:`~repro.runtime.ScalerSpec` bound to driver params.

    ``params`` is a driver's resolved parameter mapping (see
    :mod:`repro.api`); its ``planning_interval`` and ``monte_carlo_samples``
    become the spec's planner settings.
    """
    return ScalerSpec(
        kind,
        float(target),
        parameter_name=parameter_name,
        planning_interval=params["planning_interval"],
        monte_carlo_samples=params["monte_carlo_samples"],
    )


def trace_defaults(name: str) -> dict:
    """Per-trace sweep grids (``pool_sizes``, ``adaptive_factors``, ``hp_targets``).

    The three paper traces carry hand-tuned grids; every other registered
    workload scenario gets generic grids whose HP targets follow its tags:
    spiky, hard-to-forecast traffic (``adversarial`` / ``heavy-tail``)
    sweeps moderate targets, since chasing very high hit probabilities is
    hopeless there.  The train split, bin width and pending time are not
    here: they are the scenario's own fields.  Unknown names raise
    :class:`~repro.exceptions.WorkloadError`.
    """
    defaults = {
        "crs": {
            "pool_sizes": [0, 1, 2, 4, 8],
            "adaptive_factors": [0.0, 25.0, 50.0, 100.0, 200.0],
            "hp_targets": [0.3, 0.5, 0.7, 0.9, 0.99],
        },
        "google": {
            "pool_sizes": [0, 1, 2, 4, 8, 16],
            "adaptive_factors": [0.0, 5.0, 10.0, 20.0, 40.0, 80.0],
            "hp_targets": [0.3, 0.5, 0.7, 0.9, 0.99],
        },
        "alibaba": {
            "pool_sizes": [0, 1, 2, 4, 8, 16],
            "adaptive_factors": [0.0, 5.0, 10.0, 20.0, 40.0],
            "hp_targets": [0.3, 0.5, 0.7, 0.9, 0.99],
        },
    }
    key = name.lower()
    if key in defaults:
        return defaults[key]
    hard_to_forecast = {"adversarial", "heavy-tail"} & set(get_scenario(name).tags)
    return {
        "pool_sizes": [0, 1, 2, 4, 8],
        "adaptive_factors": [0.0, 10.0, 25.0, 50.0, 100.0],
        "hp_targets": [0.3, 0.7, 0.9] if hard_to_forecast else [0.5, 0.9],
    }

