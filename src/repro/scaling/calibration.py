"""Nominal-to-actual hitting-probability calibration (Section VI-C guidelines).

The hitting probability attained on real traffic can deviate from the nominal
target when the intensity estimate carries error (Proposition 2).  The paper
therefore recommends running the autoscaler on training data with a grid of
nominal levels, recording the achieved hitting probabilities, and using the
resulting mapping to pick the nominal level that realizes a desired actual
level.  :func:`calibrate_hit_probability` performs that procedure against the
simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .._validation import as_1d_float_array
from ..config import SimulationConfig
from ..exceptions import ValidationError
from ..types import ArrivalTrace
from .base import Autoscaler

__all__ = ["CalibrationResult", "calibrate_hit_probability"]


@dataclass(frozen=True)
class CalibrationResult:
    """The fitted nominal-to-actual hitting-probability mapping.

    Attributes
    ----------
    nominal_levels:
        The nominal targets that were simulated, ascending.
    achieved_levels:
        The hit rates actually achieved for each nominal target.
    """

    nominal_levels: np.ndarray
    achieved_levels: np.ndarray

    def nominal_for(self, desired_actual: float) -> float:
        """Nominal level to request so the achieved hit rate is ``desired_actual``.

        Uses monotone linear interpolation of the calibration curve; desired
        levels outside the achieved range are clamped to the nearest endpoint.
        """
        if not 0.0 <= desired_actual <= 1.0:
            raise ValidationError(
                f"desired_actual must lie in [0, 1], got {desired_actual}"
            )
        achieved = self.achieved_levels
        nominal = self.nominal_levels
        order = np.argsort(achieved)
        achieved_sorted = achieved[order]
        nominal_sorted = nominal[order]
        return float(np.interp(desired_actual, achieved_sorted, nominal_sorted))

    def achieved_for(self, nominal: float) -> float:
        """Predicted achieved hit rate when requesting ``nominal``."""
        return float(np.interp(nominal, self.nominal_levels, self.achieved_levels))


def calibrate_hit_probability(
    scaler_factory: Callable[[float], Autoscaler],
    training_trace: ArrivalTrace,
    nominal_levels: Sequence[float],
    *,
    simulation_config: SimulationConfig | None = None,
) -> CalibrationResult:
    """Run the autoscaler on training data over a grid of nominal HP levels.

    Parameters
    ----------
    scaler_factory:
        Callable mapping a nominal hitting-probability target to a fresh
        autoscaler instance (e.g. ``lambda p: RobustScaler(..., target=p)``).
    training_trace:
        The trace to replay for calibration (training data, not test data).
    nominal_levels:
        The grid ``0 < p_1 < ... < p_B < 1`` of nominal targets to try.
    simulation_config:
        Simulator configuration used for the calibration replays.
    """
    # Imported lazily to avoid a circular import: the simulator package
    # depends on the autoscaler interface defined in this package.
    from ..simulation.runner import create_simulator

    levels = as_1d_float_array(nominal_levels, "nominal_levels")
    if levels.size == 0:
        raise ValidationError("nominal_levels must not be empty")
    if np.any((levels <= 0) | (levels >= 1)):
        raise ValidationError("nominal_levels must lie strictly in (0, 1)")
    levels = np.sort(levels)
    simulator = create_simulator(simulation_config)
    achieved = np.empty_like(levels)
    for i, level in enumerate(levels):
        scaler = scaler_factory(float(level))
        result = simulator.replay(training_trace, scaler)
        achieved[i] = result.hit_rate
    return CalibrationResult(nominal_levels=levels, achieved_levels=achieved)
