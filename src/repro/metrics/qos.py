"""QoS metrics: hit rate, response times, and response-time quantiles."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .._validation import as_1d_float_array
from ..exceptions import ValidationError
from ..types import SimulationResult

__all__ = ["hit_rate", "mean_response_time", "response_time_quantiles"]


def hit_rate(result: SimulationResult) -> float:
    """Fraction of queries served by an instance that was ready on arrival."""
    return result.hit_rate


def mean_response_time(result: SimulationResult) -> float:
    """Average response time (waiting + processing) across all queries, seconds."""
    return result.mean_response_time


#: Table II's response-time quantile levels.
TABLE2_LEVELS = (0.75, 0.95, 0.99, 0.999)


def response_time_quantiles(
    result: SimulationResult,
    levels: Sequence[float] = TABLE2_LEVELS,
) -> dict[float, float]:
    """Response-time quantiles at the requested levels (Table II of the paper)."""
    levels_arr = as_1d_float_array(levels, "levels")
    if np.any((levels_arr < 0) | (levels_arr > 1)):
        raise ValidationError("quantile levels must lie in [0, 1]")
    return quantiles_of(result.response_times, levels_arr)


def quantiles_of(times: np.ndarray, levels: np.ndarray) -> dict[float, float]:
    """Quantiles of a float ``times`` column at already-validated ``levels``.

    The unchecked core of :func:`response_time_quantiles`, for callers that
    hold the response-time column already; NaN at every level when empty.
    """
    if times.size == 0:
        return {float(level): float("nan") for level in levels}
    values = np.quantile(times, levels)
    return {float(level): float(value) for level, value in zip(levels, values)}
