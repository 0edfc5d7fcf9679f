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
    hold the response-time column already; NaN at every level when empty or
    when the column holds a NaN.

    Bit-identical to ``np.quantile(times, levels)`` (the "linear" method),
    whose index and interpolation arithmetic is written out here so the
    order statistics come from two partial partitions: one of the whole
    column at the lowest needed rank, then one of the slice above it at the
    remaining ranks.  ``np.quantile`` instead partitions the whole column at
    every rank, the minimum and the maximum included.
    """
    nan = {float(level): float("nan") for level in levels}
    n = times.size
    if n == 0:
        return nan
    virtual = (n - 1) * levels
    previous = np.floor(virtual)
    following = previous + 1
    # Levels at or above the last rank read the maximum, as in numpy.
    last = virtual >= n - 1
    previous[last] = -1
    following[last] = -1
    previous = previous.astype(np.intp)
    following = following.astype(np.intp)
    gamma = virtual - previous
    # The last rank is always partitioned: a NaN sorts there.
    ranks = np.unique(np.concatenate([previous, following, [-1]]) % n)
    lowest = int(ranks[0])
    ordered = np.partition(times, lowest)
    if ranks.size > 1:
        ordered[lowest + 1 :].partition(ranks[1:] - (lowest + 1))
    if np.isnan(ordered[-1]):
        return nan
    below = ordered[previous]
    above = ordered[following]
    step = above - below
    values = np.where(gamma >= 0.5, above - step * (1 - gamma), below + step * gamma)
    return {float(level): float(value) for level, value in zip(levels, values)}
