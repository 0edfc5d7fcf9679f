"""Windowed QoS variability (the construction behind Fig. 5 of the paper).

The paper measures the *stability* of an autoscaler's QoS by ordering the
queries by arrival time, averaging the per-query metric over consecutive
blocks of 50 queries, and reporting the variance of those block averages
against the overall mean.  :func:`windowed_mean_variance` implements exactly
that construction for an arbitrary per-query series.
"""

from __future__ import annotations

import numpy as np

from .._validation import as_1d_float_array, check_integer

__all__ = ["windowed_mean_variance"]


def windowed_mean_variance(
    per_query_values: np.ndarray,
    window: int = 50,
) -> tuple[float, float]:
    """Return ``(mean, variance_of_window_means)`` for a per-query metric.

    Parameters
    ----------
    per_query_values:
        Per-query metric in arrival order (e.g. response times, or 0/1 hit
        indicators).
    window:
        Number of consecutive queries per block (50 in the paper).

    Returns
    -------
    tuple
        The overall mean and the variance of the block means.  With fewer
        than two complete blocks the variance is 0.
    """
    values = as_1d_float_array(per_query_values, "per_query_values")
    window = check_integer(window, "window", minimum=1)
    if values.size == 0:
        return float("nan"), float("nan")
    return float(values.mean()), block_mean_variance(values, window)


def block_mean_variance(values: np.ndarray, window: int) -> float:
    """Variance of the ``window``-query block means of a float column.

    The unchecked core of :func:`windowed_mean_variance`, for callers that
    hold a validated column and window: NaN when ``values`` is empty, 0 with
    fewer than two complete blocks.
    """
    if values.size == 0:
        return float("nan")
    n_blocks = values.size // window
    if n_blocks < 2:
        return 0.0
    block_means = values[: n_blocks * window].reshape(n_blocks, window).mean(axis=1)
    return float(block_means.var())
