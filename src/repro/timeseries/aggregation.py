"""Time aggregation utilities.

The periodicity detector first aggregates the raw QPS series into coarser
bins so that low-traffic noise does not drown out cyclic structure
(Section IV of the paper).  :func:`aggregate_counts` implements that
aggregation.
"""

from __future__ import annotations

import numpy as np

from .._validation import as_1d_float_array, check_integer
from ..exceptions import ValidationError

__all__ = ["aggregate_counts"]


def aggregate_counts(counts: np.ndarray, factor: int, *, how: str = "sum") -> np.ndarray:
    """Merge every ``factor`` consecutive bins of a count series.

    Parameters
    ----------
    counts:
        One-dimensional array of per-bin counts.
    factor:
        Number of consecutive bins to merge; trailing bins that do not fill a
        complete group are dropped.
    how:
        ``"sum"`` (default) or ``"mean"``.

    Returns
    -------
    numpy.ndarray
        The aggregated series of length ``len(counts) // factor``.
    """
    counts = as_1d_float_array(counts, "counts")
    factor = check_integer(factor, "factor", minimum=1)
    if how not in ("sum", "mean"):
        raise ValidationError(f"how must be 'sum' or 'mean', got {how!r}")
    n_full = (counts.size // factor) * factor
    if n_full == 0:
        raise ValidationError(
            f"series of length {counts.size} is too short to aggregate by {factor}"
        )
    grouped = counts[:n_full].reshape(-1, factor)
    if how == "sum":
        return grouped.sum(axis=1)
    return grouped.mean(axis=1)

