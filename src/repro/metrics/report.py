"""Result summaries and plain-text tables for the experiment harness."""

from __future__ import annotations

from typing import Any, Mapping, Sequence

import numpy as np

from .._validation import check_integer
from ..types import SimulationResult
from .qos import TABLE2_LEVELS, quantiles_of
from .variance import block_mean_variance

__all__ = ["summarize_result", "format_table"]

_TABLE2_LEVELS = np.asarray(TABLE2_LEVELS, dtype=float)


def summarize_result(
    result: SimulationResult,
    *,
    reference_cost: float | None = None,
    variance_window: int = 50,
) -> dict[str, float]:
    """Compute the paper's evaluation metrics for one simulation result.

    Returns a dictionary with ``hit_rate``, ``rt_avg``, ``total_cost``,
    ``relative_cost`` (when a reference cost is supplied), the windowed QoS
    variances of Fig. 5 and the high-level response-time quantiles of
    Table II.  Every value is a function of the replay's outcome alone; the
    planner's wall-clock latency stays in ``result.planning_times``.
    """
    window = check_integer(variance_window, "variance_window", minimum=1)
    # Each column is derived once and shared by every metric that reads it;
    # the values equal the public helpers' (``result.mean_response_time``,
    # ``response_time_quantiles``, ``windowed_mean_variance``) bit for bit.
    response = result.response_times
    total_cost = result.total_cost
    summary: dict[str, float] = {
        "n_queries": float(result.n_queries),
        "hit_rate": result.hit_rate,
        "rt_avg": float(response.mean()) if response.size else float("nan"),
        "total_cost": total_cost,
    }
    if reference_cost is not None and reference_cost > 0:
        summary["relative_cost"] = total_cost / reference_cost
    summary["hit_rate_window_variance"] = block_mean_variance(
        result.hits.astype(float), window
    )
    summary["rt_window_variance"] = block_mean_variance(response, window)
    for level, value in quantiles_of(response, _TABLE2_LEVELS).items():
        summary[f"rt_p{level * 100:g}"] = value
    return summary


def format_table(
    rows: Sequence[Mapping[str, Any]],
    columns: Sequence[str] | None = None,
    *,
    float_format: str = "{:.4g}",
    title: str | None = None,
) -> str:
    """Render a list of row dictionaries as an aligned plain-text table.

    Parameters
    ----------
    rows:
        The table rows; missing keys render as empty cells.
    columns:
        Column order; defaults to the keys of the first row.
    float_format:
        Format applied to float values.
    title:
        Optional title printed above the table.
    """
    if not rows:
        return title or ""
    if columns is None:
        columns = list(rows[0].keys())

    def render(value: Any) -> str:
        if value is None:
            return ""
        if isinstance(value, float):
            return float_format.format(value)
        return str(value)

    rendered = [[render(row.get(col)) for col in columns] for row in rows]
    widths = [
        max(len(str(col)), *(len(r[i]) for r in rendered)) for i, col in enumerate(columns)
    ]
    lines = []
    if title:
        lines.append(title)
    header = "  ".join(str(col).ljust(width) for col, width in zip(columns, widths))
    lines.append(header)
    lines.append("  ".join("-" * width for width in widths))
    for r in rendered:
        lines.append("  ".join(cell.ljust(width) for cell, width in zip(r, widths)))
    return "\n".join(lines)
