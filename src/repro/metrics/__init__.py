"""Evaluation metrics: QoS, cost, variance, error measures and result tables."""

from .qos import response_time_quantiles
from .cost import relative_cost
from .variance import windowed_mean_variance
from .errors import mean_absolute_error, mean_squared_error
from .report import format_table, summarize_result

__all__ = [
    "response_time_quantiles",
    "relative_cost",
    "windowed_mean_variance",
    "mean_squared_error",
    "mean_absolute_error",
    "summarize_result",
    "format_table",
]
