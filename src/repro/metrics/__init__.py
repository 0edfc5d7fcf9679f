"""Evaluation metrics: QoS, cost, variance, Pareto utilities, error measures."""

from .qos import response_time_quantiles
from .cost import relative_cost
from .variance import windowed_mean_variance
from .pareto import ParetoPoint, dominates, pareto_frontier
from .errors import mean_absolute_error, mean_squared_error
from .report import format_table, summarize_result

__all__ = [
    "response_time_quantiles",
    "relative_cost",
    "windowed_mean_variance",
    "ParetoPoint",
    "dominates",
    "pareto_frontier",
    "mean_squared_error",
    "mean_absolute_error",
    "summarize_result",
    "format_table",
]
