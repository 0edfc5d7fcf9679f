"""Cost metrics: cost relative to reactive scaling.

The total instance lifecycle cost is :attr:`repro.types.SimulationResult.total_cost`.
"""

from __future__ import annotations

from ..exceptions import ValidationError
from ..types import SimulationResult

__all__ = ["relative_cost"]


def relative_cost(result: SimulationResult, reference_cost: float) -> float:
    """Cost of ``result`` divided by the cost of the purely reactive baseline.

    The paper reports ``relative cost`` as the ratio of a strategy's total
    cost to the cost of Backup Pool with ``B = 0`` on the same trace, so a
    value of 1.0 means "as cheap as doing nothing proactively".
    """
    if reference_cost <= 0:
        raise ValidationError(f"reference_cost must be positive, got {reference_cost}")
    return result.total_cost / reference_cost
