"""The Adaptive Backup Pool (AdapBP) heuristic.

AdapBP adjusts the pool size to the traffic level: every ``update_interval``
seconds it estimates the current arrival rate as the average QPS over the
most recent ``rate_window`` seconds and resets the pool target to
``ceil(rate * rate_factor)``, creating or scaling in instances to match.
Between updates it behaves like Backup Pool with the current target: the
base arrival rule replenishes the pool on every arrival, reading the target
from :attr:`AdaptiveBackupPoolScaler.arrival_target`.
"""

from __future__ import annotations

import math

from .._validation import check_non_negative, check_positive
from .base import Autoscaler, PlanningContext, ScalingResponse

__all__ = ["AdaptiveBackupPoolScaler"]


class AdaptiveBackupPoolScaler(Autoscaler):
    """Backup pool whose size tracks the recent arrival rate.

    Parameters
    ----------
    rate_factor:
        The pre-fixed constant multiplying the estimated QPS; the paper
        sweeps it from zero to hundreds.
    rate_window:
        Length (seconds) of the trailing window used to estimate the QPS
        (ten minutes in the paper).
    update_interval:
        Seconds between pool-size updates (ten minutes in the paper).
    max_pool_size:
        Safety cap on the pool target.
    """

    def __init__(
        self,
        rate_factor: float,
        *,
        rate_window: float = 600.0,
        update_interval: float = 600.0,
        max_pool_size: int = 100_000,
    ) -> None:
        self.rate_factor = check_non_negative(rate_factor, "rate_factor")
        self.rate_window = check_positive(rate_window, "rate_window")
        self.update_interval = check_positive(update_interval, "update_interval")
        self.max_pool_size = int(max_pool_size)
        self.name = f"AdapBP(factor={self.rate_factor:g})"
        self._target = 0

    @property
    def planning_interval(self) -> float:
        return self.update_interval

    @property
    def arrival_target(self) -> int:
        """The pool size currently maintained; it moves only at planning ticks."""
        return self._target

    def reset(self) -> None:
        self._target = 0

    def on_planning_tick(self, context: PlanningContext) -> ScalingResponse:
        """Re-estimate the arrival rate and resize the pool to match."""
        rate = context.recent_arrival_rate(self.rate_window)
        self._target = min(int(math.ceil(rate * self.rate_factor)), self.max_pool_size)
        deficit = self._target - context.outstanding_instances
        if deficit > 0:
            return ScalingResponse.create_now(context.time, deficit)
        if deficit < 0:
            return ScalingResponse(scale_in=-deficit)
        return ScalingResponse.empty()
