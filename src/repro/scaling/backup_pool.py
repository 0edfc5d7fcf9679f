"""The Backup Pool (BP) heuristic and the purely reactive baseline.

BP constantly maintains a pool of ``B`` warm (or warming) instances: upon
each query arrival one instance is taken from the pool and the pool is
immediately replenished with a fresh instance.  ``B = 0`` degenerates to the
purely reactive strategy that cold-starts an instance for every query, which
is also the cost reference for the "relative cost" metric.

Both are pure instances of the base arrival rule: BP declares
``arrival_target = B`` and keeps the base hook.
"""

from __future__ import annotations

from .._validation import check_integer
from .base import Autoscaler, PlanningContext, ScalingResponse

__all__ = ["BackupPoolScaler", "ReactiveScaler"]


class BackupPoolScaler(Autoscaler):
    """Maintain a fixed-size pool of ``pool_size`` instances.

    Parameters
    ----------
    pool_size:
        The number of instances ``B`` kept warm at all times.
    """

    def __init__(self, pool_size: int) -> None:
        self.pool_size = check_integer(pool_size, "pool_size", minimum=0)
        self.name = f"BP(B={self.pool_size})"

    def initialize(self, context: PlanningContext) -> ScalingResponse:
        """Fill the pool at time zero."""
        return ScalingResponse.create_now(context.time, self.pool_size)

    @property
    def arrival_target(self) -> int:
        """The arrival rule tops the pool back up to ``pool_size``."""
        return self.pool_size


class ReactiveScaler(BackupPoolScaler):
    """Purely reactive scaling: no pool, every query cold-starts an instance.

    Equivalent to ``BackupPoolScaler(0)`` (an arrival target of 0); exists
    as a named class because it doubles as the cost reference for the
    ``relative cost`` metric.
    """

    def __init__(self) -> None:
        super().__init__(0)
        self.name = "Reactive"
