"""The one mapping from engine name to replay engine.

Every replay in the product runs on the batched engine
(:class:`~repro.simulation.fastengine.BatchedEventSimulator`), the default
of :attr:`repro.config.SimulationConfig.engine`.  The per-query
:class:`~repro.simulation.engine.ScalingPerQuerySimulator`, whose semantics
define Algorithm 1, stays as the oracle: tests and benchmarks select it with
``SimulationConfig(engine="reference")`` and compare rows bit for bit
(``tests/test_engine_parity.py``).
"""

from __future__ import annotations

from ..config import SimulationConfig
from ..pending import PendingTimeModel
from ..scaling.base import Autoscaler
from ..types import ArrivalTrace, SimulationResult
from .engine import ScalingPerQuerySimulator
from .fastengine import BatchedEventSimulator

__all__ = [
    "DEFAULT_ENGINE",
    "ENGINES",
    "create_simulator",
    "replay",
]

#: Engine name -> simulator class; all expose ``replay(trace, scaler)``.
#: :class:`~repro.config.SimulationConfig` validates its ``engine`` against it.
ENGINES = {
    "reference": ScalingPerQuerySimulator,
    "batched": BatchedEventSimulator,
}

#: The default engine's name; only the performance benchmark reads it.
DEFAULT_ENGINE = SimulationConfig.engine


def create_simulator(
    config: SimulationConfig | None = None,
    *,
    pending_model: PendingTimeModel | None = None,
):
    """Instantiate the replay engine named by ``config.engine``."""
    config = config or SimulationConfig()
    return ENGINES[config.engine](config, pending_model=pending_model)


def replay(
    trace: ArrivalTrace,
    scaler: Autoscaler,
    config: SimulationConfig | None = None,
) -> SimulationResult:
    """Replay ``trace`` under ``scaler`` with the given simulator configuration."""
    simulator = create_simulator(config)
    return simulator.replay(trace, scaler)
