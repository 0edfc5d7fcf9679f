"""Convenience wrappers around the simulator for experiments and examples.

Engine selection lives here.  The **API-layer default** is the batched
engine (:data:`DEFAULT_ENGINE`): :class:`repro.api.Session`, the registry
runners and the generated CLI all resolve an unspecified engine to
``"batched"`` through :func:`resolve_engine` (``"reference"`` remains the
escape hatch; the two produce bit-identical results, enforced by
``tests/test_engine_parity.py``).

:func:`create_simulator` applies the same default: a
:class:`~repro.config.SimulationConfig` that never chose an engine gets
``"batched"``, exactly like every API-layer entry point.
"""

from __future__ import annotations

from ..config import SimulationConfig
from ..exceptions import ConfigurationError
from ..pending import PendingTimeModel
from ..scaling.base import Autoscaler
from ..types import ArrivalTrace, SimulationResult
from .engine import ScalingPerQuerySimulator
from .fastengine import BatchedEventSimulator

__all__ = [
    "DEFAULT_ENGINE",
    "create_simulator",
    "replay",
    "resolve_engine",
]

#: The engine an unspecified choice resolves to at the ``repro.api`` layer.
DEFAULT_ENGINE = "batched"

#: Engine name -> simulator class; all expose ``replay(trace, scaler)``.
_ENGINES = {
    "reference": ScalingPerQuerySimulator,
    "batched": BatchedEventSimulator,
}


def resolve_engine(engine: str | None) -> str:
    """The concrete engine an API-layer selection denotes.

    ``None`` (unspecified) resolves to :data:`DEFAULT_ENGINE`; explicit
    names are validated and passed through.
    """
    if engine is None:
        return DEFAULT_ENGINE
    if engine not in _ENGINES:
        raise ConfigurationError(
            f"unknown simulation engine {engine!r}; expected one of "
            f"{sorted(_ENGINES)}"
        )
    return engine


def create_simulator(
    config: SimulationConfig | None = None,
    *,
    pending_model: PendingTimeModel | None = None,
):
    """Instantiate the replay engine selected by ``config.engine``.

    ``"reference"`` is the per-query event loop of
    :class:`~repro.simulation.engine.ScalingPerQuerySimulator`, whose
    semantics define Algorithm 1; ``"batched"`` is the vectorized
    :class:`~repro.simulation.fastengine.BatchedEventSimulator`, which
    produces bit-identical results at a fraction of the cost on large
    traces, policies with a positive arrival target (BP, AdapBP)
    included.

    A config that never chose an engine (``engine=None``) gets
    :data:`DEFAULT_ENGINE` — the same resolution the API layer
    (:class:`repro.api.Session`, the registry, the CLI) applies.
    """
    config = config or SimulationConfig()
    engine = config.engine or DEFAULT_ENGINE
    try:
        engine_cls = _ENGINES[engine]
    except KeyError:  # pragma: no cover - SimulationConfig validates first
        raise ConfigurationError(
            f"unknown simulation engine {engine!r}; "
            f"expected one of {sorted(_ENGINES)}"
        ) from None
    return engine_cls(config, pending_model=pending_model)


def replay(
    trace: ArrivalTrace,
    scaler: Autoscaler,
    config: SimulationConfig | None = None,
) -> SimulationResult:
    """Replay ``trace`` under ``scaler`` with the given simulator configuration."""
    simulator = create_simulator(config)
    return simulator.replay(trace, scaler)
