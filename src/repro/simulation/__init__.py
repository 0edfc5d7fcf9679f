"""Discrete-event simulation of the scaling-per-query dynamics (Algorithm 1)."""

from .engine import ScalingPerQuerySimulator
from .fastengine import BatchedEventSimulator
from .runner import (
    DEFAULT_ENGINE,
    create_simulator,
    replay,
    resolve_engine,
)

__all__ = [
    "DEFAULT_ENGINE",
    "ScalingPerQuerySimulator",
    "BatchedEventSimulator",
    "create_simulator",
    "replay",
    "resolve_engine",
]
