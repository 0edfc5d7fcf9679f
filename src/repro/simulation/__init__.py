"""Discrete-event simulation of the scaling-per-query dynamics (Algorithm 1)."""

from .engine import ScalingPerQuerySimulator
from .fastengine import BatchedEventSimulator
from .runner import create_simulator, replay

__all__ = [
    "ScalingPerQuerySimulator",
    "BatchedEventSimulator",
    "create_simulator",
    "replay",
]
