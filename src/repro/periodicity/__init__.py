"""Robust periodicity detection (module 1 of the RobustScaler framework)."""

from .detector import PeriodicityDetector, PeriodicityResult

__all__ = ["PeriodicityDetector", "PeriodicityResult"]
