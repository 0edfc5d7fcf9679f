"""Autoscaling policies: heuristic baselines and the RobustScaler variants.

Every policy implements the :class:`~repro.scaling.base.Autoscaler` interface
consumed by the simulator: it is consulted at time zero, at every query
arrival, and (optionally) on a periodic planning tick, and responds with
instance creations and scale-ins.
"""

from .base import Autoscaler, PlanningContext, ScalingResponse
from .backup_pool import BackupPoolScaler, ReactiveScaler
from .adaptive_backup_pool import AdaptiveBackupPoolScaler
from .robustscaler import RobustScaler, RobustScalerObjective
from .sequential import SequentialHPScaler
from .calibration import CalibrationResult, calibrate_hit_probability

__all__ = [
    "Autoscaler",
    "PlanningContext",
    "ScalingResponse",
    "BackupPoolScaler",
    "ReactiveScaler",
    "AdaptiveBackupPoolScaler",
    "RobustScaler",
    "RobustScalerObjective",
    "SequentialHPScaler",
    "CalibrationResult",
    "calibrate_hit_probability",
]
