"""Exception hierarchy for the RobustScaler reproduction.

All library-specific errors derive from :class:`RobustScalerError` so callers
can catch one base class.  Specific subclasses indicate which subsystem
rejected the input or failed, which keeps error handling in the experiment
harness and CLI explicit.
"""

from __future__ import annotations


class RobustScalerError(Exception):
    """Base class for all errors raised by this library."""


class ConfigurationError(RobustScalerError):
    """Raised when a configuration object contains invalid values."""


class ValidationError(RobustScalerError):
    """Raised when input data fails validation (shape, dtype, range)."""


class TraceError(RobustScalerError):
    """Raised for malformed or inconsistent workload traces."""


class TraceFormatError(TraceError):
    """Raised when a trace file cannot be parsed."""


class PeriodicityDetectionError(RobustScalerError):
    """Raised when periodicity detection cannot run on the given series."""


class ModelNotFittedError(RobustScalerError):
    """Raised when a model is queried before :meth:`fit` has been called."""


class ConvergenceError(RobustScalerError):
    """Raised when an iterative solver fails to converge within its budget."""


class InfeasibleConstraintError(RobustScalerError):
    """Raised when a QoS/cost constraint cannot be met by any decision.

    The HP-constrained formulation (eq. 2 in the paper) becomes infeasible
    when the requested hitting probability cannot be reached even by creating
    the instance immediately, because the pending time alone exceeds the
    available slack.  Callers may catch this and clamp the decision to "create
    now" (x = 0), which is what the sequential scaler does.
    """


class SimulationError(RobustScalerError):
    """Raised for inconsistent states inside the scaling-per-query simulator."""


class PlanningError(RobustScalerError):
    """Raised when an autoscaler produces an invalid scaling plan."""


class ExperimentError(RobustScalerError):
    """Raised when an experiment driver is given inconsistent parameters."""


class WorkloadError(RobustScalerError):
    """Raised by the workload subsystem (unknown scenario, bad spec, empty split)."""
