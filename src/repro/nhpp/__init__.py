"""Non-homogeneous Poisson process (NHPP) arrival modeling (modules 2-3).

This subpackage implements the paper's regularized NHPP intensity model
(eq. 1), the specialized linearized ADMM solver (Algorithm 2), periodic
extrapolation of the fitted intensity into the future, exact samplers for
piecewise-constant intensities, a rolling refit forecaster for online use,
and goodness-of-fit diagnostics based on the time-rescaling theorem.  The
constant-rate Poisson model the paper replaces has no model class here;
:func:`sample_homogeneous_arrivals` draws from it for tests and ablations.
"""

from .intensity import PiecewiseConstantIntensity
from .objective import RegularizedNHPPObjective, soft_threshold
from .admm import ADMMResult, fit_log_intensity
from .model import NHPPModel, NHPPFitResult
from .extrapolation import extrapolate_intensity
from .online import RollingNHPPForecaster
from .sampling import (
    sample_arrival_times,
    sample_counts,
    sample_next_arrivals,
    sample_homogeneous_arrivals,
)
from .validation import ks_statistic_time_rescaling, rescaled_interarrival_times

__all__ = [
    "PiecewiseConstantIntensity",
    "RegularizedNHPPObjective",
    "soft_threshold",
    "ADMMResult",
    "fit_log_intensity",
    "NHPPModel",
    "NHPPFitResult",
    "extrapolate_intensity",
    "RollingNHPPForecaster",
    "sample_arrival_times",
    "sample_counts",
    "sample_next_arrivals",
    "sample_homogeneous_arrivals",
    "ks_statistic_time_rescaling",
    "rescaled_interarrival_times",
]
