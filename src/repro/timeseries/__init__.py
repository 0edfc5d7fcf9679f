"""Time-series substrate: aggregation, differencing, spectra, robust filters.

This subpackage contains the low-level numerical building blocks used by the
periodicity detector and the NHPP model: sparse difference operators, robust
statistics, autocorrelation and periodograms.
"""

from .aggregation import aggregate_counts
from .differencing import (
    second_difference_matrix,
    seasonal_difference_matrix,
)
from .acf import autocorrelation, autocovariance
from .periodogram import periodogram, dominant_frequencies
from .robust import (
    mad,
    median_filter,
    robust_zscore,
    winsorize,
)

__all__ = [
    "aggregate_counts",
    "second_difference_matrix",
    "seasonal_difference_matrix",
    "autocorrelation",
    "autocovariance",
    "periodogram",
    "dominant_frequencies",
    "mad",
    "median_filter",
    "robust_zscore",
    "winsorize",
]
