"""Input-validation helpers shared across the library.

These helpers centralize the defensive checks so that every public entry
point raises :class:`~repro.exceptions.ValidationError` with a consistent,
actionable message instead of letting numpy raise an opaque error deep inside
a solver.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from .exceptions import ValidationError

__all__ = [
    "as_1d_float_array",
    "check_positive",
    "check_non_negative",
    "check_probability",
    "check_integer",
    "check_sorted",
    "check_same_length",
]


def as_1d_float_array(values: Iterable[float], name: str = "values") -> np.ndarray:
    """Convert ``values`` to a 1-D float64 array, validating finiteness.

    Parameters
    ----------
    values:
        Any iterable of numbers.
    name:
        Name used in error messages.

    Returns
    -------
    numpy.ndarray
        A fresh 1-D ``float64`` array.
    """
    array = np.asarray(list(values) if not isinstance(values, np.ndarray) else values,
                       dtype=float)
    if array.ndim != 1:
        raise ValidationError(f"{name} must be one-dimensional, got shape {array.shape}")
    if array.size and not np.all(np.isfinite(array)):
        raise ValidationError(f"{name} must contain only finite values")
    return array.copy()


def check_positive(value: float, name: str) -> float:
    """Validate that ``value`` is strictly positive and return it as float."""
    value = float(value)
    if not math.isfinite(value) or value <= 0:
        raise ValidationError(f"{name} must be a positive finite number, got {value!r}")
    return value


def check_non_negative(value: float, name: str) -> float:
    """Validate that ``value`` is >= 0 and return it as float."""
    value = float(value)
    if not math.isfinite(value) or value < 0:
        raise ValidationError(f"{name} must be a non-negative finite number, got {value!r}")
    return value


def check_probability(value: float, name: str, *, inclusive: bool = True) -> float:
    """Validate that ``value`` lies in [0, 1] (or (0, 1) if not inclusive)."""
    value = float(value)
    if not math.isfinite(value):
        raise ValidationError(f"{name} must be finite, got {value!r}")
    if inclusive:
        if value < 0.0 or value > 1.0:
            raise ValidationError(f"{name} must lie in [0, 1], got {value!r}")
    else:
        if value <= 0.0 or value >= 1.0:
            raise ValidationError(f"{name} must lie strictly in (0, 1), got {value!r}")
    return value


def check_integer(value: int, name: str, *, minimum: int | None = None) -> int:
    """Validate that ``value`` is an integer, optionally bounded below."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if minimum is not None and value < minimum:
        raise ValidationError(f"{name} must be >= {minimum}, got {value}")
    return value


def check_sorted(values: np.ndarray, name: str, *, strict: bool = False) -> np.ndarray:
    """Validate that ``values`` is sorted ascending (strictly if requested)."""
    values = np.asarray(values, dtype=float)
    if values.size <= 1:
        return values
    diffs = np.diff(values)
    if strict:
        if np.any(diffs <= 0):
            raise ValidationError(f"{name} must be strictly increasing")
    elif np.any(diffs < 0):
        raise ValidationError(f"{name} must be sorted in ascending order")
    return values


def check_same_length(name_a: str, a: Sequence, name_b: str, b: Sequence) -> None:
    """Validate that two sequences have the same length."""
    if len(a) != len(b):
        raise ValidationError(
            f"{name_a} and {name_b} must have the same length, got {len(a)} and {len(b)}"
        )
