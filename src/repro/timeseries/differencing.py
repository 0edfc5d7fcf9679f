"""Sparse difference operators used in the regularized NHPP objective.

Equation (1) of the paper penalizes ``||D2 r||_1`` (smoothness, trend
filtering) and ``||D_L r||_2^2`` (periodicity) where

* ``D2`` is the second-order difference matrix of shape ``(T-2, T)``, and
* ``D_L`` is the ``L``-step forward difference matrix of shape ``(T-L, T)``.

Both matrices are constructed as ``scipy.sparse.csr_matrix`` so that the ADMM
normal equations stay sparse-banded and can be solved in ``O(T L^2)`` time.
scipy is imported when a matrix is built, not with this module: it is slow to
import and only the NHPP fit needs it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .._validation import check_integer
from ..exceptions import ValidationError

if TYPE_CHECKING:
    from scipy import sparse

__all__ = [
    "second_difference_matrix",
    "seasonal_difference_matrix",
]


def _csr(
    data: np.ndarray, rows: np.ndarray, cols: np.ndarray, shape: tuple[int, int]
) -> sparse.csr_matrix:
    """The ``csr_matrix`` with entries ``data`` at ``(rows, cols)``."""
    from scipy.sparse import csr_matrix

    return csr_matrix((data, (rows, cols)), shape=shape)


def second_difference_matrix(n: int) -> sparse.csr_matrix:
    """Return the ``(n-2, n)`` second-order difference operator ``D2``.

    ``(D2 x)_t = x_t - 2 x_{t+1} + x_{t+2}``, the operator used by L1 trend
    filtering (Kim et al., 2009) and by eq. (1) of the paper.
    """
    n = check_integer(n, "n", minimum=3)
    m = n - 2
    data = np.concatenate([np.ones(m), -2.0 * np.ones(m), np.ones(m)])
    rows = np.tile(np.arange(m), 3)
    cols = np.concatenate([np.arange(m), np.arange(1, m + 1), np.arange(2, m + 2)])
    return _csr(data, rows, cols, (m, n))


def seasonal_difference_matrix(n: int, period: int) -> sparse.csr_matrix:
    """Return the ``(n-period, n)`` L-step forward difference operator ``D_L``.

    ``(D_L x)_t = x_t - x_{t+L}`` with ``L = period``, exactly the matrix
    ``D_L = [I_{T-L}, 0] - [0, I_{T-L}]`` of eq. (1).
    """
    n = check_integer(n, "n", minimum=2)
    period = check_integer(period, "period", minimum=1)
    if period >= n:
        raise ValidationError(
            f"period ({period}) must be smaller than the series length ({n})"
        )
    m = n - period
    data = np.concatenate([np.ones(m), -np.ones(m)])
    rows = np.tile(np.arange(m), 2)
    cols = np.concatenate([np.arange(m), np.arange(period, period + m)])
    return _csr(data, rows, cols, (m, n))
