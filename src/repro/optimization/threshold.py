"""The look-ahead threshold ``kappa`` of the sequential scaling scheme (eq. 8).

Algorithm 4 re-plans once the number of already-scheduled instances drops to
``kappa``, chosen so that for every query planned *beyond* the threshold the
HP constraint is achievable (the optimal creation time is non-negative).
Equation (8) defines

    kappa = max{ i >= 1 : alpha-quantile of (gamma_i / lambda_bar - tau_i) < 0 }

where ``gamma_i ~ Gamma(i, 1)`` is the rescaled arrival time of the ``i``-th
query under a constant upper-bound intensity ``lambda_bar`` and ``tau_i`` is
the pending time.  With a deterministic pending time the condition reduces to
``F_i^{-1}(alpha) < lambda_bar * mu_tau`` with ``F_i`` the Gamma(i, 1) cdf,
which we evaluate exactly; with a stochastic pending time we fall back to
Monte Carlo.
"""

from __future__ import annotations

import numpy as np

from .._validation import check_integer, check_non_negative, check_probability
from ..pending import DeterministicPendingTime, PendingTimeModel
from ..rng import RandomState, ensure_rng

__all__ = ["compute_kappa"]


def compute_kappa(
    intensity_upper_bound: float,
    pending_model: PendingTimeModel,
    target_hit_probability: float,
    *,
    max_kappa: int = 10_000,
    n_samples: int = 2000,
    random_state: RandomState = None,
) -> int:
    """Compute the look-ahead threshold ``kappa`` of eq. (8).

    Parameters
    ----------
    intensity_upper_bound:
        ``lambda_bar`` — an upper bound (queries per second) on the intensity
        over the planning window.  The paper recommends a *local* bound to
        keep ``kappa`` small (Section VI-C practical guidelines).
    pending_model:
        Distribution of the pending time ``tau``.
    target_hit_probability:
        The desired ``1 - alpha``.
    max_kappa:
        Safety cap on the returned value.
    n_samples:
        Monte Carlo sample size used when the pending time is stochastic.
    random_state:
        Seed or generator for the Monte Carlo fallback.

    Returns
    -------
    int
        The threshold ``kappa >= 0``; 0 means even the very next query can be
        served at the target QoS without look-ahead (e.g. zero pending time
        or negligible traffic).
    """
    lam = check_non_negative(intensity_upper_bound, "intensity_upper_bound")
    target = check_probability(target_hit_probability, "target_hit_probability")
    check_integer(max_kappa, "max_kappa", minimum=1)
    alpha = 1.0 - target

    if lam <= 0:
        # No traffic expected: the first query is arbitrarily far away, so no
        # look-ahead is ever needed.
        return 0

    if isinstance(pending_model, DeterministicPendingTime):
        return _kappa_deterministic(lam, pending_model.value, alpha, max_kappa)
    return _kappa_monte_carlo(lam, pending_model, alpha, max_kappa, n_samples, random_state)


def _kappa_deterministic(lam: float, tau: float, alpha: float, max_kappa: int) -> int:
    """Exact kappa for a constant pending time.

    Condition (8) holds for index ``i`` iff the alpha-quantile of
    ``Gamma(i, 1) / lam`` is below ``tau``, i.e. ``F_i^{-1}(alpha) < lam * tau``.
    The Gamma quantile is increasing in ``i``, so we can stop at the first
    failure.
    """
    if tau <= 0:
        return 0
    # Imported here: scipy is slow to import and only this branch of kappa uses it.
    from scipy import special

    threshold = lam * tau
    kappa = 0
    for i in range(1, max_kappa + 1):
        quantile = special.gammaincinv(i, alpha)
        if quantile < threshold:
            kappa = i
        else:
            break
    return kappa


def _kappa_monte_carlo(
    lam: float,
    pending_model: PendingTimeModel,
    alpha: float,
    max_kappa: int,
    n_samples: int,
    random_state: RandomState,
) -> int:
    """Monte Carlo kappa for stochastic pending times."""
    rng = ensure_rng(random_state)
    kappa = 0
    # Reuse one set of exponential increments so gamma_i are coupled across i,
    # which makes the scan monotone in practice and cheap to evaluate.
    exponentials = rng.exponential(1.0, size=(n_samples, max_kappa))
    gammas = np.cumsum(exponentials, axis=1)
    pending = pending_model.sample(n_samples, rng)
    for i in range(1, max_kappa + 1):
        slack = gammas[:, i - 1] / lam - pending
        quantile = float(np.quantile(slack, alpha))
        if quantile < 0:
            kappa = i
        else:
            break
    return kappa
