"""Monte Carlo scenarios of upcoming arrivals and pending times.

The stochastically constrained formulations of Section VI are solved per
upcoming query from ``R`` joint samples of the arrival time ``xi_i`` (drawn
from the forecast NHPP via time rescaling) and the pending time ``tau_i``
(drawn from the pending-time model).  :class:`ArrivalScenarios` bundles these
samples together with convenience accessors used by the solvers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import ValidationError
from ..nhpp.intensity import PiecewiseConstantIntensity
from ..nhpp.sampling import sample_next_arrivals
from ..pending import PendingTimeModel
from ..rng import RandomState, ensure_rng

__all__ = ["ArrivalScenarios", "generate_scenarios"]


@dataclass(frozen=True)
class ArrivalScenarios:
    """Joint Monte Carlo samples of upcoming arrivals and pending times.

    Attributes
    ----------
    arrival_times:
        Array of shape ``(R, K)`` — sample ``r`` of the arrival time of the
        ``(i+1)``-th upcoming query is ``arrival_times[r, i]`` (seconds from
        "now").
    pending_times:
        Array of shape ``(R, K)`` with the matching pending-time samples.
    """

    arrival_times: np.ndarray
    pending_times: np.ndarray

    def __post_init__(self) -> None:
        arrivals = np.asarray(self.arrival_times, dtype=float)
        pending = np.asarray(self.pending_times, dtype=float)
        if arrivals.ndim != 2 or pending.ndim != 2:
            raise ValidationError("arrival_times and pending_times must be 2-D arrays")
        if arrivals.shape != pending.shape:
            raise ValidationError(
                "arrival_times and pending_times must have the same shape, got "
                f"{arrivals.shape} and {pending.shape}"
            )
        if arrivals.size == 0:
            raise ValidationError("scenarios must contain at least one sample")
        object.__setattr__(self, "arrival_times", arrivals)
        object.__setattr__(self, "pending_times", pending)

    @property
    def n_samples(self) -> int:
        """Number of Monte Carlo replications R."""
        return int(self.arrival_times.shape[0])

    @property
    def n_queries(self) -> int:
        """Number of upcoming queries K covered by the scenarios."""
        return int(self.arrival_times.shape[1])

    def for_query(self, index: int) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(xi_samples, tau_samples)`` for the ``index``-th upcoming query."""
        if not 0 <= index < self.n_queries:
            raise ValidationError(
                f"query index {index} out of range for {self.n_queries} planned queries"
            )
        return self.arrival_times[:, index], self.pending_times[:, index]


def generate_scenarios(
    intensity: PiecewiseConstantIntensity,
    pending_model: PendingTimeModel,
    n_queries: int,
    n_samples: int,
    random_state: RandomState = None,
    *,
    first: int = 0,
) -> ArrivalScenarios:
    """Draw joint scenarios for the next ``n_queries`` arrivals.

    Parameters
    ----------
    intensity:
        Forecast intensity whose time origin is "now".
    pending_model:
        Distribution of the instance startup time.
    n_queries:
        Number of upcoming queries ``K`` to plan for.
    n_samples:
        Number of Monte Carlo replications ``R``.
    random_state:
        Seed or generator; arrival and pending samples are drawn from the
        same stream so a single seed reproduces the full scenario set.
    first:
        Index ``j`` of the first upcoming query to return; query ``j + i``
        is column ``i``.  Only the ``K - j`` returned columns are drawn (see
        :func:`~repro.nhpp.sampling.sample_next_arrivals`).  Planners pass
        the number of queries already covered by outstanding instances.

    Raises
    ------
    ValidationError
        If ``n_queries`` or ``n_samples`` is not a positive integer, or
        ``first`` is not in ``[0, n_queries)``.  The arguments are checked
        once, by :func:`~repro.nhpp.sampling.sample_next_arrivals`, so the
        message names ``n_queries`` as ``n_arrivals``.

    Notes
    -----
    The stream is consumed in a fixed order: the ``R x (K - j)`` unit
    exponentials of the arrivals, then (when ``j > 0``) one ``Gamma(j, 1)``
    variate per row, then the ``R x (K - j)`` pending times, row by row.
    ``first=0`` draws no Gamma variate.
    """
    rng = ensure_rng(random_state)
    arrivals = sample_next_arrivals(intensity, n_queries, n_samples, rng, first=first)
    pending = pending_model.sample(arrivals.size, rng).reshape(arrivals.shape)
    return ArrivalScenarios(arrival_times=arrivals, pending_times=pending)
