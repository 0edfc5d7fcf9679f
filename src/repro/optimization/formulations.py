"""Per-query scaling decision rules (Section VI-B of the paper).

Each formulation decomposes into independent single-variable problems, one
per upcoming query, so the solvers below take the Monte Carlo samples for one
query and return one creation time:

* :func:`solve_hp_constrained` — eq. (3): the creation time is the
  ``alpha``-quantile of the slack ``xi - tau``;
* :func:`solve_rt_constrained` — eq. (5): the largest creation time whose
  expected waiting time stays within the budget ``d - mu_s``, solved with the
  sort-and-search Algorithm 3;
* :func:`solve_cost_constrained` — eq. (7): the smallest creation time whose
  expected idle cost stays within the budget ``B - mu_tau - mu_s``.

Every solver returns a :class:`ScalingDecision` carrying the raw (possibly
negative) optimum, the clamped creation time actually used, and feasibility
information.  Negative optima mean the instance "should" already exist — the
sequential scheme avoids this by planning ``kappa`` queries ahead.

A planning round needs the decisions of many queries at once, so
:class:`ColumnSolver` solves every column of an ``(R, K)`` sample matrix in
a handful of array operations.  It returns exactly the raw optima the per-query
solvers return (bit for bit), which remain the public per-query API and the
reference it is tested against.  A planner builds one solver per scaler,
which checks the formulation's target once, not every round;
Fig. 8 and the Monte Carlo sample-size ablation time the same solver.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .._validation import (
    as_1d_float_array,
    check_non_negative,
    check_probability,
    check_same_length,
)
from ..exceptions import ValidationError
from .sort_and_search import (
    expected_idle_time,
    expected_waiting_time,
    solve_idle_time_budget,
    solve_waiting_time_budget,
)

__all__ = [
    "DecisionObjective",
    "ScalingDecision",
    "solve_hp_constrained",
    "solve_rt_constrained",
    "solve_cost_constrained",
    "ColumnSolver",
]


class DecisionObjective(enum.Enum):
    """Which QoS/cost trade-off formulation drives the decisions."""

    HIT_PROBABILITY = "hp"
    RESPONSE_TIME = "rt"
    COST = "cost"


@dataclass(frozen=True)
class ScalingDecision:
    """The outcome of one per-query decision problem.

    Attributes
    ----------
    raw_creation_time:
        The unclamped optimum ``x_i^*`` (seconds from "now", may be negative).
    creation_time:
        ``max(raw_creation_time, 0)`` — the time actually used.
    feasible:
        ``False`` when the constraint could only be met by creating the
        instance in the past (``raw_creation_time < 0``).
    expected_waiting_time:
        Monte Carlo estimate of the waiting time at ``creation_time``.
    expected_idle_time:
        Monte Carlo estimate of the idle cost at ``creation_time``.
    objective:
        The formulation that produced this decision.
    """

    raw_creation_time: float
    creation_time: float
    feasible: bool
    expected_waiting_time: float
    expected_idle_time: float
    objective: DecisionObjective


def _finalize(
    raw_x: float,
    xi: np.ndarray,
    tau: np.ndarray,
    objective: DecisionObjective,
) -> ScalingDecision:
    creation_time = max(float(raw_x), 0.0)
    return ScalingDecision(
        raw_creation_time=float(raw_x),
        creation_time=creation_time,
        feasible=raw_x >= 0.0,
        expected_waiting_time=expected_waiting_time(creation_time, xi, tau),
        expected_idle_time=expected_idle_time(creation_time, xi, tau),
        objective=objective,
    )


def solve_hp_constrained(
    arrival_samples: np.ndarray,
    pending_samples: np.ndarray,
    target_hit_probability: float,
) -> ScalingDecision:
    """Eq. (3): latest creation time achieving the target hitting probability.

    The hitting probability of a query is ``P(xi > x + tau)``; requiring it to
    be at least ``1 - alpha`` and maximizing ``x`` (to minimize idle cost)
    gives ``x* = alpha-quantile of (xi - tau)``.

    Parameters
    ----------
    arrival_samples, pending_samples:
        Monte Carlo samples of ``xi_i`` and ``tau_i``.
    target_hit_probability:
        The desired ``1 - alpha`` in [0, 1].
    """
    xi = as_1d_float_array(arrival_samples, "arrival_samples")
    tau = as_1d_float_array(pending_samples, "pending_samples")
    check_same_length("arrival_samples", xi, "pending_samples", tau)
    if xi.size == 0:
        raise ValidationError("at least one Monte Carlo sample is required")
    target = check_probability(target_hit_probability, "target_hit_probability")
    alpha = 1.0 - target
    slack = xi - tau
    # "lower" interpolation keeps P(slack <= x*) <= alpha with empirical samples.
    raw_x = float(np.quantile(slack, alpha, method="lower")) if xi.size > 1 else float(slack[0])
    return _finalize(raw_x, xi, tau, DecisionObjective.HIT_PROBABILITY)


def solve_rt_constrained(
    arrival_samples: np.ndarray,
    pending_samples: np.ndarray,
    waiting_budget: float,
) -> ScalingDecision:
    """Eq. (5): latest creation time whose expected waiting time meets the budget.

    Parameters
    ----------
    waiting_budget:
        The response-time budget net of processing time, ``d - mu_s``
        (seconds).
    """
    xi = as_1d_float_array(arrival_samples, "arrival_samples")
    tau = as_1d_float_array(pending_samples, "pending_samples")
    check_same_length("arrival_samples", xi, "pending_samples", tau)
    check_non_negative(waiting_budget, "waiting_budget")
    raw_x = solve_waiting_time_budget(xi, tau, waiting_budget)
    return _finalize(raw_x, xi, tau, DecisionObjective.RESPONSE_TIME)


def solve_cost_constrained(
    arrival_samples: np.ndarray,
    pending_samples: np.ndarray,
    idle_budget: float,
) -> ScalingDecision:
    """Eq. (7): earliest creation time whose expected idle cost meets the budget.

    Parameters
    ----------
    idle_budget:
        The per-instance cost budget net of the irreducible pending and
        processing times, ``B - mu_tau - mu_s`` (seconds).
    """
    xi = as_1d_float_array(arrival_samples, "arrival_samples")
    tau = as_1d_float_array(pending_samples, "pending_samples")
    check_same_length("arrival_samples", xi, "pending_samples", tau)
    check_non_negative(idle_budget, "idle_budget")
    raw_x = solve_idle_time_budget(xi, tau, idle_budget)
    return _finalize(raw_x, xi, tau, DecisionObjective.COST)


#: Samples (queries x R) that :class:`ColumnSolver` solves per block.
_BLOCK_SAMPLES = 1 << 16


class ColumnSolver:
    """Raw optimal creation time of every query column of ``(R, K)`` samples.

    Built for one formulation (``objective``) and its constraint level
    (``target``: the target hitting probability, the waiting-time budget or
    the idle-cost budget), whose target is validated once.  A planner builds
    one per scaler and calls it every round; only the round's samples are
    checked then.

    Calling it on ``arrival_samples`` and ``pending_samples`` of shape
    ``(R, K)`` — ``R`` Monte Carlo samples of ``xi_i`` and ``tau_i`` for each
    of ``K`` queries — returns ``K`` values.  Column ``i`` equals the
    ``raw_creation_time`` that :func:`solve_hp_constrained`,
    :func:`solve_rt_constrained` or :func:`solve_cost_constrained` returns
    for ``(arrival_samples[:, i], pending_samples[:, i])`` — the same
    floating-point operations in the same order, so the values match bit
    for bit.  Reductions run over the rows of the transposed, C-contiguous
    ``(K, R)`` arrays, which keeps numpy's pairwise summation order
    identical to the 1-D per-query calls.
    """

    def __init__(self, objective: DecisionObjective, target: float) -> None:
        if objective is DecisionObjective.HIT_PROBABILITY:
            alpha = 1.0 - check_probability(target, "target_hit_probability")
            self._solve = partial(_quantile_columns, alpha=alpha)
        elif objective is DecisionObjective.RESPONSE_TIME:
            budget = check_non_negative(target, "waiting_budget")
            self._solve = partial(_waiting_time_budget_columns, waiting_budget=budget)
        elif objective is DecisionObjective.COST:
            budget = check_non_negative(target, "idle_budget")
            self._solve = partial(_idle_time_budget_columns, idle_budget=budget)
        else:  # pragma: no cover - exhaustive enum
            raise ValidationError(f"unknown objective {objective!r}")

    def __call__(self, arrival_samples: np.ndarray, pending_samples: np.ndarray) -> np.ndarray:
        """The raw optima of the ``(R, K)`` samples, one per query column."""
        return self.rows(*_columns(arrival_samples, pending_samples))

    def rows(self, xi: np.ndarray, tau: np.ndarray) -> np.ndarray:
        """The solve on samples already laid out by :func:`_columns`."""
        # Blocks bound the temporaries (the RT walk sorts ``2R`` breakpoints
        # per query) on Fig. 8-sized batches of hundreds of thousands of queries.
        step = max(1, _BLOCK_SAMPLES // xi.shape[1])
        if xi.shape[0] <= step:
            return self._solve(xi, tau)
        return np.concatenate(
            [self._solve(xi[i : i + step], tau[i : i + step]) for i in range(0, xi.shape[0], step)]
        )


def _columns(
    arrival_samples: np.ndarray, pending_samples: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Validate ``(R, K)`` samples and return them as C-contiguous ``(K, R)`` rows."""
    xi = np.asarray(arrival_samples, dtype=float)
    tau = np.asarray(pending_samples, dtype=float)
    if xi.ndim != 2 or xi.shape != tau.shape:
        raise ValidationError(
            "arrival_samples and pending_samples must be 2-D arrays of the same "
            f"shape, got {xi.shape} and {tau.shape}"
        )
    if xi.shape[0] == 0:
        raise ValidationError("at least one Monte Carlo sample is required")
    if not (np.isfinite(xi).all() and np.isfinite(tau).all()):
        raise ValidationError("samples must contain only finite values")
    return np.ascontiguousarray(xi.T), np.ascontiguousarray(tau.T)


def _quantile_columns(xi: np.ndarray, tau: np.ndarray, alpha: float) -> np.ndarray:
    """Eq. (3) per row: the order statistic ``np.quantile(..., method="lower")`` picks.

    ``solve_hp_constrained`` calls ``np.quantile``; its "lower" index is
    ``floor((R - 1) * alpha)``, and a partition around that index yields the
    same element without the rest of the quantile machinery.
    """
    k = math.floor((xi.shape[1] - 1) * alpha)
    return np.partition(xi - tau, k, axis=1)[:, k]


def _waiting_time_budget_columns(
    xi: np.ndarray, tau: np.ndarray, waiting_budget: float
) -> np.ndarray:
    """Algorithm 3 on every row of ``(K, R)`` samples at once.

    The scalar :func:`~repro.optimization.sort_and_search.solve_waiting_time_budget`
    merges the sorted arrivals (slope ``-1/R``) and slacks (slope ``+1/R``),
    arrivals first on ties, and walks the pieces of ``E_hat`` left to right.
    A stable sort of ``[sorted xi | sorted xi - tau]`` yields that merge
    order; running sums (``np.cumsum`` adds strictly left to right, like the
    walk) give the slope and ``E_hat`` on every piece, and ``argmax`` finds
    the first piece bracketing the budget.  Gathers go through flat indices
    into the ``(rows, 2R)`` piece arrays.
    """
    n = xi.shape[1]
    out = xi.max(axis=1)
    # tau.mean(axis=1), as the scalar walk's tau.mean(): a sum, then / n.
    solve = np.flatnonzero(waiting_budget < tau.sum(axis=1) / n)
    if not solve.size:
        return out
    width = 2 * n
    breakpoints = np.empty((solve.size, width))
    breakpoints[:, :n] = xi[solve]
    breakpoints[:, n:] = breakpoints[:, :n] - tau[solve]
    breakpoints[:, :n].sort(axis=1)
    breakpoints[:, n:].sort(axis=1)
    # Two presorted runs: the stable sort (timsort) only merges them.
    order = breakpoints.argsort(axis=1, kind="stable")
    starts = np.arange(0, breakpoints.size, width)
    # Piece k runs from points[:, k] to points[:, k + 1], where E_hat is
    # energy[:, k] and energy[:, k + 1]; it has slope[:, k].
    points = np.empty((solve.size, width + 1))
    points[:, 0] = breakpoints[:, n]  # min(xi - tau)
    points[:, 1:] = breakpoints.reshape(-1)[order + starts[:, None]]
    slope = np.zeros((solve.size, width))
    np.cumsum(np.where(order[:, :-1] < n, -1.0 / n, 1.0 / n), axis=1, out=slope[:, 1:])
    energy = np.zeros_like(points)
    np.cumsum(slope * (points[:, 1:] - points[:, :-1]), axis=1, out=energy[:, 1:])
    bracket = (
        (energy[:, :-1] <= waiting_budget) & (waiting_budget <= energy[:, 1:]) & (slope > 0)
    )
    # An unbracketed budget (floating error only) keeps max(xi).
    found = np.flatnonzero(bracket.any(axis=1))
    piece = starts[found] + bracket[found].argmax(axis=1)
    left = piece + found  # the same piece in the one-longer rows of points and energy
    out[solve[found]] = points.reshape(-1)[left] + (
        waiting_budget - energy.reshape(-1)[left]
    ) / slope.reshape(-1)[piece]
    return out


def _idle_time_budget_columns(
    xi: np.ndarray, tau: np.ndarray, idle_budget: float
) -> np.ndarray:
    """The cost root search of ``solve_idle_time_budget`` on every row of ``(K, R)``."""
    n = xi.shape[1]
    slack = xi - tau
    out = np.zeros(xi.shape[0])
    # C_hat(0) = mean(max(slack, 0)), as the scalar form: a sum, then / n.
    solve = np.maximum(slack, 0.0).sum(axis=1) / n > idle_budget
    if not solve.any():
        return out
    slack_sorted = np.sort(slack[solve], axis=1)
    # C_hat(v_k) = sum_{j > k} (v_j - v_k) / n via suffix sums, as in the scalar form.
    suffix_sums = np.zeros_like(slack_sorted)
    suffix_sums[:, :-1] = np.cumsum(slack_sorted[:, ::-1], axis=1)[:, ::-1][:, 1:]
    counts_after = np.arange(n - 1, -1, -1, dtype=float)
    c_at_breaks = (suffix_sums - counts_after * slack_sorted) / n
    # One searchsorted per row keeps the root search bit-equal to the scalar
    # form even where round-off makes C_hat locally non-monotone.
    descending = -c_at_breaks
    key = -idle_budget
    idx = np.array([row.searchsorted(key) for row in descending])
    previous = np.maximum(idx - 1, 0)
    at = np.arange(0, slack_sorted.size, n) + previous
    root = slack_sorted.reshape(-1)[at]  # x_left; stays there where the slope is 0
    slope = -counts_after[previous] / n
    moving = np.flatnonzero(slope)
    root[moving] += (idle_budget - c_at_breaks.reshape(-1)[at[moving]]) / slope[moving]
    # Left of the first breakpoint every sample is active (slope -1).
    before = np.flatnonzero(idx == 0)
    root[before] = slack_sorted[before, 0] + (idle_budget - c_at_breaks[before, 0]) / (-1.0)
    past = np.flatnonzero(idx >= n)
    root[past] = slack_sorted[past, -1]
    out[solve] = np.maximum(root, 0.0)
    return out

