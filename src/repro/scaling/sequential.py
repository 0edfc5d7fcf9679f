"""The query-count-based sequential scaling scheme (Algorithm 4).

This is the form of the scheme analysed by Propositions 1 and 2: planning is
triggered every ``m`` query arrivals and always stays ``kappa`` arrivals
ahead, where ``kappa`` (eq. 8) is the smallest look-ahead that makes the
HP-constrained decision feasible for every query under an intensity upper
bound ``lambda_bar``.

The time-based variant used in the experiments lives in
:mod:`repro.scaling.robustscaler`; this class exists both as a faithful
implementation of the published algorithm and as the vehicle for the
Proposition 1 regression test (empirical hit rate ``≈ 1 - alpha`` when the
true intensity is known).
"""

from __future__ import annotations

import numpy as np

from .._validation import check_integer, check_probability
from ..config import PlannerConfig
from ..nhpp.intensity import PiecewiseConstantIntensity, PlanningWindow
from ..optimization.formulations import ColumnSolver, DecisionObjective
from ..optimization.montecarlo import generate_scenarios
from ..optimization.threshold import compute_kappa
from ..pending import PendingTimeModel
from ..rng import RandomState, ensure_rng
from ..types import ScalingAction
from .base import Autoscaler, PlanningContext, ScalingResponse

__all__ = ["SequentialHPScaler"]


class SequentialHPScaler(Autoscaler):
    """HP-constrained sequential scaling with ``kappa`` look-ahead (Algorithm 4).

    Parameters
    ----------
    forecast:
        Intensity of the upcoming arrivals with its origin at the start of
        the replayed trace; in the idealized setting of Proposition 1 this is
        the true intensity.
    pending_model:
        Distribution of the pending time ``tau``.
    target_hit_probability:
        The desired ``1 - alpha``.
    planning_every:
        ``m`` — plan once every ``m`` query arrivals.
    intensity_upper_bound:
        ``lambda_bar`` used in eq. (8); defaults to the maximum of the
        forecast over its explicit window.
    planner:
        Monte Carlo configuration (sample count, kappa cap).
    random_state:
        Seed or generator for the Monte Carlo scenarios.
    """

    def __init__(
        self,
        forecast: PiecewiseConstantIntensity,
        pending_model: PendingTimeModel,
        *,
        target_hit_probability: float = 0.9,
        planning_every: int = 1,
        intensity_upper_bound: float | None = None,
        planner: PlannerConfig | None = None,
        random_state: RandomState = None,
    ) -> None:
        self.forecast = forecast
        self.pending_model = pending_model
        self.target = check_probability(
            target_hit_probability, "target_hit_probability"
        )
        self.planning_every = check_integer(planning_every, "planning_every", minimum=1)
        self.planner = planner or PlannerConfig()
        self._solve = ColumnSolver(DecisionObjective.HIT_PROBABILITY, self.target)
        if intensity_upper_bound is None:
            intensity_upper_bound = forecast.upper_bound()
        self.intensity_upper_bound = float(intensity_upper_bound)
        self._seed = random_state
        self._rng = ensure_rng(random_state)
        self._planning_window = PlanningWindow(forecast)
        self.kappa = compute_kappa(
            self.intensity_upper_bound,
            pending_model,
            self.target,
            n_samples=self.planner.monte_carlo_samples,
            random_state=self._rng,
        )
        self.name = f"SequentialHP(target={self.target:g}, m={self.planning_every})"

    # ----------------------------------------------------------- interface

    def reset(self) -> None:
        self._rng = ensure_rng(self._seed)

    def initialize(self, context: PlanningContext) -> ScalingResponse:
        """Line 4 of Algorithm 4: plan the first ``kappa + m`` queries at time 0."""
        return self._plan_block(context, first_index=0, count=self.kappa + self.planning_every)

    def on_query_arrival(self, context: PlanningContext) -> ScalingResponse:
        """Lines 5-9: every ``m`` arrivals, plan the next block of ``m`` queries."""
        if context.n_arrivals % self.planning_every != 0:
            return ScalingResponse.empty()
        # Plan queries kappa+1 .. kappa+m ahead of the ones seen so far; the
        # first kappa upcoming queries are covered by the previous round.
        return self._plan_block(context, first_index=self.kappa, count=self.planning_every)

    # ------------------------------------------------------------ internal

    def _plan_block(
        self, context: PlanningContext, first_index: int, count: int
    ) -> ScalingResponse:
        """Plan creation times for upcoming queries ``first_index .. first_index+count-1``.

        Indices are 0-based positions among the not-yet-arrived queries as
        seen from ``context.time``.
        """
        if count <= 0:
            return ScalingResponse.empty()
        local_intensity, _ = self._planning_window.at(context.time)
        scenarios = generate_scenarios(
            local_intensity,
            self.pending_model,
            n_queries=first_index + count,
            n_samples=self.planner.monte_carlo_samples,
            random_state=self._rng,
            first=first_index,
        )
        raw_creation = self._solve(scenarios.arrival_times, scenarios.pending_times)
        creation = context.time + np.maximum(raw_creation, 0.0)
        return ScalingResponse(
            actions=[ScalingAction(creation_time=created) for created in creation.tolist()]
        )
