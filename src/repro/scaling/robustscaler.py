"""RobustScaler: the proposed proactive autoscaler (time-based planning).

This is the variant evaluated throughout Section VII: planning runs every
``planning_interval`` seconds and, in each round, the instance creation times
that fall inside the upcoming planning window are computed from the forecast
NHPP intensity through one of the three stochastically constrained
formulations:

* ``RobustScaler-HP``   — HP-constrained decisions, eq. (3);
* ``RobustScaler-RT``   — RT-constrained decisions, eq. (5) / Algorithm 3;
* ``RobustScaler-cost`` — cost-constrained decisions, eq. (7).

At every planning tick the policy

1. shifts the forecast intensity so that its origin is "now",
2. draws joint Monte Carlo scenarios of the arrival and pending times of the
   next ``K`` queries, where ``K`` generously covers the planning window,
3. skips the queries already covered by outstanding instances (the look-ahead
   role played by ``kappa`` in the query-count-based Algorithm 4), and
4. emits creation actions for the remaining queries whose optimal creation
   time lands inside the window; negative optima are clamped to "create now".
"""

from __future__ import annotations

import math

from .._validation import check_non_negative
from ..config import PlannerConfig
from ..exceptions import PlanningError
from ..nhpp.intensity import PiecewiseConstantIntensity, PlanningWindow
from ..nhpp.model import NHPPModel
from ..optimization.formulations import (
    ColumnSolver,
    DecisionObjective,
    # Not called here: the per-query solvers stay bound in this module
    # because perfbench's traced run patches them by name.
    solve_cost_constrained,  # noqa: F401
    solve_hp_constrained,  # noqa: F401
    solve_rt_constrained,  # noqa: F401
)
from ..optimization.montecarlo import generate_scenarios
from ..pending import PendingTimeModel
from ..rng import RandomState, ensure_rng
from ..types import ScalingAction
from .base import Autoscaler, PlanningContext, ScalingResponse

__all__ = ["RobustScaler", "RobustScalerObjective"]

#: Hard cap (seconds) on how far into the future instances are planned.
MAX_PLAN_HORIZON = 3600.0

#: Public alias matching the paper's naming of the three variants.
RobustScalerObjective = DecisionObjective


class RobustScaler(Autoscaler):
    """NHPP-driven proactive autoscaler with stochastically constrained decisions.

    Parameters
    ----------
    forecast:
        Forecast intensity whose time origin coincides with the start of the
        replayed (test) trace — typically ``NHPPModel.forecast()``.
    pending_model:
        Distribution of the instance startup time ``tau``.
    objective:
        Which formulation drives the decisions (HP, RT or cost).
    target:
        The constraint level: target hitting probability ``1 - alpha`` for
        HP, waiting-time budget ``d - mu_s`` (seconds) for RT, or idle-cost
        budget ``B - mu_tau - mu_s`` (seconds) for cost.
    planner:
        Planning-frequency and Monte Carlo configuration.
    random_state:
        Seed or generator for the Monte Carlo scenarios.
    """

    def __init__(
        self,
        forecast: PiecewiseConstantIntensity,
        pending_model: PendingTimeModel,
        *,
        objective: DecisionObjective = DecisionObjective.HIT_PROBABILITY,
        target: float = 0.9,
        planner: PlannerConfig | None = None,
        random_state: RandomState = None,
    ) -> None:
        if not isinstance(forecast, PiecewiseConstantIntensity):
            raise PlanningError("forecast must be a PiecewiseConstantIntensity")
        if not isinstance(pending_model, PendingTimeModel):
            raise PlanningError("pending_model must be a PendingTimeModel")
        self.forecast = forecast
        self.pending_model = pending_model
        self.objective = objective
        self.target = self._validate_target(objective, target)
        self.planner = planner or PlannerConfig()
        self._solve = ColumnSolver(objective, self.target)
        self._seed = random_state
        self._rng = ensure_rng(random_state)
        self.name = f"RobustScaler-{objective.value.upper()}(target={target:g})"
        # The expected arrivals before the next round and over the candidate
        # horizon, both read off the shifted forecast (see ``_plan``).
        window = self.planner.planning_interval
        self._planning_window = PlanningWindow(
            forecast, horizons=(window, window + self._lookahead_slack())
        )

    @classmethod
    def from_model(
        cls,
        model: NHPPModel,
        pending_model: PendingTimeModel,
        *,
        objective: DecisionObjective = DecisionObjective.HIT_PROBABILITY,
        target: float = 0.9,
        planner: PlannerConfig | None = None,
        random_state: RandomState = None,
    ) -> "RobustScaler":
        """Build the policy directly from a fitted :class:`NHPPModel`."""
        return cls(
            model.forecast(),
            pending_model,
            objective=objective,
            target=target,
            planner=planner,
            random_state=random_state,
        )

    @staticmethod
    def _validate_target(objective: DecisionObjective, target: float) -> float:
        if objective is DecisionObjective.HIT_PROBABILITY:
            if not 0.0 <= target <= 1.0:
                raise PlanningError(
                    f"HP target must lie in [0, 1], got {target}"
                )
            return float(target)
        return check_non_negative(float(target), "target")

    # ----------------------------------------------------------- interface

    @property
    def planning_interval(self) -> float:
        return self.planner.planning_interval

    def reset(self) -> None:
        self._rng = ensure_rng(self._seed)

    def initialize(self, context: PlanningContext) -> ScalingResponse:
        return self._plan(context)

    def on_planning_tick(self, context: PlanningContext) -> ScalingResponse:
        return self._plan(context)

    # ------------------------------------------------------------ planning

    def _plan(self, context: PlanningContext) -> ScalingResponse:
        """One planning round: commit decisions for every query that needs one.

        Two kinds of upcoming queries get a committed creation time in this
        round (decisions, once committed, are never revisited — that is what
        makes the stochastic-constraint guarantee of Section VI-C hold):

        * queries whose optimal creation time falls inside the upcoming
          planning window (they must be acted on before the next round), and
        * the next ``m_t`` uncovered queries regardless of how far in the
          future their creation time lies, where ``m_t`` covers the arrivals
          expected before the next round (at least one).  This is the
          time-based counterpart of planning ``kappa + m`` arrivals ahead in
          Algorithm 4; without it a low-traffic workload would have its
          decisions perpetually postponed and degenerate to reactive scaling.
        """
        now = context.time
        window = self.planner.planning_interval
        local_intensity, expectations = self._planning_window.at(now)
        expected_in_window, expected_candidates = expectations

        min_commitments = max(
            1, math.ceil(expected_in_window + 2.0 * math.sqrt(expected_in_window))
        )
        n_to_plan = self._queries_to_consider(expected_candidates, context, min_commitments)
        outstanding = context.outstanding_instances
        if n_to_plan <= outstanding:
            return ScalingResponse.empty()

        # Queries before ``outstanding`` are covered: only the rest are solved.
        scenarios = generate_scenarios(
            local_intensity,
            self.pending_model,
            n_queries=n_to_plan,
            n_samples=self.planner.monte_carlo_samples,
            random_state=self._rng,
            first=outstanding,
        )
        raw_creation = self._solve(scenarios.arrival_times, scenarios.pending_times)

        actions: list[ScalingAction] = []
        committed_beyond_window = 0
        for raw in raw_creation.tolist():
            relative_creation = max(raw, 0.0)
            within_window = relative_creation <= window
            if not within_window:
                # Algorithm 4 plans "kappa + m" arrivals ahead: the queries
                # whose creation falls inside the window play the role of the
                # kappa part, and we additionally commit the next
                # ``min_commitments`` queries beyond the window so that the
                # arrivals expected before the next round are already covered.
                if committed_beyond_window >= min_commitments:
                    break
                committed_beyond_window += 1
            if relative_creation > MAX_PLAN_HORIZON:
                break
            actions.append(ScalingAction(creation_time=now + relative_creation))
        return ScalingResponse(actions=actions)

    def _queries_to_consider(
        self, expected: float, context: PlanningContext, min_commitments: int
    ) -> int:
        """Upper bound on how many upcoming queries could need creation in this round.

        A query's creation time can precede its arrival by at most (roughly)
        the pending-time upper bound plus the waiting/cost budget, so queries
        arriving within ``window + slack`` are the only window candidates.
        The Poisson count over that horizon, whose mean is ``expected``, is
        bounded by its mean plus a few standard deviations; on top of that we
        always consider the mandatory look-ahead commitments.
        """
        bound = math.ceil(expected + 4.0 * math.sqrt(expected) + 5.0) + min_commitments
        cap = context.outstanding_instances + 20_000
        return min(bound, cap)

    def _lookahead_slack(self) -> float:
        pending_bound = self.pending_model.upper_bound
        if not math.isfinite(pending_bound):
            pending_bound = 4.0 * self.pending_model.mean
        if self.objective is DecisionObjective.HIT_PROBABILITY:
            return pending_bound
        return pending_bound + self.target
