"""Tests for the RobustScaler policy (time-based planning) and its variants."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import PlannerConfig, SimulationConfig
from repro.exceptions import PlanningError
from repro.nhpp.intensity import PiecewiseConstantIntensity
from repro.nhpp.model import NHPPModel
from repro.nhpp.sampling import sample_homogeneous_arrivals
from repro.optimization.formulations import (
    solve_cost_constrained,
    solve_hp_constrained,
    solve_rt_constrained,
)
from repro.optimization.montecarlo import generate_scenarios
from repro.pending import DeterministicPendingTime, UniformPendingTime
from repro.scaling.base import PlanningContext, ScalingResponse
from repro.scaling.robustscaler import (
    MAX_PLAN_HORIZON,
    RobustScaler,
    RobustScalerObjective,
)
from repro.simulation.engine import ScalingPerQuerySimulator
from repro.types import ArrivalTrace, ScalingAction


def _constant_forecast(rate: float) -> PiecewiseConstantIntensity:
    return PiecewiseConstantIntensity(np.array([rate]), 60.0, extrapolation="hold")


def _context(time: float, n_arrivals: int, outstanding: int) -> PlanningContext:
    history = np.linspace(0.0, max(time, 1.0), n_arrivals) if n_arrivals else np.array([])
    return PlanningContext(
        time=time,
        n_arrivals=n_arrivals,
        arrival_history=history,
        created_unassigned=outstanding,
        scheduled_creations=0,
    )


@pytest.fixture
def hpp_trace() -> ArrivalTrace:
    arrivals = sample_homogeneous_arrivals(0.2, 3 * 3600.0, 21)
    return ArrivalTrace(arrivals, 20.0, name="hpp", horizon=3 * 3600.0)


class TestConstruction:
    def test_invalid_forecast_rejected(self, pending_model):
        with pytest.raises(PlanningError):
            RobustScaler("not-an-intensity", pending_model)

    def test_invalid_pending_model_rejected(self):
        with pytest.raises(PlanningError, match="pending_model"):
            RobustScaler(_constant_forecast(1.0), 13.0)

    def test_invalid_hp_target_rejected(self, pending_model):
        with pytest.raises(PlanningError):
            RobustScaler(_constant_forecast(1.0), pending_model, target=1.5)

    def test_name_reflects_objective(self, pending_model):
        scaler = RobustScaler(
            _constant_forecast(1.0),
            pending_model,
            objective=RobustScalerObjective.COST,
            target=2.0,
        )
        assert "COST" in scaler.name

    def test_from_model(self, fast_nhpp, periodic_trace, pending_model):
        model = NHPPModel(fast_nhpp, bin_seconds=30.0).fit(periodic_trace, period_bins=0)
        scaler = RobustScaler.from_model(model, pending_model, target=0.8)
        assert scaler.planning_interval > 0


class TestPlanningBehaviour:
    def test_planning_commits_for_upcoming_queries(self, fast_planner, pending_model):
        scaler = RobustScaler(
            _constant_forecast(0.5),
            pending_model,
            target=0.9,
            planner=fast_planner,
            random_state=0,
        )
        response = scaler.initialize(_context(0.0, 0, outstanding=0))
        assert len(response.actions) >= 1
        assert all(a.creation_time >= 0.0 for a in response.actions)

    def test_outstanding_coverage_suppresses_new_actions(self, fast_planner, pending_model):
        scaler = RobustScaler(
            _constant_forecast(0.01),
            pending_model,
            target=0.5,
            planner=fast_planner,
            random_state=0,
        )
        response = scaler.on_planning_tick(_context(100.0, 2, outstanding=50))
        assert len(response.actions) == 0

    def test_actions_absolute_times_after_now(self, fast_planner, pending_model):
        scaler = RobustScaler(
            _constant_forecast(0.2),
            pending_model,
            target=0.3,
            planner=fast_planner,
            random_state=1,
        )
        now = 500.0
        response = scaler.on_planning_tick(_context(now, 3, outstanding=0))
        assert all(a.creation_time >= now for a in response.actions)

    def test_higher_target_creates_earlier(self, fast_planner, pending_model):
        def first_creation(target: float) -> float:
            scaler = RobustScaler(
                _constant_forecast(0.05),
                pending_model,
                target=target,
                planner=fast_planner,
                random_state=3,
            )
            response = scaler.initialize(_context(0.0, 0, outstanding=0))
            return min(a.creation_time for a in response.actions)

        assert first_creation(0.95) <= first_creation(0.3)

    def test_reset_restores_random_stream(self, fast_planner, pending_model):
        scaler = RobustScaler(
            _constant_forecast(0.2),
            pending_model,
            target=0.7,
            planner=fast_planner,
            random_state=5,
        )
        first = scaler.initialize(_context(0.0, 0, outstanding=0))
        scaler.reset()
        second = scaler.initialize(_context(0.0, 0, outstanding=0))
        np.testing.assert_allclose(
            [a.creation_time for a in first.actions],
            [a.creation_time for a in second.actions],
        )


class TestEndToEndQoS:
    @pytest.mark.parametrize("target", [0.5, 0.9])
    def test_hit_rate_tracks_target_with_known_intensity(self, hpp_trace, target):
        forecast = _constant_forecast(0.2)
        pending = DeterministicPendingTime(13.0)
        scaler = RobustScaler(
            forecast,
            pending,
            target=target,
            planner=PlannerConfig(planning_interval=2.0, monte_carlo_samples=600),
            random_state=2,
        )
        simulator = ScalingPerQuerySimulator(SimulationConfig(pending_time=13.0))
        result = simulator.replay(hpp_trace, scaler)
        assert result.hit_rate == pytest.approx(target, abs=0.08)

    def test_rt_variant_meets_waiting_budget(self, hpp_trace):
        forecast = _constant_forecast(0.2)
        pending = DeterministicPendingTime(13.0)
        budget = 3.0
        scaler = RobustScaler(
            forecast,
            pending,
            objective=RobustScalerObjective.RESPONSE_TIME,
            target=budget,
            planner=PlannerConfig(planning_interval=2.0, monte_carlo_samples=600),
            random_state=3,
        )
        simulator = ScalingPerQuerySimulator(SimulationConfig(pending_time=13.0))
        result = simulator.replay(hpp_trace, scaler)
        assert float(result.waiting_times.mean()) <= budget + 1.5

    def test_cost_variant_respects_idle_budget(self, hpp_trace):
        forecast = _constant_forecast(0.2)
        pending = DeterministicPendingTime(13.0)
        budget = 1.0
        scaler = RobustScaler(
            forecast,
            pending,
            objective=RobustScalerObjective.COST,
            target=budget,
            planner=PlannerConfig(planning_interval=2.0, monte_carlo_samples=600),
            random_state=4,
        )
        simulator = ScalingPerQuerySimulator(SimulationConfig(pending_time=13.0))
        result = simulator.replay(hpp_trace, scaler)
        assert float(result.idle_times.mean()) <= budget + 1.0

    def test_beats_reactive_on_response_time(self, hpp_trace):
        from repro.scaling.backup_pool import ReactiveScaler

        forecast = _constant_forecast(0.2)
        pending = DeterministicPendingTime(13.0)
        simulator = ScalingPerQuerySimulator(SimulationConfig(pending_time=13.0))
        reactive = simulator.replay(hpp_trace, ReactiveScaler())
        robust = simulator.replay(
            hpp_trace,
            RobustScaler(
                forecast,
                pending,
                target=0.9,
                planner=PlannerConfig(planning_interval=2.0, monte_carlo_samples=400),
                random_state=5,
            ),
        )
        assert robust.mean_response_time < reactive.mean_response_time
        assert robust.hit_rate > 0.5


class _PerQueryRobustScaler(RobustScaler):
    """Reference planning round: the same draws, one scalar solve per query."""

    _SOLVERS = {
        RobustScalerObjective.HIT_PROBABILITY: solve_hp_constrained,
        RobustScalerObjective.RESPONSE_TIME: solve_rt_constrained,
        RobustScalerObjective.COST: solve_cost_constrained,
    }

    def _plan(self, context: PlanningContext) -> ScalingResponse:
        now = context.time
        window = self.planner.planning_interval
        local_intensity = self.forecast.shift(now)
        expected_in_window = float(local_intensity.cumulative(window))
        min_commitments = max(
            1, int(np.ceil(expected_in_window + 2.0 * np.sqrt(expected_in_window)))
        )
        expected = float(local_intensity.cumulative(window + self._lookahead_slack()))
        n_to_plan = self._queries_to_consider(expected, context, min_commitments)
        outstanding = context.outstanding_instances
        if n_to_plan <= outstanding:
            return ScalingResponse.empty()
        scenarios = generate_scenarios(
            local_intensity,
            self.pending_model,
            n_queries=n_to_plan,
            n_samples=self.planner.monte_carlo_samples,
            random_state=self._rng,
            first=outstanding,
        )
        solve = self._SOLVERS[self.objective]
        actions = []
        committed_beyond_window = 0
        for index in range(outstanding, n_to_plan):
            samples = scenarios.for_query(index - outstanding)
            relative_creation = solve(*samples, self.target).creation_time
            if relative_creation > window:
                if committed_beyond_window >= min_commitments:
                    break
                committed_beyond_window += 1
            if relative_creation > MAX_PLAN_HORIZON:
                break
            actions.append(ScalingAction(creation_time=now + relative_creation))
        return ScalingResponse(actions=actions)


def _planned_actions(scaler: RobustScaler, trace: ArrivalTrace) -> list[ScalingAction]:
    actions: list[ScalingAction] = []
    plan = scaler._plan

    def recorded(context):
        response = plan(context)
        actions.extend(response.actions)
        return response

    scaler._plan = recorded
    ScalingPerQuerySimulator(SimulationConfig(pending_time=13.0)).replay(trace, scaler)
    return actions


class TestColumnWisePlanning:
    """Planning with one column-wise solve per round reproduces the per-query loop."""

    @pytest.mark.parametrize(
        "objective, target",
        [
            (RobustScalerObjective.HIT_PROBABILITY, 0.9),
            (RobustScalerObjective.RESPONSE_TIME, 2.0),
            (RobustScalerObjective.COST, 3.0),
        ],
    )
    def test_actions_match_per_query_reference(
        self, periodic_intensity, periodic_trace, fast_planner, objective, target
    ):
        def run(cls):
            scaler = cls(
                periodic_intensity,
                UniformPendingTime(8.0, 18.0),
                objective=objective,
                target=target,
                planner=fast_planner,
                random_state=7,
            )
            return _planned_actions(scaler, periodic_trace)

        actions = run(RobustScaler)
        assert len(actions) > 100
        assert actions == run(_PerQueryRobustScaler)
