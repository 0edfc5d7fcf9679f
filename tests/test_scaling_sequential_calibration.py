"""Tests for the sequential Algorithm 4 scaler and the HP calibration utility."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import PlannerConfig, SimulationConfig
from repro.exceptions import ValidationError
from repro.nhpp.intensity import PiecewiseConstantIntensity
from repro.nhpp.sampling import sample_homogeneous_arrivals
from repro.optimization.formulations import solve_hp_constrained
from repro.optimization.montecarlo import generate_scenarios
from repro.pending import DeterministicPendingTime, UniformPendingTime
from repro.scaling.base import ScalingResponse
from repro.scaling.calibration import CalibrationResult, calibrate_hit_probability
from repro.scaling.sequential import SequentialHPScaler
from repro.simulation.engine import ScalingPerQuerySimulator
from repro.types import ArrivalTrace, ScalingAction


def _constant_forecast(rate: float) -> PiecewiseConstantIntensity:
    return PiecewiseConstantIntensity(np.array([rate]), 60.0, extrapolation="hold")


@pytest.fixture
def hpp_trace() -> ArrivalTrace:
    arrivals = sample_homogeneous_arrivals(0.2, 2 * 3600.0, 99)
    return ArrivalTrace(arrivals, 20.0, name="hpp", horizon=2 * 3600.0)


class _PerQuerySequentialHPScaler(SequentialHPScaler):
    """Reference Algorithm 4 block: the same draws, one scalar HP solve per query."""

    def _plan_block(self, context, first_index, count):
        if count <= 0:
            return ScalingResponse.empty()
        scenarios = generate_scenarios(
            self.forecast.shift(context.time),
            self.pending_model,
            n_queries=first_index + count,
            n_samples=self.planner.monte_carlo_samples,
            random_state=self._rng,
            first=first_index,
        )
        actions = []
        for index in range(first_index, first_index + count):
            samples = scenarios.for_query(index - first_index)
            decision = solve_hp_constrained(*samples, self.target)
            actions.append(
                ScalingAction(
                    creation_time=context.time + decision.creation_time,
                    planned_at=context.time,
                    target_query_index=context.n_arrivals + index,
                )
            )
        return ScalingResponse(actions=actions)


class TestSequentialHPScaler:
    @pytest.mark.parametrize("planning_every", [1, 4])
    def test_actions_match_per_query_reference(self, hpp_trace, planning_every):
        def run(cls):
            scaler = cls(
                _constant_forecast(0.2),
                UniformPendingTime(8.0, 18.0),
                target_hit_probability=0.9,
                planning_every=planning_every,
                planner=PlannerConfig(monte_carlo_samples=200),
                random_state=3,
            )
            actions = []
            plan_block = scaler._plan_block

            def recorded(context, first_index, count):
                response = plan_block(context, first_index, count)
                actions.extend(response.actions)
                return response

            scaler._plan_block = recorded
            ScalingPerQuerySimulator(SimulationConfig(pending_time=13.0)).replay(
                hpp_trace, scaler
            )
            return actions

        actions = run(SequentialHPScaler)
        assert len(actions) > 100
        assert actions == run(_PerQuerySequentialHPScaler)

    def test_kappa_computed_from_upper_bound(self):
        scaler = SequentialHPScaler(
            _constant_forecast(0.2),
            DeterministicPendingTime(13.0),
            target_hit_probability=0.9,
        )
        assert scaler.kappa >= 1

    def test_explicit_upper_bound_zero_gives_no_lookahead(self):
        scaler = SequentialHPScaler(
            _constant_forecast(0.2),
            DeterministicPendingTime(13.0),
            target_hit_probability=0.9,
            intensity_upper_bound=0.0,
        )
        assert scaler.kappa == 0

    def test_proposition1_hit_rate_matches_target(self, hpp_trace):
        """Proposition 1: with the true intensity the hit rate equals 1 - alpha."""
        target = 0.9
        scaler = SequentialHPScaler(
            _constant_forecast(0.2),
            DeterministicPendingTime(13.0),
            target_hit_probability=target,
            planning_every=1,
            planner=PlannerConfig(monte_carlo_samples=1000),
            random_state=0,
        )
        simulator = ScalingPerQuerySimulator(SimulationConfig(pending_time=13.0))
        result = simulator.replay(hpp_trace, scaler)
        assert result.hit_rate == pytest.approx(target, abs=0.06)

    def test_lookahead_outperforms_naive(self, hpp_trace):
        """Removing the kappa look-ahead collapses the hit rate (motivation for eq. 8)."""
        pending = DeterministicPendingTime(13.0)
        simulator = ScalingPerQuerySimulator(SimulationConfig(pending_time=13.0))
        planner = PlannerConfig(monte_carlo_samples=500)
        with_kappa = simulator.replay(
            hpp_trace,
            SequentialHPScaler(
                _constant_forecast(0.2), pending, target_hit_probability=0.9,
                planner=planner, random_state=1,
            ),
        )
        without_kappa = simulator.replay(
            hpp_trace,
            SequentialHPScaler(
                _constant_forecast(0.2), pending, target_hit_probability=0.9,
                intensity_upper_bound=0.0, planner=planner, random_state=1,
            ),
        )
        assert with_kappa.hit_rate > without_kappa.hit_rate + 0.3

    def test_planning_every_m(self, hpp_trace):
        scaler = SequentialHPScaler(
            _constant_forecast(0.2),
            DeterministicPendingTime(13.0),
            target_hit_probability=0.8,
            planning_every=5,
            planner=PlannerConfig(monte_carlo_samples=300),
            random_state=2,
        )
        simulator = ScalingPerQuerySimulator(SimulationConfig(pending_time=13.0))
        result = simulator.replay(hpp_trace, scaler)
        assert result.hit_rate == pytest.approx(0.8, abs=0.1)


class TestCalibration:
    def test_calibration_curve_monotone_and_usable(self, hpp_trace):
        pending = DeterministicPendingTime(13.0)
        forecast = _constant_forecast(0.2)

        def factory(nominal: float) -> SequentialHPScaler:
            return SequentialHPScaler(
                forecast,
                pending,
                target_hit_probability=nominal,
                planner=PlannerConfig(monte_carlo_samples=300),
                random_state=0,
            )

        calibration = calibrate_hit_probability(
            factory,
            hpp_trace,
            nominal_levels=(0.3, 0.6, 0.9),
            simulation_config=SimulationConfig(pending_time=13.0),
        )
        assert calibration.nominal_levels.tolist() == [0.3, 0.6, 0.9]
        # Achieved hit rates should increase with the nominal level.
        assert np.all(np.diff(calibration.achieved_levels) >= -0.05)
        # Inverting the curve lands inside the nominal range.
        nominal = calibration.nominal_for(float(calibration.achieved_levels[1]))
        assert 0.3 - 1e-9 <= nominal <= 0.9 + 1e-9

    def test_nominal_for_rejects_invalid(self):
        calibration = CalibrationResult(
            nominal_levels=np.array([0.2, 0.8]), achieved_levels=np.array([0.1, 0.7])
        )
        with pytest.raises(ValidationError):
            calibration.nominal_for(1.5)

    def test_achieved_for_interpolates(self):
        calibration = CalibrationResult(
            nominal_levels=np.array([0.2, 0.8]), achieved_levels=np.array([0.1, 0.7])
        )
        assert calibration.achieved_for(0.5) == pytest.approx(0.4)

    def test_invalid_levels_rejected(self, hpp_trace):
        with pytest.raises(ValidationError):
            calibrate_hit_probability(lambda p: None, hpp_trace, nominal_levels=[])
        with pytest.raises(ValidationError):
            calibrate_hit_probability(lambda p: None, hpp_trace, nominal_levels=[0.0, 0.5])
