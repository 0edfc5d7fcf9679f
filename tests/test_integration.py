"""End-to-end integration tests tying the whole pipeline together.

These tests check the claims that make RobustScaler *RobustScaler*:

* the full pipeline (trace -> periodicity -> NHPP -> forecast -> decisions ->
  replay) runs and beats reactive scaling;
* Proposition 1: under a known NHPP intensity the sequential scheme delivers
  the target hitting probability;
* Proposition 2 (qualitatively): a modest intensity-estimation error shifts
  the achieved hitting probability by a bounded amount;
* robustness: injecting missing data into the training window barely changes
  the decisions made on the test window.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    DeterministicPendingTime,
    NHPPModel,
    PlannerConfig,
    ReactiveScaler,
    RobustScaler,
    SequentialHPScaler,
    SimulationConfig,
    replay,
)
from repro.config import NHPPConfig, ADMMConfig
from repro.nhpp.intensity import PiecewiseConstantIntensity
from repro.nhpp.sampling import sample_arrival_times, sample_homogeneous_arrivals
from repro.traces.perturbation import inject_missing_window
from repro.traces.synthetic import generate_trace_from_intensity, periodic_bump_intensity
from repro.types import ArrivalTrace


@pytest.fixture(scope="module")
def bump_intensity() -> PiecewiseConstantIntensity:
    return periodic_bump_intensity(
        peak=0.6,
        period_seconds=1800.0,
        exponent=8.0,
        base=0.02,
        horizon_seconds=7200.0,
        bin_seconds=30.0,
    )


@pytest.fixture(scope="module")
def bump_trace(bump_intensity) -> ArrivalTrace:
    return generate_trace_from_intensity(
        bump_intensity,
        7200.0,
        processing_time_mean=15.0,
        name="bump",
        random_state=3,
    )


class TestFullPipeline:
    def test_pipeline_beats_reactive(self, bump_trace):
        train, test = bump_trace.split(0.75)
        config = NHPPConfig(admm=ADMMConfig(max_iterations=150))
        model = NHPPModel(config, bin_seconds=30.0).fit(train)
        pending = DeterministicPendingTime(10.0)
        scaler = RobustScaler.from_model(
            model,
            pending,
            target=0.9,
            planner=PlannerConfig(planning_interval=5.0, monte_carlo_samples=300),
            random_state=0,
        )
        sim = SimulationConfig(pending_time=10.0)
        reactive = replay(test, ReactiveScaler(), sim)
        robust = replay(test, scaler, sim)
        assert robust.hit_rate > 0.5
        assert robust.mean_response_time < reactive.mean_response_time
        # Proactive scaling costs more than reactive but not absurdly so.
        assert robust.total_cost < 5.0 * reactive.total_cost

    def test_decisions_scale_with_load(self, bump_intensity):
        """More instances are created around the intensity peak than in the valley."""
        trace = generate_trace_from_intensity(
            bump_intensity, 3600.0, processing_time_mean=5.0, random_state=7
        )
        pending = DeterministicPendingTime(10.0)
        scaler = RobustScaler(
            bump_intensity,
            pending,
            target=0.9,
            planner=PlannerConfig(planning_interval=5.0, monte_carlo_samples=300),
            random_state=1,
        )
        result = replay(trace, scaler, SimulationConfig(pending_time=10.0))
        creations = result.creation_times[result.proactive_flags]
        if creations.size >= 10:
            phase = np.mod(creations, 1800.0)
            near_peak = np.count_nonzero(np.abs(phase - 900.0) < 450.0)
            assert near_peak > 0.6 * creations.size


class TestProposition1:
    @pytest.mark.parametrize("target", [0.6, 0.9])
    def test_sequential_scheme_hits_target_under_true_intensity(self, target):
        rate = 0.15
        arrivals = sample_homogeneous_arrivals(rate, 3 * 3600.0, 17)
        trace = ArrivalTrace(arrivals, 10.0, horizon=3 * 3600.0)
        forecast = PiecewiseConstantIntensity(np.array([rate]), 60.0, extrapolation="hold")
        scaler = SequentialHPScaler(
            forecast,
            DeterministicPendingTime(13.0),
            target_hit_probability=target,
            planner=PlannerConfig(monte_carlo_samples=800),
            random_state=5,
        )
        result = replay(trace, scaler, SimulationConfig(pending_time=13.0))
        assert result.hit_rate == pytest.approx(target, abs=0.07)

    def test_hit_rate_under_nonhomogeneous_truth(self, bump_intensity):
        """Proposition 1 for a genuinely non-homogeneous intensity."""
        arrivals = sample_arrival_times(bump_intensity, 7200.0, 23)
        trace = ArrivalTrace(arrivals, 5.0, horizon=7200.0)
        scaler = SequentialHPScaler(
            bump_intensity,
            DeterministicPendingTime(10.0),
            target_hit_probability=0.8,
            planner=PlannerConfig(monte_carlo_samples=800),
            random_state=6,
        )
        result = replay(trace, scaler, SimulationConfig(pending_time=10.0))
        assert result.hit_rate == pytest.approx(0.8, abs=0.08)


class TestProposition2:
    def test_intensity_error_shifts_hit_probability_boundedly(self):
        """A +/-20% intensity error moves the hit rate, but only moderately."""
        rate = 0.15
        target = 0.8
        arrivals = sample_homogeneous_arrivals(rate, 3 * 3600.0, 29)
        trace = ArrivalTrace(arrivals, 10.0, horizon=3 * 3600.0)
        pending = DeterministicPendingTime(13.0)
        sim = SimulationConfig(pending_time=13.0)

        def run(estimated_rate: float) -> float:
            scaler = SequentialHPScaler(
                PiecewiseConstantIntensity(
                    np.array([estimated_rate]), 60.0, extrapolation="hold"
                ),
                pending,
                target_hit_probability=target,
                planner=PlannerConfig(monte_carlo_samples=800),
                random_state=7,
            )
            return replay(trace, scaler, sim).hit_rate

        exact = run(rate)
        overestimate = run(rate * 1.2)
        underestimate = run(rate * 0.8)
        # Overestimating the intensity creates instances earlier -> more hits;
        # underestimating -> fewer hits.  Both stay within a moderate band.
        assert overestimate >= exact - 0.05
        assert underestimate <= exact + 0.05
        assert abs(overestimate - target) < 0.2
        assert abs(underestimate - target) < 0.2


class TestRobustnessToMissingData:
    def test_missing_training_day_changes_little(self, bump_trace):
        train, test = bump_trace.split(0.75)
        pending = DeterministicPendingTime(10.0)
        sim = SimulationConfig(pending_time=10.0)
        config = NHPPConfig(admm=ADMMConfig(max_iterations=150))

        def evaluate(training_trace) -> float:
            model = NHPPModel(config, bin_seconds=30.0).fit(training_trace)
            scaler = RobustScaler.from_model(
                model,
                pending,
                target=0.9,
                planner=PlannerConfig(planning_interval=5.0, monte_carlo_samples=300),
                random_state=2,
            )
            return replay(test, scaler, sim).hit_rate

        baseline = evaluate(train)
        # Erase a contiguous stretch of the training data comparable, in
        # relative terms, to the paper's "one missing day out of three weeks".
        degraded = evaluate(inject_missing_window(train, 1800.0, 450.0))
        assert degraded == pytest.approx(baseline, abs=0.15)
