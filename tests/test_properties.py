"""Cross-module property-based tests (hypothesis).

These properties tie several subsystems together and must hold for *any*
well-formed input, not just the fixtures used elsewhere:

* simulator conservation laws under arbitrary proactive plans;
* consistency between the decision solvers and the empirical objectives they
  optimize;
* agreement between the intensity object's integral and the Monte Carlo
  samplers built on top of it.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import SimulationConfig
from repro.exceptions import ValidationError
from repro.nhpp.intensity import PiecewiseConstantIntensity
from repro.nhpp.sampling import sample_next_arrivals
from repro.optimization.formulations import solve_cost_constrained, solve_hp_constrained
from repro.optimization.sort_and_search import expected_idle_time, expected_waiting_time
from repro.scaling.base import Autoscaler, PlanningContext, ScalingResponse
from repro.simulation.engine import ScalingPerQuerySimulator
from repro.types import ArrivalTrace, ScalingAction


class _PlannedScaler(Autoscaler):
    """Creates instances at a fixed set of absolute times (for property tests)."""

    name = "planned"

    def __init__(self, creation_times):
        self._times = list(creation_times)

    def initialize(self, context: PlanningContext) -> ScalingResponse:
        return ScalingResponse(
            actions=[ScalingAction(creation_time=float(t)) for t in self._times]
        )


arrival_lists = st.lists(
    st.floats(min_value=0.0, max_value=2000.0), min_size=1, max_size=40
)
creation_lists = st.lists(
    st.floats(min_value=0.0, max_value=2000.0), min_size=0, max_size=40
)


class TestSimulatorInvariants:
    @given(arrival_lists, creation_lists, st.floats(min_value=0.0, max_value=30.0))
    @settings(max_examples=60, deadline=None)
    def test_conservation_under_arbitrary_plans(self, arrivals, creations, pending):
        """Every query is served exactly once; all costs are non-negative;
        the total cost is at least the irreducible pending + processing time
        of the served queries."""
        arrivals = np.sort(np.asarray(arrivals))
        processing = 3.0
        trace = ArrivalTrace(arrivals, processing, horizon=2100.0)
        config = SimulationConfig(pending_time=pending)
        result = ScalingPerQuerySimulator(config).replay(trace, _PlannedScaler(creations))

        # One row per query, in arrival order, in every column.
        assert result.n_queries == trace.n_queries
        for column in (
            result.hits,
            result.waiting_times,
            result.creation_times,
            result.ready_times,
            result.start_times,
            result.pending_times,
            result.proactive_flags,
        ):
            assert column.shape == (trace.n_queries,)
        np.testing.assert_array_equal(result.arrival_times, trace.arrival_times)
        assert np.all(result.waiting_times >= 0.0)
        assert np.all(result.response_times >= processing - 1e-9)
        assert result.unused_instance_cost >= 0.0
        irreducible = trace.n_queries * processing
        assert result.total_cost >= irreducible - 1e-6
        # Waiting never exceeds the pending time: an instance is at most
        # "pending" away from being ready once the query has arrived.
        assert np.all(result.waiting_times <= pending + 1e-9)

    @given(arrival_lists, st.floats(min_value=0.0, max_value=30.0))
    @settings(max_examples=40, deadline=None)
    def test_more_proactive_instances_never_hurt_qos(self, arrivals, pending):
        """Adding warm instances at time zero can only improve hit rate and RT."""
        arrivals = np.sort(np.asarray(arrivals))
        trace = ArrivalTrace(arrivals, 2.0, horizon=2100.0)
        config = SimulationConfig(pending_time=pending)
        simulator = ScalingPerQuerySimulator(config)
        none = simulator.replay(trace, _PlannedScaler([]))
        many = simulator.replay(trace, _PlannedScaler([0.0] * len(arrivals)))
        assert many.hit_rate >= none.hit_rate - 1e-9
        assert many.mean_response_time <= none.mean_response_time + 1e-9


class TestDecisionConsistency:
    @given(
        st.integers(min_value=5, max_value=300),
        st.floats(min_value=0.05, max_value=0.95),
        st.floats(min_value=0.0, max_value=20.0),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_hp_decision_satisfies_empirical_constraint(self, n, target, pending, seed):
        """The HP decision achieves at least the target on its own samples."""
        rng = np.random.default_rng(seed)
        xi = rng.exponential(10.0, size=n)
        tau = np.full(n, pending)
        decision = solve_hp_constrained(xi, tau, target)
        empirical_hp = np.mean(xi > decision.raw_creation_time + tau)
        assert empirical_hp >= target - 1.0 / n - 1e-9

    @given(
        st.integers(min_value=5, max_value=300),
        st.floats(min_value=0.0, max_value=30.0),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_cost_decision_never_exceeds_budget(self, n, budget, seed):
        rng = np.random.default_rng(seed)
        xi = rng.exponential(15.0, size=n)
        tau = rng.uniform(0.0, 5.0, size=n)
        decision = solve_cost_constrained(xi, tau, budget)
        assert expected_idle_time(decision.creation_time, xi, tau) <= budget + 1e-6

    @given(
        st.integers(min_value=5, max_value=200),
        st.floats(min_value=0.1, max_value=0.9),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_hp_decision_trades_cost_for_qos(self, n, target, seed):
        """A stricter HP target never has a later creation time (and never a
        lower expected idle cost) than a looser one on the same samples."""
        rng = np.random.default_rng(seed)
        xi = rng.exponential(10.0, size=n)
        tau = np.full(n, 3.0)
        loose = solve_hp_constrained(xi, tau, target)
        strict = solve_hp_constrained(xi, tau, min(target + 0.09, 0.99))
        assert strict.raw_creation_time <= loose.raw_creation_time + 1e-9
        assert (
            expected_waiting_time(strict.creation_time, xi, tau)
            <= expected_waiting_time(loose.creation_time, xi, tau) + 1e-9
        )


class TestSamplingConsistency:
    @given(
        st.lists(st.floats(min_value=0.0, max_value=3.0), max_size=7),
        # The last (held) rate carries every draw past the window, so it is
        # positive; a zero tail raises by design (see the test below).
        st.floats(min_value=0.0, max_value=3.0, exclude_min=True),
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_next_arrival_samples_respect_cumulative_intensity(self, body, held, k, seed):
        """Each sampled arrival time carries at least as much integrated
        intensity as the previous one, and the count of arrivals before any
        time t has the right mean (checked loosely via the first arrival)."""
        rates = np.asarray([*body, held])
        intensity = PiecewiseConstantIntensity(rates, 60.0, extrapolation="hold")
        samples = sample_next_arrivals(intensity, k, 200, seed)
        assert samples.shape == (200, k)
        assert np.all(np.diff(samples, axis=1) >= -1e-9)
        assert np.all(samples >= 0.0)

    def test_zero_held_rate_raises_past_the_window(self):
        # Window mass 0.0625 * 60 = 3.75; some of 200 rows of five unit
        # exponentials pass it, and a zero tail cannot carry them.
        intensity = PiecewiseConstantIntensity(
            np.array([0.0625, 0.0]), 60.0, extrapolation="hold"
        )
        with pytest.raises(ValidationError, match="held intensity is zero"):
            sample_next_arrivals(intensity, 5, 200, 0)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=20, deadline=None)
    def test_first_arrival_mean_matches_rate(self, seed):
        rate = 0.5
        intensity = PiecewiseConstantIntensity(np.array([rate]), 60.0, extrapolation="hold")
        samples = sample_next_arrivals(intensity, 1, 3000, seed)[:, 0]
        assert samples.mean() == pytest.approx(1.0 / rate, rel=0.15)
