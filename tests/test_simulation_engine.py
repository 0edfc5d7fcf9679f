"""Tests for the scaling-per-query discrete-event simulator (Algorithm 1)."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import SimulationConfig
from repro.experiments.realenv import real_environment_config
from repro.scaling.base import Autoscaler, PlanningContext, ScalingResponse
from repro.scaling.backup_pool import BackupPoolScaler, ReactiveScaler
from repro.simulation.engine import ScalingPerQuerySimulator
from repro.simulation import create_simulator
from repro.simulation.runner import replay
from repro.types import ArrivalTrace, ScalingAction

#: Per-query columns of a SimulationResult.
_COLUMNS = (
    "arrival_times",
    "processing_times",
    "hits",
    "waiting_times",
    "creation_times",
    "ready_times",
    "start_times",
    "pending_times",
    "proactive_flags",
)


class FixedPlanScaler(Autoscaler):
    """Test helper: creates instances at a fixed list of absolute times."""

    name = "FixedPlan"

    def __init__(self, creation_times, slow_seconds: float = 0.0):
        self._creation_times = list(creation_times)
        self._slow_seconds = slow_seconds

    def initialize(self, context: PlanningContext) -> ScalingResponse:
        if self._slow_seconds:
            import time

            time.sleep(self._slow_seconds)
        actions = [ScalingAction(creation_time=t, planned_at=0.0) for t in self._creation_times]
        return ScalingResponse(actions=actions)


class TestAlgorithmOneDynamics:
    """Each branch of Algorithm 1, checked with hand-computed outcomes."""

    def test_instance_ready_before_arrival_is_hit(self):
        # x=0, tau=10 -> ready at 10; query arrives at 20: hit, RT = processing.
        config = SimulationConfig(pending_time=10.0)
        trace = ArrivalTrace([20.0], [7.0], horizon=30.0)
        result = ScalingPerQuerySimulator(config).replay(trace, FixedPlanScaler([0.0]))
        assert result.hits[0]
        assert result.waiting_times[0] == 0.0
        assert result.response_times[0] == pytest.approx(7.0)
        # Lifecycle: creation at 0, deletion at 20 + 7.
        assert result.lifecycle_costs[0] == pytest.approx(27.0)
        assert result.idle_times[0] == pytest.approx(10.0)

    def test_instance_pending_at_arrival_waits(self):
        # x=15, tau=10 -> ready at 25; query arrives at 20: waits 5 seconds.
        config = SimulationConfig(pending_time=10.0)
        trace = ArrivalTrace([20.0], [7.0], horizon=40.0)
        result = ScalingPerQuerySimulator(config).replay(trace, FixedPlanScaler([15.0]))
        assert not result.hits[0]
        assert result.waiting_times[0] == pytest.approx(5.0)
        assert result.response_times[0] == pytest.approx(12.0)
        assert result.lifecycle_costs[0] == pytest.approx(17.0)

    def test_no_instance_triggers_cold_start(self):
        config = SimulationConfig(pending_time=10.0)
        trace = ArrivalTrace([20.0], [7.0], horizon=40.0)
        result = ScalingPerQuerySimulator(config).replay(trace, ReactiveScaler())
        assert not result.hits[0]
        assert result.waiting_times[0] == pytest.approx(10.0)
        assert not result.proactive_flags[0]
        assert result.creation_times[0] == pytest.approx(20.0)

    def test_scheduled_creation_cancelled_on_cold_start(self):
        # The scheduled creation at t=100 is intended for the first query, but
        # the query arrives at t=20 before it exists -> reactive creation and
        # the scheduled one must be cancelled (no unused instance cost).
        config = SimulationConfig(pending_time=10.0)
        trace = ArrivalTrace([20.0], [5.0], horizon=200.0)
        result = ScalingPerQuerySimulator(config).replay(trace, FixedPlanScaler([100.0]))
        assert result.n_queries == 1
        assert result.unused_instance_cost == 0.0

    def test_unused_instances_charged_until_horizon(self):
        config = SimulationConfig(pending_time=10.0)
        trace = ArrivalTrace([20.0], [5.0], horizon=100.0)
        # Two instances created at t=0; only one is consumed.
        result = ScalingPerQuerySimulator(config).replay(trace, FixedPlanScaler([0.0, 0.0]))
        assert result.unused_instance_cost == pytest.approx(100.0)

    def test_earliest_ready_instance_assigned_first(self):
        config = SimulationConfig(pending_time=10.0)
        trace = ArrivalTrace([30.0, 31.0], [1.0, 1.0], horizon=60.0)
        result = ScalingPerQuerySimulator(config).replay(trace, FixedPlanScaler([0.0, 15.0]))
        assert result.n_queries == 2
        assert result.creation_times == pytest.approx([0.0, 15.0])
        assert result.hits.all()


class TestSimulatorProperties:
    def test_every_query_served_exactly_once(self, small_poisson_trace, sim_config):
        result = ScalingPerQuerySimulator(sim_config).replay(
            small_poisson_trace, BackupPoolScaler(2)
        )
        # One row per query, in arrival order, in every column.
        n = small_poisson_trace.n_queries
        assert result.n_queries == n
        for column in _COLUMNS:
            assert getattr(result, column).shape == (n,), column
        np.testing.assert_array_equal(result.arrival_times, small_poisson_trace.arrival_times)

    def test_cost_identity_per_instance(self, small_poisson_trace, sim_config):
        """lifecycle = idle + waiting-covered pending + processing, per Algorithm 1."""
        result = ScalingPerQuerySimulator(sim_config).replay(
            small_poisson_trace, BackupPoolScaler(3)
        )
        reconstructed = (
            result.idle_times
            + (result.ready_times - result.creation_times)
            + result.processing_times
        )
        assert result.lifecycle_costs == pytest.approx(reconstructed, abs=1e-6)

    def test_response_time_decomposition(self, small_poisson_trace, sim_config):
        result = ScalingPerQuerySimulator(sim_config).replay(
            small_poisson_trace, BackupPoolScaler(1)
        )
        assert result.response_times == pytest.approx(
            result.waiting_times + result.processing_times
        )
        assert np.all(result.waiting_times >= 0.0)

    def test_hit_iff_zero_waiting(self, small_poisson_trace, sim_config):
        result = ScalingPerQuerySimulator(sim_config).replay(
            small_poisson_trace, BackupPoolScaler(2)
        )
        hits = result.hits
        assert result.waiting_times[hits] == pytest.approx(0.0)
        misses = ~hits
        assert np.all(
            (result.waiting_times[misses] > 0.0)
            | (result.ready_times[misses] > result.arrival_times[misses])
        )

    def test_deterministic_replay(self, small_poisson_trace, sim_config):
        simulator = ScalingPerQuerySimulator(sim_config)
        a = simulator.replay(small_poisson_trace, BackupPoolScaler(2))
        b = simulator.replay(small_poisson_trace, BackupPoolScaler(2))
        np.testing.assert_array_equal(a.response_times, b.response_times)
        assert a.total_cost == b.total_cost

    @given(
        st.lists(st.floats(min_value=0.1, max_value=3000.0), min_size=1, max_size=60),
        st.integers(min_value=0, max_value=4),
    )
    @settings(max_examples=30, deadline=None)
    def test_waiting_bounded_by_pending_for_pool_strategies(self, raw_arrivals, pool_size):
        """With only immediate creations, no query waits longer than the pending time."""
        arrivals = np.sort(np.asarray(raw_arrivals))
        trace = ArrivalTrace(arrivals, 1.0, horizon=3100.0)
        config = SimulationConfig(pending_time=7.0)
        result = ScalingPerQuerySimulator(config).replay(trace, BackupPoolScaler(pool_size))
        assert result.n_queries == trace.n_queries
        assert np.all(result.waiting_times <= 7.0 + 1e-9)
        assert result.total_cost >= 0.0


class TestResultColumns:
    """Both engines hand back the same typed columns."""

    @pytest.fixture(params=["reference", "batched"])
    def jittered_result(self, request, small_poisson_trace):
        config = SimulationConfig(
            pending_time=10.0, pending_time_jitter=4.0, seed=3, engine=request.param
        )
        return create_simulator(config).replay(small_poisson_trace, BackupPoolScaler(3))

    def test_columns_are_float64_and_bool(self, jittered_result):
        for column in _COLUMNS:
            expected = bool if column in ("hits", "proactive_flags") else np.float64
            assert getattr(jittered_result, column).dtype == expected, column

    def test_idle_times_match_per_query_floor(self, jittered_result):
        starts = jittered_result.start_times.tolist()
        readies = jittered_result.ready_times.tolist()
        expected = np.array([max(0.0, s - r) for s, r in zip(starts, readies)])
        assert (jittered_result.idle_times > 0.0).any()
        assert jittered_result.idle_times.tobytes() == expected.tobytes()


class TestRealEnvironment:
    def test_decision_latency_delays_actions(self):
        trace = ArrivalTrace([1.0], [1.0], horizon=30.0)
        slow = FixedPlanScaler([0.0], slow_seconds=0.2)
        charged = SimulationConfig(pending_time=0.5, charge_decision_latency=True)
        uncharged = SimulationConfig(pending_time=0.5)
        hit_uncharged = ScalingPerQuerySimulator(uncharged).replay(trace, slow).hits[0]
        hit_charged = (
            ScalingPerQuerySimulator(charged)
            .replay(trace, FixedPlanScaler([0.0], slow_seconds=2.0))
            .hits[0]
        )
        assert hit_uncharged
        assert not hit_charged

    def test_scheduling_latency_adds_to_ready_time(self):
        trace = ArrivalTrace([5.0], [1.0], horizon=30.0)
        config = SimulationConfig(pending_time=1.0, scheduling_latency=2.0)
        result = ScalingPerQuerySimulator(config).replay(trace, FixedPlanScaler([0.0]))
        assert result.ready_times[0] == pytest.approx(3.0)

    def test_real_environment_config_factory(self):
        base = SimulationConfig(pending_time=13.0)
        real = real_environment_config(base, scheduling_latency=1.5, pending_time_jitter=2.0)
        assert real.charge_decision_latency
        assert real.scheduling_latency == 1.5
        assert real.pending_time_jitter == 2.0

    def test_jitter_clamped_to_pending_time(self):
        base = SimulationConfig(pending_time=1.0)
        real = real_environment_config(base, pending_time_jitter=5.0)
        assert real.pending_time_jitter <= real.pending_time

    @pytest.mark.parametrize("pending_time", [0.5, 2.0, 13.0])
    def test_jitter_is_the_smaller_of_request_and_pending_time(self, pending_time):
        real = real_environment_config(SimulationConfig(pending_time=pending_time))
        assert real.pending_time_jitter == min(2.0, pending_time)

    def test_default_base_is_the_default_simulator(self):
        real = real_environment_config()
        expected = real_environment_config(SimulationConfig())
        assert real == expected
        assert real.charge_decision_latency
        assert real.scheduling_latency == 1.0

    def test_other_settings_and_base_are_kept(self):
        base = SimulationConfig(pending_time=7.0)
        real = real_environment_config(base, scheduling_latency=0.5)
        assert not base.charge_decision_latency
        assert base.scheduling_latency == SimulationConfig().scheduling_latency
        assert real.pending_time == 7.0
        changed = ("charge_decision_latency", "scheduling_latency", "pending_time_jitter")
        for field in dataclasses.fields(SimulationConfig):
            if field.name not in changed:
                assert getattr(real, field.name) == getattr(base, field.name), field.name


class TestReadyCountTracking:
    """The incremental ready count must match a brute-force pool recount.

    ``make_context`` tracks the number of ready unassigned instances with a
    sorted mirror of the pool's ready times instead of scanning the pool on
    every call; with the audit flag enabled, the engine recounts by brute
    force at every planning context and raises on any divergence.
    """

    @pytest.fixture(autouse=True)
    def _enable_audit(self, monkeypatch):
        from repro.simulation import engine as engine_module

        monkeypatch.setattr(engine_module, "_AUDIT_READY_COUNT", True)

    def test_audit_with_pool_churn(self, small_poisson_trace):
        # Jittered pending times interleave ready times across creations;
        # AdapBP adds scale-ins (tail removals) on its planning ticks.
        config = SimulationConfig(pending_time=10.0, pending_time_jitter=4.0, seed=1)
        from repro.scaling.adaptive_backup_pool import AdaptiveBackupPoolScaler

        for scaler in (
            BackupPoolScaler(3),
            AdaptiveBackupPoolScaler(40.0, update_interval=120.0),
        ):
            result = ScalingPerQuerySimulator(config).replay(
                small_poisson_trace, scaler
            )
            assert result.n_queries == small_poisson_trace.n_queries

    def test_audit_with_scheduled_materializations(self, small_poisson_trace):
        config = SimulationConfig(pending_time=5.0, pending_time_jitter=2.0, seed=2)
        creation_times = [50.0 * k for k in range(20)]
        result = ScalingPerQuerySimulator(config).replay(
            small_poisson_trace, FixedPlanScaler(creation_times)
        )
        assert result.n_queries == small_poisson_trace.n_queries

    def test_ready_count_observed_by_policy(self):
        """The count a policy sees equals an independent recount of the pool."""
        observed: list[tuple[float, int, int]] = []

        class Recorder(Autoscaler):
            name = "Recorder"

            def initialize(self, context):
                return ScalingResponse(
                    actions=[
                        ScalingAction(creation_time=t, planned_at=0.0)
                        for t in (0.0, 0.0, 0.0, 30.0)
                    ]
                )

            def on_query_arrival(self, context):
                observed.append(
                    (context.time, context.ready_unassigned, context.created_unassigned)
                )
                return ScalingResponse.empty()

        config = SimulationConfig(pending_time=10.0)
        trace = ArrivalTrace([5.0, 15.0, 45.0, 100.0], 1.0, horizon=200.0)
        ScalingPerQuerySimulator(config).replay(trace, Recorder())
        # Hand-computed: three creations at t=0 become ready at 10, the one
        # at t=30 becomes ready at 40; each arrival consumes the
        # earliest-ready instance before its hook observes the pool.
        assert [(t, ready) for t, ready, _ in observed] == [
            (5.0, 0),
            (15.0, 1),
            (45.0, 1),
            (100.0, 0),
        ]
        for _, ready, created in observed:
            assert 0 <= ready <= created


class TestRunnerHelpers:
    def test_replay_helper(self, small_poisson_trace, sim_config):
        result = replay(small_poisson_trace, ReactiveScaler(), sim_config)
        assert result.n_queries == small_poisson_trace.n_queries
