"""Tests for the Backup Pool and Adaptive Backup Pool baselines."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.scaling.adaptive_backup_pool import AdaptiveBackupPoolScaler
from repro.scaling.backup_pool import BackupPoolScaler, ReactiveScaler
from repro.scaling.base import Autoscaler, PlanningContext, ScalingResponse
from repro.simulation.engine import ScalingPerQuerySimulator
from repro.types import ArrivalTrace


def _context(time: float, arrivals: np.ndarray, created: int, scheduled: int = 0):
    return PlanningContext(
        time=time,
        n_arrivals=arrivals.size,
        arrival_history=arrivals,
        created_unassigned=created,
        scheduled_creations=scheduled,
    )


class TestBackupPoolScaler:
    def test_initialize_fills_pool(self):
        scaler = BackupPoolScaler(3)
        response = scaler.initialize(_context(0.0, np.array([]), created=0))
        assert len(response.actions) == 3
        assert all(a.creation_time == 0.0 for a in response.actions)

    def test_replenishes_after_arrival(self):
        scaler = BackupPoolScaler(2)
        response = scaler.on_query_arrival(_context(10.0, np.array([10.0]), created=1))
        assert len(response.actions) == 1

    def test_does_not_overfill(self):
        scaler = BackupPoolScaler(2)
        response = scaler.on_query_arrival(_context(10.0, np.array([10.0]), created=2))
        assert len(response.actions) == 0

    def test_zero_pool_never_creates(self):
        scaler = BackupPoolScaler(0)
        assert len(scaler.initialize(_context(0.0, np.array([]), 0)).actions) == 0
        assert len(scaler.on_query_arrival(_context(5.0, np.array([5.0]), 0)).actions) == 0

    def test_negative_pool_rejected(self):
        with pytest.raises(ValidationError):
            BackupPoolScaler(-1)

    def test_reactive_scaler_is_bp_zero(self):
        scaler = ReactiveScaler()
        assert scaler.pool_size == 0
        assert scaler.name == "Reactive"


def _old_top_up_hook(target: int, context: PlanningContext) -> ScalingResponse:
    """The arrival hook BP and AdapBP each carried before the shared rule."""
    deficit = target - context.outstanding_instances
    if deficit <= 0:
        return ScalingResponse.empty()
    return ScalingResponse.create_now(context.time, deficit)


def _same_response(a: ScalingResponse, b: ScalingResponse) -> bool:
    return (
        [x.creation_time for x in a.actions] == [x.creation_time for x in b.actions]
        and a.scale_in == b.scale_in
    )


class TestArrivalRule:
    """BP and AdapBP keep the base hook and declare only ``arrival_target``."""

    def test_base_policy_targets_nothing(self):
        class Plain(Autoscaler):
            pass

        scaler = Plain()
        assert scaler.arrival_target == 0
        response = scaler.on_query_arrival(_context(3.0, np.array([3.0]), created=0))
        assert _same_response(response, ScalingResponse.empty())

    def test_baselines_keep_the_base_hook(self):
        for cls in (BackupPoolScaler, ReactiveScaler, AdaptiveBackupPoolScaler):
            assert cls.on_query_arrival is Autoscaler.on_query_arrival

    @pytest.mark.parametrize("pool_size", [0, 1, 2, 5])
    def test_bp_rule_matches_the_old_hook(self, pool_size):
        scaler = BackupPoolScaler(pool_size)
        assert scaler.arrival_target == pool_size
        arrivals = np.array([7.0])
        for created in range(pool_size + 3):
            for scheduled in range(3):
                context = _context(7.0, arrivals, created=created, scheduled=scheduled)
                assert _same_response(
                    scaler.on_query_arrival(context), _old_top_up_hook(pool_size, context)
                )

    def test_reactive_targets_zero(self):
        assert ReactiveScaler().arrival_target == 0

    @pytest.mark.parametrize("n_recent", [0, 3, 10, 40])
    def test_adapbp_rule_matches_the_old_hook(self, n_recent):
        scaler = AdaptiveBackupPoolScaler(2.5, rate_window=100.0)
        assert scaler.arrival_target == 0
        arrivals = np.linspace(901.0, 1000.0, n_recent)
        scaler.on_planning_tick(_context(1000.0, arrivals, created=0))
        target = int(np.ceil(n_recent / 100.0 * 2.5))
        assert scaler.arrival_target == target
        for created in range(target + 3):
            for scheduled in range(3):
                context = _context(1001.0, arrivals, created=created, scheduled=scheduled)
                assert _same_response(
                    scaler.on_query_arrival(context), _old_top_up_hook(target, context)
                )


class TestBackupPoolEndToEnd:
    def test_pool_guarantees_hits_for_sparse_arrivals(self, sim_config):
        # Arrivals far apart relative to pending time: with a pool of one the
        # replenished instance is always ready before the next arrival.
        arrivals = np.arange(1, 11) * 100.0
        trace = ArrivalTrace(arrivals, 5.0, horizon=1100.0)
        simulator = ScalingPerQuerySimulator(sim_config)
        result = simulator.replay(trace, BackupPoolScaler(1))
        # First query arrives at t=100 with the instance created at t=0: hit.
        assert result.hit_rate == 1.0

    def test_reactive_never_hits(self, sim_config, small_poisson_trace):
        simulator = ScalingPerQuerySimulator(sim_config)
        result = simulator.replay(small_poisson_trace, ReactiveScaler())
        assert result.hit_rate == 0.0
        # Every response time is pending + processing.
        np.testing.assert_allclose(
            result.response_times,
            sim_config.pending_time + small_poisson_trace.processing_times,
        )

    def test_larger_pool_more_hits_more_cost(self, sim_config, small_poisson_trace):
        simulator = ScalingPerQuerySimulator(sim_config)
        small = simulator.replay(small_poisson_trace, BackupPoolScaler(1))
        large = simulator.replay(small_poisson_trace, BackupPoolScaler(5))
        assert large.hit_rate >= small.hit_rate
        assert large.total_cost >= small.total_cost


class TestAdaptiveBackupPool:
    def test_planning_interval_exposed(self):
        scaler = AdaptiveBackupPoolScaler(10.0, update_interval=600.0)
        assert scaler.planning_interval == 600.0

    def test_target_tracks_recent_rate(self):
        scaler = AdaptiveBackupPoolScaler(10.0, rate_window=100.0)
        arrivals = np.linspace(900.0, 1000.0, 20)  # 0.2 queries/second recently
        response = scaler.on_planning_tick(_context(1000.0, arrivals, created=0))
        assert scaler.arrival_target == int(np.ceil(0.2 * 10.0))
        assert len(response.actions) == scaler.arrival_target

    def test_scales_in_when_target_drops(self):
        scaler = AdaptiveBackupPoolScaler(10.0, rate_window=100.0)
        # No recent arrivals: target drops to zero, existing pool scaled in.
        response = scaler.on_planning_tick(_context(5000.0, np.array([100.0]), created=3))
        assert scaler.arrival_target == 0
        assert response.scale_in == 3

    def test_arrival_replenishes_to_target(self):
        scaler = AdaptiveBackupPoolScaler(20.0, rate_window=100.0)
        arrivals = np.linspace(900.0, 1000.0, 10)
        scaler.on_planning_tick(_context(1000.0, arrivals, created=0))
        target = scaler.arrival_target
        assert target >= 1
        response = scaler.on_query_arrival(
            _context(1001.0, np.append(arrivals, 1001.0), created=target - 1)
        )
        assert len(response.actions) == 1

    def test_arrival_does_not_scale_in(self):
        scaler = AdaptiveBackupPoolScaler(1.0, rate_window=100.0)
        response = scaler.on_query_arrival(_context(1000.0, np.array([999.0]), created=5))
        assert response.scale_in == 0

    def test_reset_clears_target(self):
        scaler = AdaptiveBackupPoolScaler(10.0)
        scaler._target = 7
        scaler.reset()
        assert scaler.arrival_target == 0

    def test_negative_factor_rejected(self):
        with pytest.raises(ValidationError):
            AdaptiveBackupPoolScaler(-1.0)

    def test_end_to_end_cost_scales_with_factor(self, sim_config, small_poisson_trace):
        simulator = ScalingPerQuerySimulator(sim_config)
        low = simulator.replay(small_poisson_trace, AdaptiveBackupPoolScaler(2.0))
        high = simulator.replay(small_poisson_trace, AdaptiveBackupPoolScaler(20.0))
        assert high.total_cost >= low.total_cost
        assert high.hit_rate >= low.hit_rate


class TestScalingResponseHelpers:
    def test_empty(self):
        response = ScalingResponse.empty()
        assert not response.actions
        assert response.scale_in == 0

    def test_create_now(self):
        response = ScalingResponse.create_now(5.0, 3)
        assert len(response.actions) == 3
        assert all(a.creation_time == 5.0 for a in response.actions)

    def test_recent_arrival_rate(self):
        context = _context(100.0, np.array([10.0, 95.0, 99.0]), created=0)
        assert context.recent_arrival_rate(10.0) == pytest.approx(0.2)
        assert context.recent_arrival_rate(0.0) == 0.0
