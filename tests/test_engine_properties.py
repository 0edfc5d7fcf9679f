"""Property-based invariants of the replay engines (reference/batched).

Each property is checked on every engine: the reference engine because it
defines the semantics, the batched engine because it must uphold them
under every input hypothesis can dream up — not just the seeded
configurations of the differential suite.  The BP/AdapBP properties run the
batched engine's top-up chunks through both servers (the jittered configs
exercise the per-arrival top-up loop, the deterministic ones the vectorized
FIFO server).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import SimulationConfig
from repro.scaling.adaptive_backup_pool import AdaptiveBackupPoolScaler
from repro.scaling.backup_pool import BackupPoolScaler, ReactiveScaler
from repro.scaling.base import Autoscaler, ScalingResponse
from repro.simulation import BatchedEventSimulator, ScalingPerQuerySimulator
from repro.types import ArrivalTrace, ScalingAction


ENGINES = [ScalingPerQuerySimulator, BatchedEventSimulator]
ENGINE_IDS = ["reference", "batched"]


class InitialFleetScaler(Autoscaler):
    """Creates ``count`` instances immediately at time zero, then stays idle."""

    name = "InitialFleet"

    def __init__(self, count: int) -> None:
        self._count = count

    def initialize(self, context) -> ScalingResponse:
        return ScalingResponse.create_now(0.0, self._count)


class FutureFleetScaler(Autoscaler):
    """Schedules ``count`` future creations spread over the given window."""

    name = "FutureFleet"

    def __init__(self, count: int, window: float) -> None:
        self._count = count
        self._window = window

    def initialize(self, context) -> ScalingResponse:
        actions = [
            ScalingAction(creation_time=self._window * (k + 1) / (self._count + 1))
            for k in range(self._count)
        ]
        return ScalingResponse(actions=actions)


def _trace(raw_arrivals, processing=3.0, horizon_pad=100.0):
    arrivals = np.sort(np.asarray(raw_arrivals, dtype=float))
    horizon = float(arrivals[-1]) + horizon_pad if arrivals.size else horizon_pad
    return ArrivalTrace(arrivals, processing, horizon=horizon)


arrival_lists = st.lists(
    st.floats(min_value=0.0, max_value=2000.0, allow_nan=False), min_size=1, max_size=80
)


@pytest.mark.parametrize("engine_cls", ENGINES, ids=ENGINE_IDS)
class TestEngineInvariants:
    @given(raw=arrival_lists, pool=st.integers(min_value=0, max_value=5))
    @settings(max_examples=25, deadline=None)
    def test_waiting_times_non_negative(self, engine_cls, raw, pool):
        config = SimulationConfig(pending_time=6.0, pending_time_jitter=2.0, seed=1)
        result = engine_cls(config).replay(_trace(raw), BackupPoolScaler(pool))
        assert np.all(result.waiting_times >= 0.0)
        assert np.all(result.response_times >= result.waiting_times)

    @given(raw=arrival_lists, pool=st.integers(min_value=0, max_value=5))
    @settings(max_examples=25, deadline=None)
    def test_hit_implies_ready_before_arrival(self, engine_cls, raw, pool):
        config = SimulationConfig(pending_time=5.0, seed=2)
        result = engine_cls(config).replay(_trace(raw), BackupPoolScaler(pool))
        hits = result.hits
        assert np.all(result.ready_times[hits] <= result.arrival_times[hits])
        misses = ~hits
        assert np.all(result.ready_times[misses] > result.arrival_times[misses])

    @given(raw=arrival_lists, factor=st.floats(min_value=0.0, max_value=40.0))
    @settings(max_examples=25, deadline=None)
    def test_deletion_is_start_plus_processing(self, engine_cls, raw, factor):
        config = SimulationConfig(pending_time=4.0, pending_time_jitter=1.0, seed=3)
        scaler = AdaptiveBackupPoolScaler(factor, update_interval=300.0)
        result = engine_cls(config).replay(_trace(raw, processing=7.0), scaler)
        np.testing.assert_allclose(
            result.deletion_times, result.start_times + result.processing_times
        )
        # Instances become ready only after their creation.
        assert np.all(result.ready_times >= result.creation_times)
        assert np.all(result.start_times >= result.ready_times - 1e-12)

    @given(
        raw=arrival_lists,
        fleet=st.integers(min_value=1, max_value=8),
        pad_a=st.floats(min_value=0.0, max_value=300.0),
        pad_b=st.floats(min_value=1.0, max_value=300.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_unused_cost_monotone_in_horizon(
        self, engine_cls, raw, fleet, pad_a, pad_b
    ):
        """Extending the horizon never decreases the idle-instance cost."""
        arrivals = np.sort(np.asarray(raw, dtype=float))
        last = float(arrivals[-1])
        config = SimulationConfig(pending_time=5.0, seed=4)
        costs = []
        for pad in sorted((pad_a, pad_a + pad_b)):
            trace = ArrivalTrace(arrivals, 2.0, horizon=last + pad)
            result = engine_cls(config).replay(trace, InitialFleetScaler(fleet))
            costs.append(result.unused_instance_cost)
        assert costs[1] >= costs[0] - 1e-9

    @given(raw=arrival_lists, fleet=st.integers(min_value=0, max_value=10))
    @settings(max_examples=25, deadline=None)
    def test_immediate_creation_conservation(self, engine_cls, raw, fleet):
        """Instances created at t=0 are either consumed by queries or idle at
        the end: ``fleet == proactive_served + n_unused_instances``."""
        config = SimulationConfig(pending_time=3.0, seed=5)
        result = engine_cls(config).replay(_trace(raw), InitialFleetScaler(fleet))
        proactive_served = int(result.proactive_flags.sum())
        assert proactive_served + result.n_unused_instances == fleet
        # Every query not served proactively was a reactive cold start.
        assert (result.n_queries - proactive_served) == int(
            (~result.proactive_flags).sum()
        )

    @given(
        raw=arrival_lists,
        fleet=st.integers(min_value=1, max_value=10),
        window=st.floats(min_value=10.0, max_value=1500.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_scheduled_creation_conservation(self, engine_cls, raw, fleet, window):
        """Scheduled creations split into materialized (served or idle) and
        cancelled/abandoned ones; nothing is double-counted."""
        config = SimulationConfig(pending_time=3.0, seed=6)
        result = engine_cls(config).replay(
            _trace(raw), FutureFleetScaler(fleet, window)
        )
        materialized = int(result.proactive_flags.sum()) + result.n_unused_instances
        assert 0 <= materialized <= fleet
        # When the last arrival lies beyond every scheduled creation time,
        # each creation was either materialized (served or left idle) or
        # cancelled by a reactive cold start — and each cold start cancels at
        # most one creation, so the two observable counts cover the fleet.
        reactive_count = int((~result.proactive_flags).sum())
        if result.n_queries and float(result.arrival_times[-1]) >= window:
            assert materialized + reactive_count >= fleet

    @given(raw=arrival_lists)
    @settings(max_examples=15, deadline=None)
    def test_reactive_serves_every_query_exactly_once(self, engine_cls, raw):
        config = SimulationConfig(pending_time=2.0, seed=7)
        trace = _trace(raw)
        result = engine_cls(config).replay(trace, ReactiveScaler())
        assert result.n_queries == trace.n_queries
        assert not result.hits.any()
        np.testing.assert_array_equal(result.creation_times, result.arrival_times)


def _assert_bit_identical(reference, batched):
    for column in (
        "hits",
        "waiting_times",
        "creation_times",
        "ready_times",
        "start_times",
        "deletion_times",
        "pending_times",
        "proactive_flags",
    ):
        np.testing.assert_array_equal(
            getattr(reference, column), getattr(batched, column), err_msg=column
        )
    assert reference.unused_instance_cost == batched.unused_instance_cost
    assert reference.n_unused_instances == batched.n_unused_instances


@pytest.mark.parametrize("jitter", [0.0, 2.5], ids=["fifo", "topup-loop"])
class TestKernelTierParity:
    """The batched engine serves BP/AdapBP as top-up chunks (with
    one-arrival tick intervals on the hook and target-0 intervals passive);
    on arbitrary traces the result must match the reference engine bit for
    bit.  Zero jitter drives the vectorized FIFO server, positive jitter the
    per-arrival top-up loop."""

    @given(raw=arrival_lists, pool=st.integers(min_value=0, max_value=5))
    @settings(max_examples=25, deadline=None)
    def test_backup_pool_matches_reference(self, jitter, raw, pool):
        config = SimulationConfig(pending_time=6.0, pending_time_jitter=jitter, seed=8)
        trace = _trace(raw)
        reference = ScalingPerQuerySimulator(config).replay(
            trace, BackupPoolScaler(pool)
        )
        batched = BatchedEventSimulator(config).replay(trace, BackupPoolScaler(pool))
        _assert_bit_identical(reference, batched)

    @given(
        raw=arrival_lists,
        factor=st.floats(min_value=0.0, max_value=40.0),
        interval=st.sampled_from([5.0, 60.0, 300.0]),
    )
    @settings(max_examples=25, deadline=None)
    def test_adaptive_backup_pool_matches_reference(
        self, jitter, raw, factor, interval
    ):
        config = SimulationConfig(pending_time=4.0, pending_time_jitter=jitter, seed=9)
        trace = _trace(raw, processing=7.0)

        def scaler():
            return AdaptiveBackupPoolScaler(factor, update_interval=interval)

        reference = ScalingPerQuerySimulator(config).replay(trace, scaler())
        batched = BatchedEventSimulator(config).replay(trace, scaler())
        _assert_bit_identical(reference, batched)
