"""A result's derived ready and waiting times against the reference oracle.

A :class:`~repro.types.SimulationResult` stores only the columns a replay
decides and derives ``ready_times`` as ``(creation + latency) + pending``
and ``waiting_times`` as ``start - arrival``.  These tests record the
ready and waiting time the reference engine's ``_serve_query`` computes
for every query and hold both engines' derived columns to them bit for
bit, on every serving path: passive chunks (Reactive, RobustScaler-HP),
top-up chunks (BP, AdapBP; FIFO and per-arrival servers) and the per-query
hook path (charged decision latency).
"""

from __future__ import annotations

import itertools
import time

import numpy as np
import pytest

from repro.config import PlannerConfig, SimulationConfig
from repro.nhpp.sampling import sample_homogeneous_arrivals
from repro.pending import (
    DeterministicPendingTime,
    ExponentialPendingTime,
    UniformPendingTime,
)
from repro.runtime import prepare_workload
from repro.scaling.adaptive_backup_pool import AdaptiveBackupPoolScaler
from repro.scaling.backup_pool import BackupPoolScaler, ReactiveScaler
from repro.scaling.robustscaler import RobustScaler, RobustScalerObjective
from repro.simulation import BatchedEventSimulator, ScalingPerQuerySimulator
from repro.types import ArrivalTrace


class _RecordingReference(ScalingPerQuerySimulator):
    """The oracle, keeping the ready and waiting time it computes per query."""

    def replay(self, trace, scaler):
        self.ready = np.full(trace.n_queries, np.nan)
        self.waiting = np.full(trace.n_queries, np.nan)
        return super().replay(trace, scaler)

    def _serve_query(self, index, arrival, *state):
        outcome = super()._serve_query(index, arrival, *state)
        hit, waiting, creation, ready, start, pending, proactive = outcome
        self.waiting[index] = waiting
        self.ready[index] = ready
        return outcome


def _assert_same_bits(actual, expected, label):
    assert actual.dtype == expected.dtype == np.float64, label
    np.testing.assert_array_equal(
        actual.view(np.uint64), expected.view(np.uint64), err_msg=label
    )


def _check_derivation(trace, factory, config, pending_model):
    oracle = _RecordingReference(config, pending_model=pending_model)
    reference = oracle.replay(trace, factory())
    batched = BatchedEventSimulator(config, pending_model=pending_model).replay(
        trace, factory()
    )
    assert trace.n_queries > 0
    assert not np.isnan(oracle.ready).any() and not np.isnan(oracle.waiting).any()
    for engine, result in (("reference", reference), ("batched", batched)):
        assert result.scheduling_latency == config.scheduling_latency
        _assert_same_bits(result.ready_times, oracle.ready, f"{engine} ready_times")
        _assert_same_bits(result.waiting_times, oracle.waiting, f"{engine} waiting_times")
    return reference, batched


@pytest.fixture(scope="module")
def workload():
    """A fitted forecast for RobustScaler-HP and its test trace (about 650 queries)."""
    arrivals = sample_homogeneous_arrivals(0.4, 5400.0, 4)
    trace = ArrivalTrace(arrivals, 10.0, name="derivation", horizon=5400.0)
    return prepare_workload(trace, train_fraction=0.7, bin_seconds=60.0, pending_time=9.0)


def _policies(workload):
    def robustscaler_hp():
        return RobustScaler(
            workload.forecast,
            workload.pending_model,
            objective=RobustScalerObjective.HIT_PROBABILITY,
            target=0.9,
            planner=PlannerConfig(planning_interval=10.0, monte_carlo_samples=60),
            random_state=11,
        )

    return {
        "reactive": ReactiveScaler,
        "bp4": lambda: BackupPoolScaler(4),
        "adapbp2": lambda: AdaptiveBackupPoolScaler(2.0, update_interval=120.0),
        "rs-hp": robustscaler_hp,
    }


_PENDING_MODELS = {
    "deterministic": DeterministicPendingTime(9.0),
    "uniform": UniformPendingTime(4.0, 14.0),
    "exponential": ExponentialPendingTime(9.0),
}


@pytest.mark.parametrize("policy", ["reactive", "bp4", "adapbp2", "rs-hp"])
@pytest.mark.parametrize("pending", sorted(_PENDING_MODELS))
@pytest.mark.parametrize("latency", [0.0, 0.5])
def test_derived_columns_equal_the_oracle(workload, policy, pending, latency):
    config = SimulationConfig(pending_time=9.0, scheduling_latency=latency, seed=5)
    reference, _ = _check_derivation(
        workload.test, _policies(workload)[policy], config, _PENDING_MODELS[pending]
    )
    if policy != "reactive":
        assert reference.hits.any() and not reference.hits.all()


@pytest.mark.parametrize("policy", ["reactive", "bp4", "adapbp2", "rs-hp"])
def test_charged_decision_latency(workload, policy, monkeypatch):
    """Table IV's path, under a clock that both engines read alike."""
    ticks = itertools.count()
    monkeypatch.setattr(time, "perf_counter", lambda: next(ticks) * 2.0**-10)
    config = SimulationConfig(
        pending_time=9.0, scheduling_latency=0.5, charge_decision_latency=True, seed=6
    )
    _check_derivation(
        workload.test, _policies(workload)[policy], config, _PENDING_MODELS["uniform"]
    )


#: Columns a result shares with the replayed trace or keeps per policy call.
_NOT_PER_QUERY_OUTCOMES = ("arrival_times", "processing_times", "planning_times")


@pytest.mark.parametrize(
    "engine_cls", [ScalingPerQuerySimulator, BatchedEventSimulator], ids=["reference", "batched"]
)
@pytest.mark.parametrize("policy", ["reactive", "bp4", "rs-hp"])
def test_a_result_owns_at_most_26_bytes_per_query(workload, engine_cls, policy):
    """Three float64 and two bool columns: creation, start, pending, hit, proactive."""
    trace = workload.test
    config = SimulationConfig(pending_time=9.0, scheduling_latency=0.5, seed=5)
    result = engine_cls(config).replay(trace, _policies(workload)[policy]())
    assert np.shares_memory(result.arrival_times, trace.arrival_times)
    assert np.shares_memory(result.processing_times, trace.processing_times)
    # Reading the derived columns must not leave them stored on the result.
    for derived in ("ready_times", "waiting_times", "response_times", "idle_times"):
        assert getattr(result, derived).shape == (trace.n_queries,)
    owned = {
        name: value.nbytes
        for name, value in vars(result).items()
        if isinstance(value, np.ndarray) and name not in _NOT_PER_QUERY_OUTCOMES
    }
    assert sum(owned.values()) <= 26 * result.n_queries, owned
