"""Differential tests: the batched engine must be bit-compatible with the reference.

Every assertion here compares full :class:`~repro.types.SimulationResult`
rows — hit flags, waiting times, instance lifecycles, pending draws, unused
cost and planning-call counts — between
:class:`~repro.simulation.engine.ScalingPerQuerySimulator` (the semantics,
kept as the oracle) and
:class:`~repro.simulation.fastengine.BatchedEventSimulator` (the engine every
product replay runs on), with its passive-chunk, top-up-chunk and per-query
hook paths.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import replace

import numpy as np
import pytest

from repro.config import PlannerConfig, SimulationConfig
from repro.nhpp.intensity import PiecewiseConstantIntensity
from repro.nhpp.sampling import sample_homogeneous_arrivals
from repro.pending import DeterministicPendingTime, ExponentialPendingTime
from repro.runtime import ScalerSpec, evaluate_prepared, prepare_workload
from repro.scaling.adaptive_backup_pool import AdaptiveBackupPoolScaler
from repro.scaling.backup_pool import BackupPoolScaler, ReactiveScaler
from repro.scaling.base import Autoscaler, ScalingResponse
from repro.scaling.robustscaler import RobustScaler, RobustScalerObjective
from repro.scaling.sequential import SequentialHPScaler
from repro.simulation import (
    BatchedEventSimulator,
    ScalingPerQuerySimulator,
    create_simulator,
)
from repro.types import ArrivalTrace, ScalingAction
from repro.workloads import get_scenario, list_scenarios


#: Result columns compared bit-for-bit between the engines.
_COLUMNS = (
    "hits",
    "waiting_times",
    "response_times",
    "creation_times",
    "ready_times",
    "start_times",
    "deletion_times",
    "pending_times",
    "proactive_flags",
    "lifecycle_costs",
)


def assert_engine_parity(trace, scaler_factory, config, *, pending_model=None):
    """Replay under the reference and the batched engine; assert bit-identical results."""
    reference = ScalingPerQuerySimulator(config, pending_model=pending_model).replay(
        trace, scaler_factory()
    )
    fast = BatchedEventSimulator(config, pending_model=pending_model).replay(
        trace, scaler_factory()
    )
    for column in _COLUMNS:
        np.testing.assert_array_equal(
            getattr(reference, column),
            getattr(fast, column),
            err_msg=f"column {column!r} diverged",
        )
    assert reference.unused_instance_cost == fast.unused_instance_cost
    assert reference.n_unused_instances == fast.n_unused_instances
    assert len(reference.planning_times) == len(fast.planning_times)
    assert reference.planning_times.dtype == fast.planning_times.dtype == np.float64
    assert reference.n_queries == fast.n_queries
    assert reference.total_cost == fast.total_cost
    return reference, fast


class SchedulingScaler(Autoscaler):
    """Tick policy exercising scheduled creations, cancels and scale-ins."""

    name = "SchedulingScaler"

    def __init__(self, interval: float, lookahead: float, burst: int = 2) -> None:
        self._interval = interval
        self._lookahead = lookahead
        self._burst = burst

    @property
    def planning_interval(self) -> float:
        return self._interval

    def on_planning_tick(self, context) -> ScalingResponse:
        actions = [
            ScalingAction(
                creation_time=context.time + self._lookahead * (k + 1) / self._burst,
                planned_at=context.time,
            )
            for k in range(self._burst)
        ]
        return ScalingResponse(
            actions=actions,
            cancel_scheduled=1 if context.scheduled_creations > 3 else 0,
            scale_in=1 if context.created_unassigned > 2 else 0,
        )


class FixedPlanScaler(Autoscaler):
    """Creates instances at a fixed list of absolute times."""

    name = "FixedPlan"

    def __init__(self, creation_times) -> None:
        self._creation_times = list(creation_times)

    def initialize(self, context) -> ScalingResponse:
        actions = [
            ScalingAction(creation_time=t, planned_at=0.0) for t in self._creation_times
        ]
        return ScalingResponse(actions=actions)


def _poisson_trace(rate=0.6, horizon=1800.0, seed=5, processing=9.0):
    arrivals = sample_homogeneous_arrivals(rate, horizon, seed)
    return ArrivalTrace(arrivals, processing, name="parity", horizon=horizon)


class TestScenarioRegistryParity:
    """Replay every registered scenario under both engines."""

    @pytest.mark.parametrize(
        "scenario_name", [scenario.name for scenario in list_scenarios()]
    )
    def test_registry_scenario_parity(self, scenario_name):
        scenario = get_scenario(scenario_name)
        trace = scenario.build_trace(scale=0.02, seed=3)
        config = SimulationConfig(pending_time=scenario.pending_time, seed=3)
        for factory in (ReactiveScaler, lambda: BackupPoolScaler(2)):
            assert_engine_parity(trace, factory, config)

    @pytest.mark.parametrize("seed", [3, 11])
    def test_pareto_bursts_parity_across_seeds(self, seed):
        scenario = get_scenario("pareto-bursts")
        trace = scenario.build_trace(scale=0.03, seed=seed)
        config = SimulationConfig(
            pending_time=scenario.pending_time, pending_time_jitter=2.0, seed=seed
        )
        for factory in (
            ReactiveScaler,
            lambda: AdaptiveBackupPoolScaler(15.0, update_interval=120.0),
            lambda: SchedulingScaler(45.0, 60.0),
        ):
            assert_engine_parity(trace, factory, config)


class TestConfigurationGridParity:
    """Jitter, scheduling latency, planning intervals, latency charging."""

    @pytest.mark.parametrize(
        "jitter,latency",
        [(0.0, 0.0), (4.0, 0.0), (0.0, 1.5), (4.0, 1.5)],
    )
    def test_jitter_and_scheduling_latency(self, jitter, latency):
        trace = _poisson_trace()
        config = SimulationConfig(
            pending_time=8.0,
            pending_time_jitter=jitter,
            scheduling_latency=latency,
            seed=7,
        )
        for factory in (
            ReactiveScaler,
            lambda: BackupPoolScaler(3),
            lambda: SchedulingScaler(20.0, 30.0),
        ):
            assert_engine_parity(trace, factory, config)

    @pytest.mark.parametrize("interval", [5.0, 17.0, 300.0])
    def test_planning_interval_grid(self, interval):
        trace = _poisson_trace(rate=0.4, horizon=2400.0, seed=2)
        config = SimulationConfig(pending_time=10.0, seed=2)
        assert_engine_parity(
            trace, lambda: SchedulingScaler(interval, interval * 1.5, burst=3), config
        )

    def test_exponential_pending_model(self):
        """Bulk draws must be stream-prefix-stable for the ziggurat sampler too."""
        trace = _poisson_trace(seed=9)
        config = SimulationConfig(pending_time=8.0, seed=4)
        model = ExponentialPendingTime(6.0)
        for factory in (ReactiveScaler, lambda: SchedulingScaler(30.0, 40.0)):
            assert_engine_parity(trace, factory, config, pending_model=model)

    def test_charge_decision_latency_with_deterministic_clock(self, monkeypatch):
        """With a deterministic clock, charged latency is engine-independent."""
        ticks = itertools.count()
        # A power-of-two step makes consecutive differences exactly equal, so
        # the charged latency is the same constant no matter how many clock
        # reads an engine performs before a given hook.
        step = 2.0**-10

        def fake_perf_counter() -> float:
            return next(ticks) * step

        monkeypatch.setattr(time, "perf_counter", fake_perf_counter)
        trace = _poisson_trace(rate=0.3, horizon=1200.0, seed=6)
        config = SimulationConfig(
            pending_time=5.0, charge_decision_latency=True, seed=6
        )
        for factory in (
            ReactiveScaler,
            lambda: BackupPoolScaler(2),
            lambda: SchedulingScaler(30.0, 20.0),
        ):
            assert_engine_parity(trace, factory, config)


class TestEdgeCaseParity:
    def test_empty_trace(self):
        trace = ArrivalTrace([], [], horizon=500.0)
        config = SimulationConfig(pending_time=5.0)
        reference, batched = assert_engine_parity(
            trace, lambda: FixedPlanScaler([0.0, 10.0]), config
        )
        # The immediate creation at t=0 idles until the horizon; the one
        # scheduled for t=10 never materializes because no event reaches it.
        assert reference.unused_instance_cost == pytest.approx(500.0)
        assert batched.n_unused_instances == 1

    def test_arrival_at_time_zero(self):
        trace = ArrivalTrace([0.0, 0.0, 5.0], [2.0, 2.0, 2.0], horizon=60.0)
        config = SimulationConfig(pending_time=3.0)
        assert_engine_parity(trace, lambda: FixedPlanScaler([0.0]), config)

    def test_simultaneous_ready_tiebreaks(self):
        """Deterministic pending times create ready-time ties; the creation
        order (tiebreak counter) must decide identically in both engines."""
        trace = ArrivalTrace([20.0, 20.0, 20.0, 21.0], 1.0, horizon=60.0)
        config = SimulationConfig(pending_time=10.0)
        assert_engine_parity(
            trace, lambda: FixedPlanScaler([0.0, 0.0, 0.0, 5.0]), config
        )

    def test_reactive_cold_start_cancels_scheduled(self):
        # Arrivals before any scheduled creation exists force cold starts
        # that cancel the earliest outstanding scheduled creations.
        trace = ArrivalTrace([1.0, 2.0, 3.0, 50.0], 2.0, horizon=200.0)
        config = SimulationConfig(pending_time=4.0)
        assert_engine_parity(
            trace, lambda: FixedPlanScaler([40.0, 45.0, 110.0]), config
        )


def _spin_one_clock_tick() -> None:
    """Busy-wait until ``perf_counter`` moves, so a timed call reads > 0."""
    started = time.perf_counter()
    while time.perf_counter() == started:
        pass


class ClockedTickScaler(Autoscaler):
    """Passive tick policy whose every call takes a nonzero measured time."""

    name = "ClockedTick"

    def __init__(self, interval: float) -> None:
        self._interval = interval

    @property
    def planning_interval(self) -> float:
        return self._interval

    def initialize(self, context) -> ScalingResponse:
        _spin_one_clock_tick()
        return ScalingResponse.empty()

    def on_planning_tick(self, context) -> ScalingResponse:
        _spin_one_clock_tick()
        return ScalingResponse.create_now(context.time, 1)


class TestPlanningTimeColumn:
    def test_passive_arrivals_read_exact_zeros_between_measured_calls(self):
        trace = _poisson_trace(rate=0.6, horizon=300.0)
        reference, batched = assert_engine_parity(
            trace, lambda: ClockedTickScaler(10.0), SimulationConfig(pending_time=5.0)
        )
        # Entry layout in both engines: initialize, then per arrival the
        # ticks due at or before it followed by the arrival's own entry.
        arrivals = trace.arrival_times
        ticks_before = np.floor(arrivals / 10.0).astype(int)
        arrival_entries = 1 + np.arange(arrivals.size) + ticks_before
        assert batched.planning_times.size == 1 + arrivals.size + ticks_before[-1]
        calls = np.ones(batched.planning_times.size, dtype=bool)
        calls[arrival_entries] = False
        assert np.all(batched.planning_times[arrival_entries] == 0.0)
        assert np.all(batched.planning_times[calls] > 0.0)
        assert np.all(reference.planning_times[calls] > 0.0)


class TestRobustScalerParity:
    def test_robustscaler_hp_parity(self):
        arrivals = sample_homogeneous_arrivals(0.4, 5400.0, 4)
        trace = ArrivalTrace(arrivals, 10.0, name="rs-parity", horizon=5400.0)
        workload = prepare_workload(
            trace, train_fraction=0.7, bin_seconds=60.0, pending_time=9.0
        )
        config = SimulationConfig(pending_time=9.0, seed=2)

        def factory():
            return RobustScaler(
                workload.forecast,
                workload.pending_model,
                objective=RobustScalerObjective.HIT_PROBABILITY,
                target=0.9,
                planner=PlannerConfig(planning_interval=5.0, monte_carlo_samples=60),
                random_state=11,
            )

        assert_engine_parity(workload.test, factory, config)


class TestSequentialHPParity:
    """Algorithm 4 overrides the arrival hook, so it replays per query."""

    @pytest.mark.parametrize("jitter", [0.0, 3.0], ids=["deterministic", "jitter"])
    def test_sequential_hp_parity(self, jitter):
        from repro.telemetry import Recorder, use

        trace = _poisson_trace(rate=0.3, horizon=1200.0, seed=14)
        config = SimulationConfig(pending_time=9.0, pending_time_jitter=jitter, seed=14)

        def factory():
            return SequentialHPScaler(
                PiecewiseConstantIntensity(np.array([0.3]), 60.0, extrapolation="hold"),
                DeterministicPendingTime(9.0),
                target_hit_probability=0.85,
                planning_every=3,
                planner=PlannerConfig(monte_carlo_samples=50),
                random_state=14,
            )

        reference, _ = assert_engine_parity(trace, factory, config)
        assert reference.proactive_flags.any()
        with use(Recorder()) as recorder:
            BatchedEventSimulator(config).replay(trace, factory())
        counters = recorder.snapshot()["counters"]
        assert counters["engine.batched.hook_arrivals"] == trace.n_queries


class BurstyHookScaler(Autoscaler):
    """Overridden arrival hook: every 5th arrival adds an instance.

    Forces :class:`BatchedEventSimulator` onto the per-query hook path for
    the whole replay.
    """

    name = "BurstyHook"

    def on_query_arrival(self, context) -> ScalingResponse:
        if context.n_arrivals % 5 == 0:
            return ScalingResponse.create_now(context.time, 1)
        return ScalingResponse.empty()


class ScheduledTopUpScaler(BackupPoolScaler):
    """BP's arrival rule plus ticks that schedule *future* creations.

    While a scheduled creation is outstanding a top-up chunk's empty-queue
    precondition fails, so arrivals go through the per-query hook; once the
    creation materializes top-up chunks resume.  Exercises the
    interleaving of the dispatch outcomes within one replay.
    """

    name = "ScheduledTopUp"

    @property
    def planning_interval(self) -> float:
        return 120.0

    def on_planning_tick(self, context) -> ScalingResponse:
        return ScalingResponse(
            actions=[
                ScalingAction(
                    creation_time=context.time + 30.0, planned_at=context.time
                )
            ]
        )


class OverPoolScaler(BackupPoolScaler):
    """BP whose overridden hook keeps one instance more than ``arrival_target``."""

    name = "OverPool"

    def on_query_arrival(self, context) -> ScalingResponse:
        deficit = self.arrival_target + 1 - context.outstanding_instances
        if deficit > 0:
            return ScalingResponse.create_now(context.time, deficit)
        return ScalingResponse.empty()


def _dispatch_counters(trace, scaler, config, pending_model=None) -> dict:
    """Counters of one batched replay, checked for the three-way partition."""
    from repro.telemetry import Recorder, use

    with use(Recorder()) as recorder:
        BatchedEventSimulator(config, pending_model=pending_model).replay(trace, scaler)
    counters = recorder.snapshot()["counters"]
    assert (
        counters["engine.batched.passive_arrivals"]
        + counters["engine.kernel.arrivals"]
        + counters["engine.batched.hook_arrivals"]
        == trace.n_queries
    )
    return counters


class TestKernelDispatch:
    """How the batched engine serves each arrival: passive chunk, top-up
    chunk or per-query hook."""

    @pytest.mark.parametrize("jitter", [0.0, 2.0], ids=["deterministic", "jitter"])
    def test_overridden_hook_replays_per_query(self, jitter):
        """A BP subclass that overrides the hook is not served from
        ``arrival_target``: every arrival goes through its own hook."""
        trace = _poisson_trace(rate=0.5, horizon=1500.0, seed=8)
        config = SimulationConfig(pending_time=7.0, pending_time_jitter=jitter, seed=8)
        reference, _ = assert_engine_parity(trace, lambda: OverPoolScaler(2), config)
        plain, _ = assert_engine_parity(trace, lambda: BackupPoolScaler(2), config)
        # The override's extra instance is visible in the outcome.
        assert reference.n_unused_instances == plain.n_unused_instances + 1
        counters = _dispatch_counters(trace, OverPoolScaler(2), config)
        assert counters["engine.batched.hook_arrivals"] == trace.n_queries
        assert counters["engine.kernel.chunks"] == 0

    def test_policy_without_kernel_falls_back_silently(self):
        """A policy that overrides the hook must replay identically (hook path)."""
        trace = _poisson_trace(rate=0.5, horizon=1500.0, seed=8)
        config = SimulationConfig(pending_time=7.0, seed=8)
        assert_engine_parity(trace, BurstyHookScaler, config)

    def test_fallback_is_counted(self):
        from repro.telemetry import Recorder, use

        trace = _poisson_trace(rate=0.5, horizon=900.0, seed=8)
        config = SimulationConfig(pending_time=7.0, seed=8)
        with use(Recorder()) as recorder:
            BatchedEventSimulator(config).replay(trace, BurstyHookScaler())
        counters = recorder.snapshot()["counters"]
        assert counters["engine.kernel.chunks"] == 0
        assert counters["engine.batched.hook_arrivals"] == trace.n_queries

    def test_scheduled_creations_interleave_with_kernel_chunks(self):
        """Top-up chunks must pause while scheduled creations are in flight."""
        trace = _poisson_trace(rate=0.5, horizon=2400.0, seed=12)
        for jitter in (0.0, 2.0):
            config = SimulationConfig(
                pending_time=6.0, pending_time_jitter=jitter, seed=12
            )
            assert_engine_parity(trace, lambda: ScheduledTopUpScaler(2), config)

    def test_mixed_dispatch_counters_partition_arrivals(self):
        from repro.telemetry import Recorder, use

        trace = _poisson_trace(rate=0.5, horizon=2400.0, seed=12)
        config = SimulationConfig(pending_time=6.0, seed=12)
        with use(Recorder()) as recorder:
            BatchedEventSimulator(config).replay(trace, ScheduledTopUpScaler(2))
        counters = recorder.snapshot()["counters"]
        assert counters["engine.kernel.chunks"] >= 1
        assert counters["engine.batched.hook_arrivals"] >= 1
        assert (
            counters["engine.kernel.arrivals"]
            + counters["engine.batched.hook_arrivals"]
            == trace.n_queries
        )

    def test_charged_latency_disables_the_kernel_tier(self):
        """Charged decision latency turns create-now into scheduled creations,
        which top-up chunks do not model — they must switch off entirely."""
        from repro.telemetry import Recorder, use

        trace = _poisson_trace(rate=0.4, horizon=600.0, seed=3)
        config = SimulationConfig(
            pending_time=6.0, charge_decision_latency=True, seed=3
        )
        with use(Recorder()) as recorder:
            BatchedEventSimulator(config).replay(trace, BackupPoolScaler(2))
        counters = recorder.snapshot()["counters"]
        assert counters["engine.kernel.chunks"] == 0
        assert counters["engine.batched.hook_arrivals"] == trace.n_queries

    @pytest.mark.parametrize(
        "jitter, pending_model",
        [(3.0, None), (0.0, ExponentialPendingTime(6.0))],
        ids=["jitter", "exponential"],
    )
    @pytest.mark.parametrize(
        "factory",
        [lambda: BackupPoolScaler(4), lambda: AdaptiveBackupPoolScaler(2.0)],
        ids=["bp", "adapbp"],
    )
    def test_non_fifo_pending_replays_through_top_up_chunks(
        self, jitter, pending_model, factory
    ):
        """Non-deterministic pending models run the per-arrival top-up loop,
        not the hook path, and still match the reference bit for bit."""
        trace = _poisson_trace(rate=0.8, horizon=3600.0, seed=17)
        config = SimulationConfig(pending_time=6.0, pending_time_jitter=jitter, seed=17)
        reference, _ = assert_engine_parity(
            trace, factory, config, pending_model=pending_model
        )
        assert reference.hit_rate > 0.0
        counters = _dispatch_counters(trace, factory(), config, pending_model)
        assert counters["engine.kernel.arrivals"] > 0

    def test_passive_tier_outranks_the_kernel(self):
        """Reactive is BP(0): an arrival target of 0 is served as passive
        chunks, never as top-up chunks."""
        trace = _poisson_trace(rate=0.4, horizon=600.0, seed=3)
        config = SimulationConfig(pending_time=6.0, seed=3)
        counters = _dispatch_counters(trace, ReactiveScaler(), config)
        assert counters["engine.kernel.chunks"] == 0
        assert counters["engine.batched.passive_arrivals"] == trace.n_queries

    @pytest.mark.parametrize(
        "jitter, pending_model",
        [(0.0, None), (4.0, None), (0.0, ExponentialPendingTime(6.0))],
        ids=["deterministic", "jitter", "exponential"],
    )
    def test_one_arrival_chunks_take_the_hook_path(self, jitter, pending_model):
        """AdapBP ticking about once per arrival gap: tick intervals with a
        target of 0 are passive chunks; with a positive target, intervals
        holding a single arrival go to the hook, longer ones to top-up
        chunks."""
        trace = _poisson_trace(rate=0.5, horizon=1500.0, seed=21)
        config = SimulationConfig(pending_time=6.0, pending_time_jitter=jitter, seed=21)
        interval, window, factor = 2.0, 20.0, 2.0

        def factory():
            return AdaptiveBackupPoolScaler(
                factor, rate_window=window, update_interval=interval
            )

        assert_engine_parity(trace, factory, config, pending_model=pending_model)
        counters = _dispatch_counters(trace, factory(), config, pending_model)
        assert counters["engine.kernel.chunks"] >= 1
        assert counters["engine.batched.hook_arrivals"] > 0
        assert counters["engine.batched.passive_arrivals"] > 0
        # The target serving interval k was set by the tick at k * interval
        # from the arrivals in the trailing window (0 before the first tick).
        arrivals = trace.arrival_times
        slot = np.floor(arrivals / interval).astype(int)
        per_interval = np.bincount(slot)
        targets = np.zeros(per_interval.size, dtype=int)
        for k in range(1, per_interval.size):
            tick = k * interval
            seen = int(np.searchsorted(arrivals, tick, side="left"))
            first = int(np.searchsorted(arrivals[:seen], tick - window, side="left"))
            targets[k] = int(np.ceil((seen - first) / window * factor))
        topped = targets >= 1
        # Exactly one top-up chunk per interval with a positive target and
        # two or more arrivals, one hook call per such interval holding a
        # single arrival, and everything else passive.
        assert counters["engine.kernel.chunks"] == int(np.sum(topped & (per_interval >= 2)))
        assert counters["engine.batched.hook_arrivals"] == int(
            np.sum(topped & (per_interval == 1))
        )
        assert counters["engine.batched.passive_arrivals"] == int(
            per_interval[~topped].sum()
        )

    def test_single_arrival_trace_takes_the_hook_path(self):
        from repro.telemetry import Recorder, use

        trace = ArrivalTrace(np.array([3.0]), 9.0, name="one", horizon=10.0)
        config = SimulationConfig(pending_time=6.0, seed=4)
        assert_engine_parity(trace, lambda: BackupPoolScaler(2), config)
        with use(Recorder()) as recorder:
            BatchedEventSimulator(config).replay(trace, BackupPoolScaler(2))
        counters = recorder.snapshot()["counters"]
        assert counters["engine.kernel.chunks"] == 0
        assert counters["engine.batched.hook_arrivals"] == 1

    def test_default_engine_serves_bp_through_the_kernel(self):
        """BP on the default engine never dispatches its arrival hook."""
        from repro.telemetry import Recorder, use

        trace = _poisson_trace(rate=0.5, horizon=1500.0, seed=9)
        config = SimulationConfig(pending_time=6.0, pending_time_jitter=2.0, seed=9)
        with use(Recorder()) as recorder:
            create_simulator(config).replay(trace, BackupPoolScaler(3))
        counters = recorder.snapshot()["counters"]
        assert counters["engine.batched.hook_arrivals"] == 0
        assert counters["engine.kernel.arrivals"] == trace.n_queries


class TestEngineSelection:
    """The one engine selector: config validation and the factory mapping."""

    def test_config_rejects_unknown_engine(self):
        from repro.exceptions import ConfigurationError

        for name in ("warp-drive", "kernel", None):
            with pytest.raises(ConfigurationError):
                SimulationConfig(engine=name)

    def test_factory_maps_names_to_engines(self):
        assert isinstance(
            create_simulator(SimulationConfig(engine="reference")),
            ScalingPerQuerySimulator,
        )
        assert isinstance(
            create_simulator(SimulationConfig(engine="batched")), BatchedEventSimulator
        )
        # No engine specified -> the batched default.
        assert isinstance(create_simulator(), BatchedEventSimulator)

    def test_config_defaults_to_the_batched_engine(self):
        from repro.simulation.runner import DEFAULT_ENGINE, ENGINES

        assert set(ENGINES) == {"reference", "batched"}
        assert SimulationConfig().engine == DEFAULT_ENGINE == "batched"

    def test_prepare_workload_engine_override(self):
        trace = _poisson_trace(rate=0.2, horizon=1200.0)
        assert prepare_workload(trace).simulation.engine == "batched"
        workload = prepare_workload(trace, engine="reference")
        assert workload.simulation.engine == "reference"

    def test_runtime_rows_identical_across_engines(self):
        """Evaluation rows are the same whichever engine replays."""
        scenario = get_scenario("steady-state")
        trace = scenario.build_trace(scale=0.02, seed=3)
        workload = prepare_workload(trace, **scenario.simulator_defaults)
        specs = (
            ScalerSpec("reactive"),
            ScalerSpec("bp", 2),
            ScalerSpec("rs-hp", 0.9, planning_interval=10.0, monte_carlo_samples=60),
        )

        def rows_for(simulation):
            replayed = replace(workload, simulation=simulation)
            return [
                evaluate_prepared(replayed, spec.build(replayed, random_state=3))
                for spec in specs
            ]

        reference = replace(workload.simulation, engine="reference")
        assert rows_for(workload.simulation) == rows_for(reference)
