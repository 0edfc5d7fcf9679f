"""RobustScaler: QoS-aware proactive autoscaling for scaling-per-query workloads.

This package is a from-scratch reproduction of *RobustScaler: QoS-Aware
Autoscaling for Complex Workloads* (Qian et al., ICDE 2022).  It provides:

* a regularized non-homogeneous Poisson process (NHPP) workload model with
  robust periodicity detection and a specialized ADMM fitter
  (:mod:`repro.nhpp`, :mod:`repro.periodicity`);
* stochastically constrained scaling optimization — HP-, RT- and
  cost-constrained decision rules plus the sequential scaling scheme
  (:mod:`repro.optimization`, :mod:`repro.scaling`);
* heuristic baselines (Backup Pool, Adaptive Backup Pool) and a
  discrete-event simulator of the scaling-per-query dynamics
  (:mod:`repro.simulation`);
* synthetic trace generators, metrics, and an experiment harness that
  regenerates every table and figure of the paper's evaluation section
  (:mod:`repro.traces`, :mod:`repro.metrics`, :mod:`repro.experiments`);
* a composable workload-scenario subsystem (:mod:`repro.workloads`):
  intensity primitives that combine algebraically, a registry of named,
  seed-reproducible scenarios (flash crowds, diurnal/weekly seasonality,
  launches, sale events, batch bursts, multi-tenant mixes, outages, plus
  aliases for the paper traces), and a ``repro workloads list|generate|sweep``
  CLI that evaluates the autoscalers across the whole registry;
* a parallel evaluation runtime (:mod:`repro.runtime`): experiment sweeps
  expressed as declarative, picklable tasks, executed serially or on a
  process pool (``--workers`` / ``REPRO_WORKERS``) with bit-identical
  result rows, deterministic per-task seeding via
  ``numpy.random.SeedSequence.spawn``, and a workload-preparation cache
  that fits each workload model once per sweep;
* a unified declarative experiment API (:mod:`repro.api`): every
  experiment registered once as an ``ExperimentSpec`` (typed parameter
  schema, task-batch builder, result schema), driven by the fluent
  :class:`~repro.api.Session` facade — ``Session(workers=4)
  .experiment("pareto").scenario("google").run()`` — with the batched
  replay engine as the default, a typed ``ResultSet`` (columnar rows +
  provenance), and ``repro experiment`` CLI subcommands generated from
  the registry.

Quickstart
----------
>>> from repro import (NHPPModel, RobustScaler, DeterministicPendingTime,
...                    generate_crs_like_trace, replay)        # doctest: +SKIP
>>> trace = generate_crs_like_trace()                          # doctest: +SKIP
>>> train, test = trace.split(0.75)                            # doctest: +SKIP
>>> model = NHPPModel().fit(train)                             # doctest: +SKIP
>>> scaler = RobustScaler.from_model(model, DeterministicPendingTime(13.0),
...                                  target=0.9)               # doctest: +SKIP
>>> result = replay(test, scaler)                              # doctest: +SKIP
>>> result.hit_rate                                            # doctest: +SKIP
"""

from .config import ADMMConfig, NHPPConfig, PlannerConfig, SimulationConfig
from .exceptions import (
    ConfigurationError,
    ConvergenceError,
    InfeasibleConstraintError,
    ModelNotFittedError,
    PeriodicityDetectionError,
    PlanningError,
    RobustScalerError,
    SimulationError,
    TraceError,
    ValidationError,
    WorkloadError,
)
from .nhpp import NHPPModel, PiecewiseConstantIntensity
from .pending import (
    DeterministicPendingTime,
    ExponentialPendingTime,
    PendingTimeModel,
    UniformPendingTime,
)
from .periodicity import PeriodicityDetector
from .scaling import (
    AdaptiveBackupPoolScaler,
    Autoscaler,
    BackupPoolScaler,
    ReactiveScaler,
    RobustScaler,
    RobustScalerObjective,
    SequentialHPScaler,
)
from .simulation import ScalingPerQuerySimulator, replay
from .traces import (
    generate_alibaba_like_trace,
    generate_crs_like_trace,
    generate_google_like_trace,
    generate_trace_from_intensity,
)
from .runtime import (
    EvalTask,
    PrepSpec,
    ScalerSpec,
    WorkloadCache,
    WorkloadSpec,
    run_task_rows,
    run_tasks,
)
from .types import ArrivalTrace, QPSSeries, ScalingAction, SimulationResult
from .workloads import (
    Scenario,
    ScenarioRegistry,
    get_scenario,
    list_scenarios,
    register_scenario,
    scenario_names,
)
from .api import Session, list_experiments, run_experiment

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # configuration
    "ADMMConfig",
    "NHPPConfig",
    "PlannerConfig",
    "SimulationConfig",
    # exceptions
    "RobustScalerError",
    "ConfigurationError",
    "ValidationError",
    "TraceError",
    "PeriodicityDetectionError",
    "ModelNotFittedError",
    "ConvergenceError",
    "InfeasibleConstraintError",
    "SimulationError",
    "PlanningError",
    "WorkloadError",
    # data types
    "ArrivalTrace",
    "QPSSeries",
    "ScalingAction",
    "SimulationResult",
    # workload modeling
    "NHPPModel",
    "PiecewiseConstantIntensity",
    "PeriodicityDetector",
    # pending-time models
    "PendingTimeModel",
    "DeterministicPendingTime",
    "UniformPendingTime",
    "ExponentialPendingTime",
    # autoscalers
    "Autoscaler",
    "BackupPoolScaler",
    "ReactiveScaler",
    "AdaptiveBackupPoolScaler",
    "RobustScaler",
    "RobustScalerObjective",
    "SequentialHPScaler",
    # simulation
    "ScalingPerQuerySimulator",
    "replay",
    # traces
    "generate_crs_like_trace",
    "generate_google_like_trace",
    "generate_alibaba_like_trace",
    "generate_trace_from_intensity",
    # evaluation runtime
    "EvalTask",
    "PrepSpec",
    "ScalerSpec",
    "WorkloadCache",
    "WorkloadSpec",
    "run_tasks",
    "run_task_rows",
    # workload scenarios
    "Scenario",
    "ScenarioRegistry",
    "register_scenario",
    "get_scenario",
    "list_scenarios",
    "scenario_names",
    # declarative experiment API
    "Session",
    "list_experiments",
    "run_experiment",
]
