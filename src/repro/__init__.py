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
  aliases for the paper traces), and a ``repro workloads list|generate``
  CLI;
* a parallel evaluation runtime (:mod:`repro.runtime`): experiment sweeps
  expressed as declarative, picklable tasks, executed serially or on a
  process pool (``--workers`` / ``REPRO_WORKERS``) with bit-identical
  result rows, deterministic per-task seeding via
  ``numpy.random.SeedSequence.spawn``, and a workload-preparation cache
  that fits each workload model once per sweep;
* a unified declarative experiment API (:mod:`repro.api`): every
  experiment registered once as an ``ExperimentSpec`` (typed parameter
  schema, task-batch builder, result schema), run by name through
  :class:`~repro.api.Session` — ``Session(workers=4).run("pareto",
  trace_names="google")`` — into a typed ``ResultSet`` (columnar rows +
  provenance), and ``repro experiment`` CLI subcommands generated from the
  registry.

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

Every public name resolves on first access (PEP 562), so ``import repro``
and ``import repro.cli`` load only the submodules a command uses.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ._lazy import lazy_exports

__version__ = "1.0.0"

#: Public name -> the submodule that defines it, imported on first access.
_EXPORTS = {
    # configuration
    "ADMMConfig": ".config",
    "NHPPConfig": ".config",
    "PlannerConfig": ".config",
    "SimulationConfig": ".config",
    # exceptions
    "RobustScalerError": ".exceptions",
    "ConfigurationError": ".exceptions",
    "ValidationError": ".exceptions",
    "TraceError": ".exceptions",
    "PeriodicityDetectionError": ".exceptions",
    "ModelNotFittedError": ".exceptions",
    "ConvergenceError": ".exceptions",
    "InfeasibleConstraintError": ".exceptions",
    "SimulationError": ".exceptions",
    "PlanningError": ".exceptions",
    "WorkloadError": ".exceptions",
    # data types
    "ArrivalTrace": ".types",
    "QPSSeries": ".types",
    "ScalingAction": ".types",
    "SimulationResult": ".types",
    # workload modeling
    "NHPPModel": ".nhpp",
    "PiecewiseConstantIntensity": ".nhpp",
    "PeriodicityDetector": ".periodicity",
    # pending-time models
    "PendingTimeModel": ".pending",
    "DeterministicPendingTime": ".pending",
    "UniformPendingTime": ".pending",
    "ExponentialPendingTime": ".pending",
    # autoscalers
    "Autoscaler": ".scaling",
    "BackupPoolScaler": ".scaling",
    "ReactiveScaler": ".scaling",
    "AdaptiveBackupPoolScaler": ".scaling",
    "RobustScaler": ".scaling",
    "RobustScalerObjective": ".scaling",
    "SequentialHPScaler": ".scaling",
    # simulation
    "ScalingPerQuerySimulator": ".simulation",
    "replay": ".simulation",
    # traces
    "generate_crs_like_trace": ".traces",
    "generate_google_like_trace": ".traces",
    "generate_alibaba_like_trace": ".traces",
    "generate_trace_from_intensity": ".traces",
    # evaluation runtime
    "EvalTask": ".runtime",
    "ScalerSpec": ".runtime",
    "WorkloadCache": ".runtime",
    "WorkloadSpec": ".runtime",
    "run_tasks": ".runtime",
    # workload scenarios
    "Scenario": ".workloads",
    "ScenarioRegistry": ".workloads",
    "register_scenario": ".workloads",
    "get_scenario": ".workloads",
    "list_scenarios": ".workloads",
    "scenario_names": ".workloads",
    # declarative experiment API
    "Session": ".api",
    "list_experiments": ".api",
}

__all__ = ["__version__", *_EXPORTS]

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

if TYPE_CHECKING:  # pragma: no cover - static view of the lazy names
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
    from .types import ArrivalTrace, QPSSeries, ScalingAction, SimulationResult
    from .nhpp import NHPPModel, PiecewiseConstantIntensity
    from .periodicity import PeriodicityDetector
    from .pending import (
        DeterministicPendingTime,
        ExponentialPendingTime,
        PendingTimeModel,
        UniformPendingTime,
    )
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
        ScalerSpec,
        WorkloadCache,
        WorkloadSpec,
        run_tasks,
    )
    from .workloads import (
        Scenario,
        ScenarioRegistry,
        get_scenario,
        list_scenarios,
        register_scenario,
        scenario_names,
    )
    from .api import Session, list_experiments
