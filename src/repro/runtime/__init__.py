"""Unified evaluation runtime for the experiment drivers.

Every headline artifact of the paper — Pareto frontiers, ablation tables,
perturbation grids — is a Cartesian sweep of {workload x scaler x
parameter}.  This package turns one point of such a sweep into a
declarative, picklable :class:`~repro.runtime.spec.EvalTask` and executes
batches of tasks behind a single interface:

* :func:`~repro.runtime.executor.run_tasks` — evaluate a task list either
  serially or on a :class:`concurrent.futures.ProcessPoolExecutor`
  (``workers=N``, or the ``REPRO_WORKERS`` environment override), producing
  bit-identical result rows either way;
* :class:`~repro.runtime.cache.WorkloadCache` — a workload-preparation
  cache so a trace is generated and its NHPP model fitted once per
  (scenario, scale, seed, prep-config) key and shared across all sweep
  points;
* deterministic per-task seeding via ``numpy.random.SeedSequence.spawn``,
  so results depend only on the task list and the base seed, never on
  execution order or worker count.

The experiment drivers in :mod:`repro.experiments`, the CLI and the
benchmarks all route through this layer.
"""

from .cache import CacheStats, WorkloadCache
from .executor import (
    execute_task,
    resolve_workers,
    run_task_rows,
    run_tasks,
    strip_timing,
)
from .spec import (
    SCALER_KINDS,
    EvalResult,
    EvalTask,
    FunctionTask,
    PrepSpec,
    ScalerSpec,
    WorkloadSpec,
    derive_task_seeds,
)
from .workload import PreparedWorkload, evaluate_prepared, prepare_workload

__all__ = [
    "SCALER_KINDS",
    "CacheStats",
    "EvalResult",
    "EvalTask",
    "FunctionTask",
    "PrepSpec",
    "PreparedWorkload",
    "ScalerSpec",
    "WorkloadCache",
    "WorkloadSpec",
    "derive_task_seeds",
    "evaluate_prepared",
    "execute_task",
    "prepare_workload",
    "resolve_workers",
    "run_task_rows",
    "run_tasks",
    "strip_timing",
]
