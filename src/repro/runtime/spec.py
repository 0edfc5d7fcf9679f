"""Declarative evaluation specs: what to run, independent of how it runs.

An :class:`EvalTask` names one point of an experiment sweep — which workload
(:class:`WorkloadSpec`), which autoscaler (:class:`ScalerSpec`), and any row
annotations — as plain picklable data.  Because tasks carry no live objects
(no fitted models, no lambdas), the same task list can execute in-process or
on a process pool and produce identical rows.

Seeding: :func:`derive_task_seeds` spawns one child
:class:`numpy.random.SeedSequence` per task from the batch's base seed, so
every task owns an independent, reproducible Monte Carlo stream that does
not depend on execution order, worker count, or how many draws other tasks
consume.
"""

from __future__ import annotations

import hashlib
import importlib
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..config import PlannerConfig
from ..exceptions import ValidationError
from ..rng import RandomState
from ..scaling.adaptive_backup_pool import AdaptiveBackupPoolScaler
from ..scaling.backup_pool import BackupPoolScaler, ReactiveScaler
from ..scaling.base import Autoscaler
from ..scaling.robustscaler import RobustScaler, RobustScalerObjective
from ..types import ArrivalTrace
from .workload import PreparedWorkload, prepare_workload

__all__ = [
    "PrepSpec",
    "WorkloadSpec",
    "ScalerSpec",
    "EvalTask",
    "FunctionTask",
    "EvalResult",
    "derive_task_seeds",
    "SCALER_KINDS",
]

#: Every scaler kind :class:`ScalerSpec` builds, mapped to the report-row
#: column its sweep parameter lands in (override via ``parameter_name``).
SCALER_KINDS = {
    "reactive": None,
    "bp": "pool_size",
    "adapbp": "rate_factor",
    "rs-hp": "target_hp",
    "rs-rt": "waiting_budget",
    "rs-cost": "idle_budget",
}

_RS_OBJECTIVES = {
    "rs-hp": RobustScalerObjective.HIT_PROBABILITY,
    "rs-rt": RobustScalerObjective.RESPONSE_TIME,
    "rs-cost": RobustScalerObjective.COST,
}


@dataclass(frozen=True)
class PrepSpec:
    """Workload-preparation parameters; ``None`` fields fall back to defaults.

    For scenario-backed workloads the fallback is the scenario's own
    evaluation defaults (its train/test split, fitting bin width and pending
    time); for direct traces the fallback is the library defaults of
    :func:`repro.runtime.workload.prepare_workload`.
    """

    train_fraction: float | None = None
    bin_seconds: float | None = None
    pending_time: float | None = None

    def resolve(self, scenario=None) -> dict:
        """Concrete ``prepare_workload`` keyword arguments."""

        def pick(value, scenario_attr, default):
            if value is not None:
                return value
            if scenario is not None:
                return getattr(scenario, scenario_attr)
            return default

        return {
            "train_fraction": float(pick(self.train_fraction, "train_fraction", 0.75)),
            "bin_seconds": float(pick(self.bin_seconds, "bin_seconds", 60.0)),
            "pending_time": float(pick(self.pending_time, "pending_time", 13.0)),
        }

    def _key(self, scenario=None) -> tuple:
        return tuple(self.resolve(scenario).values())


def _trace_digest(trace: ArrivalTrace) -> str:
    """Content fingerprint so direct traces get stable cache keys."""
    digest = hashlib.blake2b(digest_size=16)
    digest.update(np.ascontiguousarray(trace.arrival_times).tobytes())
    digest.update(np.ascontiguousarray(trace.processing_times).tobytes())
    digest.update(repr((trace.name, trace.horizon)).encode())
    return digest.hexdigest()


@dataclass(frozen=True)
class WorkloadSpec:
    """How to obtain and prepare one workload.

    Exactly one of ``scenario`` (a name in the default scenario registry,
    regenerated deterministically wherever the task runs) and ``trace`` (a
    concrete :class:`~repro.types.ArrivalTrace`, e.g. a perturbed copy that
    exists nowhere in the registry) must be set.
    """

    scenario: str | None = None
    trace: ArrivalTrace | None = None
    scale: float = 1.0
    seed: int | None = None
    prep: PrepSpec = field(default_factory=PrepSpec)

    def __post_init__(self) -> None:
        if (self.scenario is None) == (self.trace is None):
            raise ValidationError(
                "WorkloadSpec requires exactly one of 'scenario' and 'trace'"
            )
        if not float(self.scale) > 0:
            raise ValidationError(f"scale must be positive, got {self.scale}")

    def cache_key(self) -> tuple:
        """The (workload identity, prep-config) key used by the cache."""
        if self.scenario is not None:
            identity: tuple = (
                "scenario",
                self.scenario.lower(),
                float(self.scale),
                self.seed,
            )
            scenario = self._get_scenario()
            # A CSV scenario's file digest: an edited file is a new workload.
            token = scenario.cache_token
            if token is not None:
                identity += (token,)
        else:
            identity = (
                "trace",
                self.trace.name,
                self.trace.n_queries,
                _trace_digest(self.trace),
            )
            scenario = None
        return identity + self.prep._key(scenario)

    def _get_scenario(self):
        from ..workloads import get_scenario

        return get_scenario(self.scenario)

    def build_trace(self) -> ArrivalTrace:
        """The raw trace this spec denotes (generated for scenario specs)."""
        if self.trace is not None:
            return self.trace
        scenario = self._get_scenario()
        return scenario.build_trace(scale=self.scale, seed=self.seed)

    def prepare(self, store=None) -> PreparedWorkload:
        """Generate the trace (if needed), fit the model, package everything.

        With a ``store``, scenario-backed specs fetch (or publish) the
        seeded trace realization through the store's ``traces`` namespace
        instead of re-sampling it — so a workload-cache miss still reuses
        the trace a driver already generated for grid derivation.
        """
        scenario = self._get_scenario() if self.scenario is not None else None
        if store is not None and scenario is not None:
            from ..store.traces import get_or_build_trace

            trace = get_or_build_trace(
                scenario, scale=self.scale, seed=self.seed, store=store
            )
        else:
            trace = self.build_trace()
        return prepare_workload(trace, **self.prep.resolve(scenario))


@dataclass(frozen=True)
class ScalerSpec:
    """A picklable recipe for one autoscaler.

    ``kind`` selects the family: ``reactive``, ``bp`` (Backup Pool, the
    parameter is the pool size), ``adapbp`` (Adaptive Backup Pool, rate
    factor), or the three RobustScaler variants ``rs-hp`` / ``rs-rt`` /
    ``rs-cost`` whose parameter is the constraint level.  RobustScaler specs
    also carry the planner settings; their Monte Carlo stream comes from the
    per-task seed at build time, never from the spec itself.
    """

    kind: str
    parameter: float | None = None
    parameter_name: str | None = None
    planning_interval: float = 2.0
    monte_carlo_samples: int = 400

    def __post_init__(self) -> None:
        if self.kind not in SCALER_KINDS:
            raise ValidationError(
                f"unknown scaler kind {self.kind!r}; expected one of "
                f"{sorted(SCALER_KINDS)}"
            )
        if self.kind != "reactive" and self.parameter is None:
            raise ValidationError(f"scaler kind {self.kind!r} requires a parameter")
        if not float(self.planning_interval) > 0:
            raise ValidationError(
                f"planning_interval must be positive, got {self.planning_interval}"
            )
        if int(self.monte_carlo_samples) < 1:
            raise ValidationError(
                f"monte_carlo_samples must be >= 1, got {self.monte_carlo_samples}"
            )

    @property
    def resolved_parameter_name(self) -> str | None:
        """Report-row column the sweep parameter lands in (None for reactive)."""
        if self.parameter_name is not None:
            return self.parameter_name
        return SCALER_KINDS[self.kind]

    def build(
        self, workload: PreparedWorkload, random_state: RandomState = None
    ) -> Autoscaler:
        """Construct the autoscaler against a prepared workload."""
        if self.kind == "reactive":
            return ReactiveScaler()
        if self.kind == "bp":
            return BackupPoolScaler(int(self.parameter))
        if self.kind == "adapbp":
            return AdaptiveBackupPoolScaler(float(self.parameter))
        planner = PlannerConfig(
            planning_interval=self.planning_interval,
            monte_carlo_samples=self.monte_carlo_samples,
        )
        return RobustScaler(
            workload.forecast,
            workload.pending_model,
            objective=_RS_OBJECTIVES[self.kind],
            target=float(self.parameter),
            planner=planner,
            random_state=random_state,
        )


def _task_digest(canonical: tuple) -> str:
    """Content digest of a task's canonical tuple (stable across processes).

    Delegates to the store's key hashing so there is exactly one
    canonical-repr-to-digest rule in the repository.
    """
    from ..store.artifacts import key_digest

    return key_digest(canonical)


@dataclass(frozen=True)
class EvalTask:
    """One sweep point: a workload, a scaler, and row annotations.

    ``extra`` is an ordered tuple of ``(column, value)`` pairs merged into
    the result row (scenario labels, perturbation sizes, sweep families).
    ``variance_window`` additionally requests the windowed QoS statistics of
    Fig. 5 in the row; ``metrics`` requests named extra metric columns (see
    :func:`repro.runtime.workload.evaluate_prepared`).
    """

    workload: WorkloadSpec
    scaler: ScalerSpec
    extra: tuple[tuple[str, Any], ...] = ()
    variance_window: int | None = None
    metrics: tuple[str, ...] = ()

    def row_annotations(self) -> dict:
        """The ``extra`` pairs plus the scaler's sweep parameter column."""
        annotations = dict(self.extra)
        name = self.scaler.resolved_parameter_name
        if name is not None and self.scaler.parameter is not None:
            annotations.setdefault(name, float(self.scaler.parameter))
        return annotations

    def group_key(self) -> tuple:
        """Scheduling key: tasks sharing it share one workload preparation."""
        return self.workload.cache_key()

    def digest(self) -> str:
        """Content fingerprint used by the resumable-run journal.

        Any change to the task — its workload identity (trace contents
        included, via the cache key's content hash), prep config, scaler,
        annotations or requested statistics — changes the digest, so stale
        journal records can never be replayed against a different task.
        """
        scaler = self.scaler
        return _task_digest(
            (
                "eval",
                self.workload.cache_key(),
                (
                    scaler.kind,
                    scaler.parameter,
                    scaler.parameter_name,
                    scaler.planning_interval,
                    scaler.monte_carlo_samples,
                ),
                self.extra,
                self.variance_window,
                self.metrics,
            )
        )


@dataclass(frozen=True)
class FunctionTask:
    """One grid point evaluated by a named top-level function.

    Some experiment grids are not a (workload, scaler) replay — ablation
    points fit an ADMM objective or time a Monte Carlo solver.  A
    ``FunctionTask`` names such a point as plain picklable data: the dotted
    path of a module-level callable plus its keyword arguments, so the same
    batch machinery (``run_tasks``: process pools, journaling, ordered
    results) applies to every driver.

    The callable must be importable wherever the task runs, accept exactly
    ``dict(kwargs)``, be deterministic in those arguments (seeds travel as
    explicit kwargs), and return one report-row dictionary.
    """

    fn: str
    kwargs: tuple[tuple[str, Any], ...] = ()
    extra: tuple[tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if "." not in self.fn:
            raise ValidationError(
                f"FunctionTask.fn must be a dotted module path, got {self.fn!r}"
            )

    def call(self) -> dict:
        """Import and invoke the target; returns its row plus ``extra``."""
        module_name, _, attr = self.fn.rpartition(".")
        target = getattr(importlib.import_module(module_name), attr)
        row = target(**dict(self.kwargs))
        if not isinstance(row, dict):
            raise ValidationError(
                f"{self.fn} returned {type(row).__name__}, expected a row dict"
            )
        if self.extra:
            row = {**dict(self.extra), **row}
        return row

    def group_key(self) -> tuple:
        """Scheduling key; function tasks share no preparation, so it is unique."""
        return ("function", self.fn, self.kwargs)

    def digest(self) -> str:
        """Content fingerprint used by the resumable-run journal."""
        return _task_digest(("function", self.fn, self.kwargs, self.extra))


@dataclass
class EvalResult:
    """The outcome of one executed task.

    ``row`` holds the deterministic report row; ``cache_hit``,
    ``wall_seconds`` and ``resumed`` are execution metadata (never part of
    the row, so rows stay bit-identical across executors).  ``resumed``
    marks results recovered from a run journal instead of executed.
    """

    index: int
    row: dict
    cache_hit: bool = False
    wall_seconds: float = 0.0
    resumed: bool = False


def derive_task_seeds(base_seed: int, n_tasks: int) -> list[np.random.SeedSequence]:
    """Spawn one independent child seed sequence per task.

    ``numpy.random.SeedSequence.spawn`` guarantees the children are
    statistically independent and a pure function of ``(base_seed, index)``,
    which is what makes serial and process-pool execution bit-identical.
    """
    if n_tasks < 0:
        raise ValidationError(f"n_tasks must be non-negative, got {n_tasks}")
    return np.random.SeedSequence(int(base_seed)).spawn(int(n_tasks))
