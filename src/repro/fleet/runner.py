"""Fleet execution: per-partition service replays as runtime function tasks.

The fleet simulation is a two-phase co-simulation resolved at planning-tick
granularity:

1. **Isolation** — every service replays its scaler with a bottomless pool
   while a :class:`~repro.fleet.pooled.PooledScaler` in record mode samples
   its per-tick instance demand.  These rows are both the interference-free
   baseline and the demand bids the admission policies arbitrate.
2. **Contention** — the pool's admission policy converts the demand matrix
   into per-service integer grant schedules
   (:func:`repro.fleet.admission.allocate_grants`), and every service
   replays again with its grants enforced as per-tick budgets.

Both phases execute through :func:`repro.runtime.run_tasks`: services are
partitioned into groups and each partition ships as one
:class:`~repro.runtime.FunctionTask` targeting
:func:`evaluate_partition` — plain picklable kwargs in, row dictionaries
out — so fleets shard across the process pool, journal into the store, and
resume bit-identically, exactly like every other experiment batch.

Everything here is a pure function of its arguments: trace realizations
come from (scenario, scale, seed), RobustScaler Monte Carlo streams from
``(base_seed, service_index)``, and budgets from the deterministic
allocator — which is what makes serial and pool-sharded fleet runs (and
killed-and-resumed ones) produce identical rows.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any

import numpy as np

from ..config import SimulationConfig
from ..exceptions import ValidationError
from ..metrics.report import summarize_result
from ..runtime.cache import WorkloadCache
from ..runtime.spec import FunctionTask, PrepSpec, WorkloadSpec
from ..scaling.backup_pool import ReactiveScaler
from ..simulation.runner import replay

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from ..store.artifacts import ArtifactStore
from ..telemetry import get_recorder
from ..types import ArrivalTrace
from .pooled import PooledScaler
from .spec import ServiceSpec

__all__ = ["evaluate_partition", "partition_tasks", "n_ticks_for"]

#: Scaler kinds that need the full NHPP-fitted workload preparation; the
#: baseline kinds only need the trace split and the reactive reference.
_MODEL_KINDS = ("rs-hp", "rs-rt", "rs-cost")

#: Worker-local memo of light service bundles, keyed by store root and the
#: service's workload identity — pool workers running several policies of
#: the same partition skip repeated reference replays.
_SERVICE_BUNDLES: dict = {}

#: Worker-local workload caches (full preparations), keyed by store root.
_PREP_CACHES: dict = {}


def n_ticks_for(test: ArrivalTrace, tick_seconds: float) -> int:
    """Number of fleet ticks covering the (rebased) test trace horizon."""
    return max(1, int(math.ceil(float(test.horizon) / float(tick_seconds))))


def _store_from(store_dir: str | None) -> "ArtifactStore | None":
    if store_dir is None:
        return None
    from ..store import ArtifactStore

    return ArtifactStore(store_dir)


def _service_bundle(
    service: ServiceSpec, engine: str, store_dir: str | None
) -> tuple[Any, SimulationConfig, float, Any]:
    """``(test trace, simulation config, reference cost, prepared-or-None)``.

    RobustScaler services pay the full model preparation (store-cached via
    the workloads namespace); baseline services only split the trace and
    replay the reactive reference (trace store-cached via ``traces``).
    """
    memo_key = (
        store_dir,
        service.scenario,
        float(service.scale),
        service.seed,
        service.scaler.kind,
        engine,
    )
    cached = _SERVICE_BUNDLES.get(memo_key)
    if cached is not None:
        return cached
    store = _store_from(store_dir)
    from ..workloads import get_scenario

    scenario = get_scenario(service.scenario)
    if service.scaler.kind in _MODEL_KINDS:
        cache = _PREP_CACHES.get(store_dir)
        if cache is None:
            cache = _PREP_CACHES.setdefault(store_dir, WorkloadCache(store=store))
        spec = WorkloadSpec(
            scenario=service.scenario,
            scale=service.scale,
            seed=service.seed,
            prep=PrepSpec(engine=engine),
        )
        workload, _ = cache.get_or_prepare(spec)
        bundle = (workload.test, workload.simulation, workload.reference_cost, workload)
    else:
        from ..store.traces import get_or_build_trace

        trace = get_or_build_trace(
            scenario, scale=service.scale, seed=service.seed, store=store
        )
        _, test = trace.split(scenario.train_fraction)
        simulation = SimulationConfig(
            pending_time=scenario.pending_time, engine=engine
        )
        reference = replay(test, ReactiveScaler(), simulation)
        bundle = (test, simulation, reference.total_cost, None)
    _SERVICE_BUNDLES[memo_key] = bundle
    return bundle


def evaluate_partition(
    *,
    services: tuple[ServiceSpec, ...],
    indices: tuple[int, ...],
    engine: str,
    tick_seconds: float,
    phase: str,
    base_seed: int,
    policy: str | None = None,
    grants: tuple[tuple[int, ...], ...] | None = None,
    store_dir: str | None = None,
) -> dict:
    """Replay one partition of services; returns ``{"rows": [...]}``.

    ``phase="isolation"`` records each service's per-tick demand profile
    into its row (``demand`` column, a dense integer tuple);
    ``phase="contention"`` requires ``policy`` and per-service ``grants``
    and enforces them as budgets.  ``indices`` are the services' positions
    in the fleet, which seed the RobustScaler Monte Carlo streams
    independently of how services were partitioned.
    """
    if phase not in ("isolation", "contention"):
        raise ValidationError(f"unknown fleet phase {phase!r}")
    if phase == "contention" and (policy is None or grants is None):
        raise ValidationError("contention phase requires policy and grants")
    if len(services) != len(indices):
        raise ValidationError(
            f"services/indices lengths disagree: {len(services)}/{len(indices)}"
        )
    recorder = get_recorder()
    rows = []
    for position, (service, index) in enumerate(zip(services, indices)):
        test, simulation, reference_cost, workload = _service_bundle(
            service, engine, store_dir
        )
        # The inner autoscaler, seeded deterministically by fleet position.
        inner = service.scaler.build(
            workload, random_state=np.random.default_rng([int(base_seed), int(index)])
        )
        budgets = None if grants is None else tuple(grants[position])
        scaler = PooledScaler(inner, tick_seconds, budgets=budgets)
        with recorder.span("fleet.replay"):
            result = replay(test, scaler, simulation)
        row = {
            "service": service.name,
            "scenario": service.scenario,
            "scaler": inner.name,
            "pool": service.pool,
            "weight": float(service.weight),
            "priority": int(service.priority),
            "phase": phase,
            "policy": "isolation" if policy is None else policy,
        }
        row.update(summarize_result(result, reference_cost=reference_cost))
        if phase == "isolation":
            row["demand"] = scaler.demand_profile(n_ticks_for(test, tick_seconds))
        else:
            row["denied_actions"] = int(scaler.denied)
            row["throttled_ticks"] = len(scaler.throttled_ticks)
        rows.append(row)
        if recorder.enabled:
            recorder.inc("fleet.replays")
            recorder.inc("fleet.queries", int(result.n_queries))
    return {"rows": rows}


def partition_tasks(
    services: tuple[ServiceSpec, ...],
    *,
    engine: str,
    tick_seconds: float,
    phase: str,
    base_seed: int,
    services_per_task: int,
    policy: str | None = None,
    grants: list[tuple[int, ...]] | None = None,
    store_dir: str | None = None,
) -> list[FunctionTask]:
    """One :class:`FunctionTask` per service partition, in service order."""
    if services_per_task < 1:
        raise ValidationError(
            f"services_per_task must be >= 1, got {services_per_task}"
        )
    tasks = []
    for start in range(0, len(services), int(services_per_task)):
        indices = tuple(range(start, min(start + int(services_per_task), len(services))))
        kwargs = {
            "services": tuple(services[i] for i in indices),
            "indices": indices,
            "engine": engine,
            "tick_seconds": float(tick_seconds),
            "phase": phase,
            "base_seed": int(base_seed),
            "store_dir": store_dir,
        }
        if phase == "contention":
            kwargs["policy"] = policy
            kwargs["grants"] = tuple(tuple(grants[i]) for i in indices)
        tasks.append(
            FunctionTask(
                fn="repro.fleet.runner.evaluate_partition",
                kwargs=tuple(sorted(kwargs.items())),
            )
        )
    return tasks
