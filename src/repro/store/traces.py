"""Trace-generation cache: scenario realizations keyed by (name, scale, seed).

Drivers routinely build a scenario's trace outside the executor — to derive
sweep grids from the test window's mean QPS, to decide whether a scenario is
large enough to replay, or to hand a perturbed copy to the perturbation
harness.  Scenario generation is deterministic given ``(scenario, scale,
seed)``, so the realization is a perfect cache candidate; this module caches
it in the store's ``traces`` namespace so repeated CLI invocations sample
each NHPP realization once.
"""

from __future__ import annotations

from ..types import ArrivalTrace
from ..workloads.scenarios import Scenario
from .artifacts import ArtifactStore

__all__ = ["get_or_build_trace", "trace_cache_key"]


def trace_cache_key(scenario: Scenario, *, scale: float, seed: int | None) -> tuple:
    """The store key of one scenario realization.

    The scenario's :attr:`~repro.workloads.scenarios.Scenario.cache_token`
    (a content digest of the file for CSV-backed scenarios) is appended, so
    editing the underlying file invalidates the cached realization instead
    of silently serving the old trace.
    """
    key = (
        "scenario-trace",
        scenario.name.lower(),
        float(scale),
        scenario.resolve_seed(seed),
    )
    token = scenario.cache_token
    if token is not None:
        key += (token,)
    return key


def get_or_build_trace(
    scenario: Scenario,
    *,
    scale: float = 1.0,
    seed: int | None = None,
    store: ArtifactStore | None = None,
) -> ArrivalTrace:
    """Generate ``scenario``'s trace, consulting/filling the disk cache.

    With ``store=None`` this is exactly ``scenario.build_trace``; with a
    store, the seeded realization is fetched from the ``traces`` namespace
    when present and written there after generation otherwise.
    """
    if store is None:
        return scenario.build_trace(scale=scale, seed=seed)
    key = trace_cache_key(scenario, scale=scale, seed=seed)
    cached = store.get("traces", key)
    if isinstance(cached, ArrivalTrace):
        return cached
    trace = scenario.build_trace(scale=scale, seed=seed)
    store.put("traces", key, trace)
    return trace
