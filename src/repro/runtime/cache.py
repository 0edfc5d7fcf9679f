"""The workload-preparation cache.

Preparing a workload — generating the trace, fitting the NHPP model with
ADMM, replaying the reactive reference — dwarfs the cost of adding one more
sweep point on top of it.  The cache keys prepared workloads by
``WorkloadSpec.cache_key()`` (scenario/trace identity, scale, seed, a CSV
scenario's file digest and the resolved prep configuration) so every sweep point over the same workload
shares one preparation.

The cache is two-tier.  The memory tier is per process: the serial executor
threads a single cache through the whole batch, while each pool worker
keeps its own.  The optional disk tier — an
:class:`~repro.store.ArtifactStore` — is shared across pool workers *and*
across CLI invocations: a memory miss consults the store's ``workloads``
namespace before paying for a fit, and every fresh preparation is published
there for everyone else.  :class:`CacheStats` reports the tiers separately
(``hits`` / ``disk_hits``), so ``misses`` remains exactly the number of
model fits this process performed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..telemetry import get_recorder
from .spec import WorkloadSpec
from .workload import PreparedWorkload

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from ..store import ArtifactStore

__all__ = ["CacheStats", "WorkloadCache", "WORKLOADS_NAMESPACE"]

#: Store namespace prepared workloads are published under.
WORKLOADS_NAMESPACE = "workloads"


@dataclass(frozen=True)
class CacheStats:
    """Counters of one cache: ``misses`` equals the number of model fits.

    ``hits`` counts memory-tier hits, ``disk_hits`` counts preparations
    recovered from the artifact store (no fit, one pickle load).
    """

    hits: int
    misses: int
    size: int
    disk_hits: int = 0

    @property
    def total(self) -> int:
        return self.hits + self.disk_hits + self.misses


class WorkloadCache:
    """Maps ``WorkloadSpec.cache_key()`` to its :class:`PreparedWorkload`.

    Parameters
    ----------
    store:
        Optional disk tier.  When set, memory misses consult the store
        before preparing, and fresh preparations are written back so other
        processes (pool workers, later CLI invocations) reuse them.
    """

    def __init__(self, store: "ArtifactStore | None" = None) -> None:
        self._entries: dict[tuple, PreparedWorkload] = {}
        self.store = store
        self.hits = 0
        self.disk_hits = 0
        self.misses = 0

    def get_or_prepare(self, spec: WorkloadSpec) -> tuple[PreparedWorkload, bool]:
        """Return ``(workload, was_cache_hit)`` for ``spec``, preparing on miss.

        A hit from either tier reports ``True``; only a genuine preparation
        (one model fit) reports ``False``.
        """
        recorder = get_recorder()
        key = spec.cache_key()
        cached = self._entries.get(key)
        if cached is not None:
            self.hits += 1
            if recorder.enabled:
                recorder.inc("cache.memory_hits")
            return cached, True
        if self.store is not None:
            stored = self.store.get(WORKLOADS_NAMESPACE, key)
            if isinstance(stored, PreparedWorkload):
                self.disk_hits += 1
                if recorder.enabled:
                    recorder.inc("cache.disk_hits")
                self._entries[key] = stored
                return stored, True
        started = time.perf_counter()
        workload = spec.prepare(store=self.store)
        self.misses += 1
        if recorder.enabled:
            recorder.inc("cache.misses")
            recorder.observe("cache.fit_seconds", time.perf_counter() - started)
        self._entries[key] = workload
        if self.store is not None:
            self.store.put(WORKLOADS_NAMESPACE, key, workload)
        return workload, False

    def stats(self) -> CacheStats:
        """A snapshot of the hit/miss counters."""
        return CacheStats(
            hits=self.hits,
            misses=self.misses,
            size=len(self._entries),
            disk_hits=self.disk_hits,
        )

    def clear(self) -> None:
        """Drop all memory entries and reset the counters (disk tier untouched)."""
        self._entries.clear()
        self.hits = 0
        self.disk_hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)
