"""Persistent artifact store and resumable-run layer (``repro.store``).

Every CLI invocation used to re-pay the dominant costs of an experiment —
NHPP/ADMM model fits, trace generation, reactive-reference replays —
because the workload cache of :mod:`repro.runtime` was purely in-memory and
per-process.  This package adds the disk tier underneath:

* :class:`~repro.store.artifacts.ArtifactStore` — a content-addressed,
  schema-versioned store with atomic write-then-rename publication and
  integrity-hashed reads (corruption reads as a miss, never a crash);
* typed namespaces for the four artifact kinds the repository produces:
  prepared workloads (fitted model + reference replay), generated traces,
  completed evaluation-task result rows, and per-run telemetry snapshots
  (:mod:`repro.telemetry`);
* :class:`~repro.store.runs.RunJournal` — per-task completion records that
  make ``run_tasks(..., run_id=...)`` resumable with bit-identical rows;
* :func:`resolve_store` — the one place the CLI and the drivers decide
  where the store lives (explicit path, the ``REPRO_STORE_DIR`` environment
  variable, or the per-user default) and whether it is enabled at all
  (``--no-store``).

The store is an optimization layer by construction: every artifact can be
regenerated from its key, so ``repro store gc`` / ``clear`` are always safe
and a cold store is merely slow, never wrong.
"""

from __future__ import annotations

import os
from pathlib import Path

from .artifacts import (
    ArtifactEntry,
    ArtifactStore,
    GCReport,
    NAMESPACES,
    StoreStats,
    key_digest,
)
from .runs import RunJournal, list_runs
from .traces import get_or_build_trace, trace_cache_key

__all__ = [
    "ArtifactEntry",
    "ArtifactStore",
    "GCReport",
    "NAMESPACES",
    "RunJournal",
    "STORE_DIR_ENV_VAR",
    "StoreStats",
    "default_store_dir",
    "get_or_build_trace",
    "key_digest",
    "list_runs",
    "resolve_store",
    "trace_cache_key",
]

#: Environment variable overriding the default store location.
STORE_DIR_ENV_VAR = "REPRO_STORE_DIR"


def default_store_dir() -> Path:
    """Where the store lives absent any override: ``~/.cache/repro/store``.

    ``XDG_CACHE_HOME`` is honored when set, matching the usual Linux cache
    conventions without requiring a platform-dirs dependency.
    """
    cache_home = os.environ.get("XDG_CACHE_HOME", "").strip()
    base = Path(cache_home) if cache_home else Path.home() / ".cache"
    return base / "repro" / "store"


def resolve_store(
    store_dir: str | os.PathLike | None = None,
    *,
    enabled: bool = True,
) -> ArtifactStore | None:
    """The store to use, or ``None`` when disabled.

    Resolution order for the directory: the explicit ``store_dir`` argument,
    the ``REPRO_STORE_DIR`` environment variable, then
    :func:`default_store_dir`.
    """
    if not enabled:
        return None
    if store_dir is None:
        env = os.environ.get(STORE_DIR_ENV_VAR, "").strip()
        store_dir = env if env else default_store_dir()
    return ArtifactStore(store_dir)
