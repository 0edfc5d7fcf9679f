"""The content-addressed, disk-backed artifact store.

An :class:`ArtifactStore` maps ``(namespace, key)`` pairs to pickled Python
objects under a schema- and package-versioned directory tree::

    <root>/v1-<package-version>/<namespace>/<key-digest>.art

Keys are arbitrary picklable values with a deterministic ``repr`` (the cache
keys of :mod:`repro.runtime` qualify); they are content-addressed by hashing
that representation, so two processes that derive the same key address the
same file without coordination.

Durability guarantees:

* **atomic writes** — every ``put`` writes to a temporary file in the target
  directory and publishes it with :func:`os.replace`, so readers never
  observe a partially written artifact and concurrent writers of the same
  key simply race to install equivalent content (last one wins);
* **integrity hashes** — each file carries a header with the payload's
  BLAKE2b digest and length; any mismatch (truncation, bit rot, a foreign
  file) makes ``get`` treat the entry as a miss, remove the corpse
  best-effort, and count it in :attr:`StoreStats.corrupt`;
* **versioned schemas** — artifacts live under ``v<SCHEMA_VERSION>``; a
  format change bumps the version, orphaning (never misreading) old trees.

The store never raises on a bad or missing entry during reads: a miss is
always a legal answer, because every artifact can be regenerated from its
key.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from .. import __version__ as _PACKAGE_VERSION
from ..exceptions import ValidationError
from ..telemetry import get_recorder

__all__ = [
    "ArtifactEntry",
    "ArtifactStore",
    "GCReport",
    "NAMESPACES",
    "StoreStats",
    "key_digest",
]

#: The typed namespaces used by the repository (free-form names also work).
NAMESPACES = ("workloads", "results", "telemetry")

#: File suffix of store entries.
_SUFFIX = ".art"

#: First header token; anything else is not ours.
_MAGIC = "repro-store"


def key_digest(key: object) -> str:
    """Content address of ``key``: BLAKE2b over its canonical ``repr``.

    The keys this store sees (tuples of strings, numbers, ``None`` and
    frozen config dataclasses) all have deterministic, process-independent
    representations, which is what makes the address stable across CLI
    invocations and pool workers.
    """
    digest = hashlib.blake2b(repr(key).encode("utf-8"), digest_size=20)
    return digest.hexdigest()


@dataclass(frozen=True)
class StoreStats:
    """Read/write counters of one store handle (not persisted)."""

    hits: int
    misses: int
    writes: int
    corrupt: int


@dataclass(frozen=True)
class ArtifactEntry:
    """One artifact on disk, as reported by :meth:`ArtifactStore.entries`."""

    namespace: str
    digest: str
    path: Path
    size_bytes: int
    mtime: float


@dataclass(frozen=True)
class GCReport:
    """Outcome of one :meth:`ArtifactStore.gc` pass.

    ``pinned`` counts artifacts a pin prefix exempted from eviction (they
    are also included in ``kept`` / ``kept_bytes``).
    """

    removed: int
    freed_bytes: int
    kept: int
    kept_bytes: int
    pinned: int = 0


class ArtifactStore:
    """Disk-backed artifact store with atomic writes and verified reads."""

    SCHEMA_VERSION = 1

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.corrupt = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ArtifactStore({str(self.root)!r})"

    # ------------------------------------------------------------- pickling
    # A store handle travels to pool workers as just its root path; the
    # counters are per-process observations, not shared state.

    def __getstate__(self) -> dict:
        return {"root": self.root}

    def __setstate__(self, state: dict) -> None:
        self.__init__(state["root"])

    # --------------------------------------------------------------- layout

    @property
    def base(self) -> Path:
        """Schema- and package-versioned directory all artifacts live under.

        Keys fingerprint the artifact's *inputs* (scenario name, scale,
        seed, preparation settings), not the generating code, so the tree is scoped
        to the package version: upgrading orphans the old artifacts instead
        of serving results computed by older code.  When editing scenario
        or model code in a development checkout (same version), run
        ``repro store clear`` to drop stale entries.
        """
        return self.root / f"v{self.SCHEMA_VERSION}-{_PACKAGE_VERSION}"

    @staticmethod
    def _check_namespace(namespace: str) -> str:
        if not namespace or any(ch in namespace for ch in "/\\.") or namespace != namespace.strip():
            raise ValidationError(f"invalid store namespace {namespace!r}")
        return namespace

    def path_for(self, namespace: str, key: object) -> Path:
        """The file that does (or would) hold ``(namespace, key)``."""
        return self.base / self._check_namespace(namespace) / (key_digest(key) + _SUFFIX)

    # ------------------------------------------------------------ get / put

    def put(self, namespace: str, key: object, obj: object) -> Path:
        """Serialize ``obj`` and atomically install it under ``(namespace, key)``."""
        path = self.path_for(namespace, key)
        payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        header = "{} v{} {} {} {}\n".format(
            _MAGIC,
            self.SCHEMA_VERSION,
            namespace,
            hashlib.blake2b(payload, digest_size=20).hexdigest(),
            len(payload),
        )
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            prefix=".tmp-", suffix=_SUFFIX, dir=str(path.parent)
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(header.encode("ascii"))
                handle.write(payload)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self.writes += 1
        recorder = get_recorder()
        if recorder.enabled:
            recorder.inc("store.writes")
            recorder.inc("store.write_bytes", len(payload))
        return path

    def get(self, namespace: str, key: object, default: object = None) -> object:
        """The object stored under ``(namespace, key)``, or ``default``.

        Corrupt entries (bad magic, hash or length mismatch, unpicklable
        payload) are removed best-effort and reported as misses — the caller
        regenerates and overwrites them.
        """
        path = self.path_for(namespace, key)
        recorder = get_recorder()
        try:
            data = path.read_bytes()
        except OSError:
            self.misses += 1
            if recorder.enabled:
                recorder.inc("store.misses")
            return default
        try:
            obj = self._decode(data)
        # repro: allow[RPR005] any decode failure means a corrupt/truncated
        # artifact — degrade to a miss so the caller regenerates it
        except Exception:
            self.corrupt += 1
            if recorder.enabled:
                recorder.inc("store.corrupt")
            try:
                path.unlink()
            except OSError:
                pass
            return default
        if recorder.enabled:
            recorder.inc("store.hits")
            recorder.inc("store.read_bytes", len(data))
        return obj

    def _decode(self, data: bytes) -> object:
        newline = data.index(b"\n")
        tokens = data[:newline].decode("ascii").split(" ")
        if len(tokens) != 5:
            raise ValueError("unrecognized artifact header")
        magic, version, _namespace, payload_digest, payload_len = tokens
        if magic != _MAGIC or version != f"v{self.SCHEMA_VERSION}":
            raise ValueError("unrecognized artifact header")
        payload = data[newline + 1 :]
        if len(payload) != int(payload_len):
            raise ValueError("artifact payload truncated")
        actual = hashlib.blake2b(payload, digest_size=20).hexdigest()
        if actual != payload_digest:
            raise ValueError("artifact payload hash mismatch")
        obj = pickle.loads(payload)
        self.hits += 1
        return obj

    def contains(self, namespace: str, key: object) -> bool:
        """Whether an entry exists on disk (without verifying its payload)."""
        return self.path_for(namespace, key).exists()

    def read_entry(self, entry: "ArtifactEntry") -> object:
        """Decode one listed artifact by its on-disk entry, ``None`` on failure.

        Keys are content-addressed, so a directory listing alone cannot
        recover them; maintenance passes that need to *inspect* artifacts
        (e.g. reaping orphaned telemetry snapshots) read the listed files
        directly.  Failures are not treated as corruption here — the entry
        is left in place for a regular ``get`` to verify and reap.
        """
        try:
            return self._decode(entry.path.read_bytes())
        # repro: allow[RPR005] maintenance read — unreadable entries stay in
        # place for a regular get() to verify and reap
        except Exception:
            return None

    # ---------------------------------------------------------- maintenance

    def entries(self, namespace: str | None = None) -> list[ArtifactEntry]:
        """All artifacts on disk (optionally one namespace), oldest first."""
        if namespace is not None:
            dirs = [self.base / self._check_namespace(namespace)]
        elif self.base.is_dir():
            dirs = sorted(d for d in self.base.iterdir() if d.is_dir())
        else:
            dirs = []
        found: list[ArtifactEntry] = []
        for directory in dirs:
            if not directory.is_dir():
                continue
            for path in directory.glob(f"*{_SUFFIX}"):
                if path.name.startswith(".tmp-"):
                    continue
                try:
                    stat = path.stat()
                except OSError:  # pragma: no cover - raced with gc/clear
                    continue
                found.append(
                    ArtifactEntry(
                        namespace=directory.name,
                        digest=path.stem,
                        path=path,
                        size_bytes=stat.st_size,
                        mtime=stat.st_mtime,
                    )
                )
        return sorted(found, key=lambda entry: (entry.mtime, str(entry.path)))

    def total_bytes(self) -> int:
        """Total size of all artifacts."""
        return sum(entry.size_bytes for entry in self.entries())

    def _tmp_files(self) -> list[Path]:
        """Unpublished temp files (left behind only by killed writers)."""
        if not self.base.is_dir():
            return []
        return [
            path
            for path in self.base.glob(f"*/.tmp-*{_SUFFIX}")
            if path.is_file()
        ]

    def _reap_tmp_files(self, *, older_than_seconds: float, now: float) -> None:
        """Remove temp files whose writer is surely gone.

        A crashed or SIGKILLed process (the supported kill/resume workflow)
        leaves its in-flight temp file unpublished; nothing ever reads those,
        so maintenance passes reclaim them.  The age grace period keeps a
        concurrent live writer's file safe.
        """
        for path in self._tmp_files():
            try:
                if now - path.stat().st_mtime > older_than_seconds:
                    path.unlink()
            except OSError:
                continue

    @staticmethod
    def _is_pinned(entry: ArtifactEntry, pins: tuple[str, ...]) -> bool:
        """Whether a pin prefix protects ``entry`` from eviction.

        A pin matches either the bare key digest (as printed by
        ``repro store ls``) or the ``namespace/digest`` qualified form, so
        ``--pin workloads/`` protects a whole namespace (e.g. golden
        workloads) and ``--pin workloads/ab12`` one artifact.
        """
        qualified = f"{entry.namespace}/{entry.digest}"
        return any(
            entry.digest.startswith(pin) or qualified.startswith(pin)
            for pin in pins
        )

    def gc(
        self,
        *,
        max_bytes: int | None = None,
        max_age_seconds: float | None = None,
        now: float | None = None,
        pins: tuple[str, ...] | list[str] = (),
    ) -> GCReport:
        """Evict artifacts beyond the age bound, then the size bound.

        Eviction is oldest-first (modification time approximates least
        recently written); with both bounds ``None`` this is a no-op that
        just reports the store's size.  Every artifact is regenerable, so
        eviction is always safe.  ``pins`` are key-digest prefixes (bare or
        ``namespace/``-qualified) whose artifacts survive both bounds —
        which is how golden workloads outlive an aggressive size cap.
        Stale temp files abandoned by killed writers are reclaimed as part
        of every pass (they are not artifacts and are not counted in the
        report).
        """
        if max_bytes is not None and max_bytes < 0:
            raise ValidationError(f"max_bytes must be >= 0, got {max_bytes}")
        if max_age_seconds is not None and max_age_seconds < 0:
            raise ValidationError(
                f"max_age_seconds must be >= 0, got {max_age_seconds}"
            )
        pins = tuple(str(pin) for pin in pins if str(pin))
        now = time.time() if now is None else float(now)
        self._reap_tmp_files(older_than_seconds=600.0, now=now)
        pinned: list[ArtifactEntry] = []
        keep: list[ArtifactEntry] = []
        evict: list[ArtifactEntry] = []
        for entry in self.entries():
            if self._is_pinned(entry, pins):
                pinned.append(entry)
            elif max_age_seconds is not None and now - entry.mtime > max_age_seconds:
                evict.append(entry)
            else:
                keep.append(entry)
        if max_bytes is not None:
            kept_bytes = sum(entry.size_bytes for entry in keep) + sum(
                entry.size_bytes for entry in pinned
            )
            while keep and kept_bytes > max_bytes:
                oldest = keep.pop(0)
                kept_bytes -= oldest.size_bytes
                evict.append(oldest)
        freed = 0
        removed = 0
        for entry in evict:
            try:
                entry.path.unlink()
            except OSError:
                continue
            removed += 1
            freed += entry.size_bytes
        recorder = get_recorder()
        if recorder.enabled:
            recorder.inc("store.gc_removed", removed)
            recorder.inc("store.gc_freed_bytes", freed)
        kept_entries = keep + pinned
        return GCReport(
            removed=removed,
            freed_bytes=freed,
            kept=len(kept_entries),
            kept_bytes=sum(entry.size_bytes for entry in kept_entries),
            pinned=len(pinned),
        )

    def clear(self) -> int:
        """Remove every artifact (and any abandoned temp file).

        Returns how many artifacts were deleted (temp files not counted).
        """
        removed = 0
        for entry in self.entries():
            try:
                entry.path.unlink()
            except OSError:
                continue
            removed += 1
        # Keep a short grace period so a concurrent live writer's in-flight
        # temp file is not yanked out from under its os.replace.
        self._reap_tmp_files(older_than_seconds=60.0, now=time.time())
        return removed

    def info(self) -> dict:
        """Summary of the store: location, schema, per-namespace footprint."""
        per_namespace: dict[str, dict] = {}
        for entry in self.entries():
            bucket = per_namespace.setdefault(
                entry.namespace, {"count": 0, "bytes": 0}
            )
            bucket["count"] += 1
            bucket["bytes"] += entry.size_bytes
        return {
            "root": str(self.root),
            "schema_version": self.SCHEMA_VERSION,
            "namespaces": per_namespace,
            "total_bytes": sum(b["bytes"] for b in per_namespace.values()),
            "total_entries": sum(b["count"] for b in per_namespace.values()),
        }

    def stats(self) -> StoreStats:
        """Snapshot of this handle's read/write counters."""
        return StoreStats(
            hits=self.hits,
            misses=self.misses,
            writes=self.writes,
            corrupt=self.corrupt,
        )
