"""Tests for the persistent artifact store (`repro.store`).

The load-bearing guarantees: (1) writes are atomic and verified — a
truncated, bit-flipped or foreign file reads as a miss, never a crash, and
concurrent writers never leave a partial entry; (2) ``gc`` honors its
size/age bounds and evicts oldest-first; (3) the two-tier
:class:`~repro.runtime.WorkloadCache` recovers preparations from disk
across cache instances (zero model fits on a warm store) and reports the
tiers separately in :class:`~repro.runtime.CacheStats`.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import zlib
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

from repro.exceptions import ValidationError
from repro.runtime import WorkloadCache, WorkloadSpec
from repro.store import (
    ArtifactStore,
    STORE_DIR_ENV_VAR,
    default_store_dir,
    key_digest,
    resolve_store,
)


@pytest.fixture
def store(tmp_path) -> ArtifactStore:
    return ArtifactStore(tmp_path / "store")


class TestArtifactStoreBasics:
    def test_put_get_roundtrip_across_instances(self, store, tmp_path):
        payload = {"rows": [1.0, 2.5], "label": "x"}
        store.put("results", ("a", 1), payload)
        fresh = ArtifactStore(store.root)
        assert fresh.get("results", ("a", 1)) == payload
        assert fresh.stats().hits == 1

    def test_missing_key_returns_default(self, store):
        sentinel = object()
        assert store.get("workloads", ("nope",), sentinel) is sentinel
        assert store.stats().misses == 1

    def test_key_digest_is_stable_and_key_sensitive(self):
        key = ("scenario", "crs", 0.25, 7)
        assert key_digest(key) == key_digest(("scenario", "crs", 0.25, 7))
        assert key_digest(key) != key_digest(("scenario", "crs", 0.25, 8))

    def test_contains(self, store):
        assert not store.contains("telemetry", ("k",))
        store.put("telemetry", ("k",), [1, 2])
        assert store.contains("telemetry", ("k",))

    def test_invalid_namespace_rejected(self, store):
        for bad in ("", "a/b", "..", " padded"):
            with pytest.raises(ValidationError):
                store.put(bad, ("k",), 1)

    def test_store_handle_pickles_as_path_only(self, store):
        store.put("results", ("k",), 1)
        assert store.stats().writes == 1
        clone = pickle.loads(pickle.dumps(store))
        assert clone.root == store.root
        assert clone.stats().writes == 0  # counters are per-handle
        assert clone.get("results", ("k",)) == 1


class TestCorruption:
    def _single_artifact(self, store) -> Path:
        store.put("workloads", ("k",), {"value": 42})
        [entry] = store.entries("workloads")
        return entry.path

    def test_truncated_file_is_a_miss_and_removed(self, store):
        path = self._single_artifact(store)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        assert store.get("workloads", ("k",)) is None
        assert store.stats().corrupt == 1
        assert not path.exists()

    def test_bit_flip_is_a_miss(self, store):
        path = self._single_artifact(store)
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF
        path.write_bytes(bytes(data))
        assert store.get("workloads", ("k",)) is None
        assert store.stats().corrupt == 1

    def test_foreign_file_is_a_miss(self, store):
        path = self._single_artifact(store)
        path.write_bytes(b"this is not an artifact at all")
        assert store.get("workloads", ("k",)) is None
        assert store.stats().corrupt == 1

    def test_rewrite_after_corruption_recovers(self, store):
        path = self._single_artifact(store)
        path.write_bytes(b"garbage")
        assert store.get("workloads", ("k",)) is None
        store.put("workloads", ("k",), {"value": 43})
        assert store.get("workloads", ("k",)) == {"value": 43}


class TestSixTokenHeader:
    """Entries with a sixth header token (a payload codec) are not read."""

    def test_six_token_entry_is_a_reaped_miss(self, store):
        path = store.put("results", ("old",), {"value": 1})
        payload = zlib.compress(pickle.dumps({"value": 1}))
        digest = hashlib.blake2b(payload, digest_size=20).hexdigest()
        header = f"repro-store v{ArtifactStore.SCHEMA_VERSION} results {digest} {len(payload)} zlib\n"
        path.write_bytes(header.encode("ascii") + payload)
        assert store.get("results", ("old",)) is None
        assert store.stats().corrupt == 1
        assert not path.exists()
        # The caller regenerates the artifact under the same key.
        store.put("results", ("old",), {"value": 1})
        assert store.get("results", ("old",)) == {"value": 1}

    @staticmethod
    def _write_raw(path: Path, extra_tokens: tuple[str, ...], drop: int = 0) -> None:
        """Write a raw pickle whose digest verifies, under a reshaped header."""
        payload = pickle.dumps({"value": 1})
        digest = hashlib.blake2b(payload, digest_size=20).hexdigest()
        tokens = [
            "repro-store",
            f"v{ArtifactStore.SCHEMA_VERSION}",
            "results",
            digest,
            str(len(payload)),
        ]
        tokens = tokens[: len(tokens) - drop] + list(extra_tokens)
        path.write_bytes((" ".join(tokens) + "\n").encode("ascii") + payload)

    @pytest.mark.parametrize("codec", ["zlib", "zstd", "lzma9"])
    def test_codec_token_over_a_valid_payload_is_a_miss(self, store, codec):
        # The payload would load if the sixth token were ignored: the header
        # shape alone makes the entry unreadable.
        path = store.put("results", ("k",), {"value": 1})
        self._write_raw(path, (codec,))
        assert store.get("results", ("k",)) is None
        assert store.stats().corrupt == 1
        assert not path.exists()

    @pytest.mark.parametrize(
        "extra_tokens, drop", [((), 1), (("zlib", "x"), 0)], ids=["four", "seven"]
    )
    def test_other_token_counts_are_misses(self, store, extra_tokens, drop):
        path = store.put("results", ("k",), {"value": 1})
        self._write_raw(path, extra_tokens, drop)
        assert store.get("results", ("k",)) is None
        assert store.stats().corrupt == 1

    def test_five_token_entry_written_by_hand_is_read(self, store):
        # The same bytes under the five-token header are a valid entry.
        path = store.put("results", ("k",), {"value": 2})
        self._write_raw(path, ())
        assert store.get("results", ("k",)) == {"value": 1}
        assert store.stats().corrupt == 0


class TestGC:
    def _put_aged(self, store, namespace, key, obj, age_seconds, now):
        path = store.put(namespace, key, obj)
        os.utime(path, (now - age_seconds, now - age_seconds))
        return path

    def test_age_bound(self, store):
        now = 1_000_000.0
        old = self._put_aged(store, "telemetry", ("old",), "x" * 100, 7200, now)
        young = self._put_aged(store, "telemetry", ("young",), "y" * 100, 60, now)
        report = store.gc(max_age_seconds=3600, now=now)
        assert report.removed == 1
        assert not old.exists() and young.exists()

    def test_size_bound_evicts_oldest_first(self, store):
        now = 1_000_000.0
        oldest = self._put_aged(store, "results", ("a",), "x" * 1000, 300, now)
        self._put_aged(store, "results", ("b",), "y" * 1000, 200, now)
        newest = self._put_aged(store, "results", ("c",), "z" * 1000, 100, now)
        total = store.total_bytes()
        [entry] = [e for e in store.entries() if e.path == oldest]
        report = store.gc(max_bytes=total - entry.size_bytes, now=now)
        assert report.removed >= 1
        assert not oldest.exists()
        assert newest.exists()
        assert store.total_bytes() <= total - entry.size_bytes

    def test_no_bounds_is_a_noop(self, store):
        store.put("results", ("a",), 1)
        report = store.gc()
        assert report.removed == 0
        assert report.kept == 1

    def test_bounds_validated(self, store):
        with pytest.raises(ValidationError):
            store.gc(max_bytes=-1)
        with pytest.raises(ValidationError):
            store.gc(max_age_seconds=-1.0)

    def test_gc_and_clear_reap_abandoned_tmp_files(self, store):
        store.put("results", ("a",), 1)
        # Simulate a writer killed between mkstemp and os.replace.
        orphan = store.base / "results" / ".tmp-dead.art"
        orphan.write_bytes(b"partial")
        os.utime(orphan, (1.0, 1.0))  # ancient: no live writer owns it
        store.gc()
        assert not orphan.exists()
        orphan.write_bytes(b"partial")
        os.utime(orphan, (1.0, 1.0))
        store.clear()
        assert not orphan.exists()

    def test_clear_and_info(self, store):
        store.put("telemetry", ("a",), 1)
        store.put("workloads", ("b",), 2)
        info = store.info()
        assert info["total_entries"] == 2
        assert set(info["namespaces"]) == {"telemetry", "workloads"}
        assert store.clear() == 2
        assert store.info()["total_entries"] == 0

    def test_retired_namespace_stays_listed_and_clearable(self, store):
        """``traces/`` artifacts written before that namespace was retired
        are still on disk, so ``ls``, ``gc`` and ``clear`` must still see
        and remove them."""
        from repro.store.artifacts import NAMESPACES

        assert "traces" not in NAMESPACES
        old = store.put("traces", ("steady-state", 0.05, 3), [1, 2])
        store.put("workloads", ("b",), 2)
        assert {entry.namespace for entry in store.entries()} == {"traces", "workloads"}
        assert "traces" in store.info()["namespaces"]
        assert store.clear() == 2
        assert not old.exists()

    def test_pinned_namespace_survives_size_eviction(self, store):
        now = 1_000_000.0
        golden = self._put_aged(store, "workloads", ("golden",), "g" * 500, 900, now)
        other = self._put_aged(store, "telemetry", ("t",), "x" * 500, 100, now)
        report = store.gc(max_bytes=0, now=now, pins=("workloads/",))
        assert golden.exists() and not other.exists()
        assert report.pinned == 1
        assert report.kept == 1
        assert report.removed == 1

    def test_pinned_digest_prefix_survives_age_eviction(self, store):
        now = 1_000_000.0
        pinned_path = self._put_aged(store, "telemetry", ("keep",), "k" * 100, 7200, now)
        doomed = self._put_aged(store, "telemetry", ("drop",), "d" * 100, 7200, now)
        digest = key_digest(("keep",))
        report = store.gc(max_age_seconds=3600, now=now, pins=(digest[:12],))
        assert pinned_path.exists() and not doomed.exists()
        assert report.pinned == 1 and report.removed == 1

    def test_cli_gc_pin_flag(self, store, capsys):
        from repro.cli import main

        now = 1_000_000.0
        golden = self._put_aged(store, "workloads", ("golden",), "g" * 500, 900, now)
        self._put_aged(store, "telemetry", ("t",), "x" * 500, 100, now)
        code = main(
            [
                "store",
                "gc",
                "--max-bytes",
                "0",
                "--pin",
                "workloads/",
                "--store-dir",
                str(store.root),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "1 pinned" in out
        assert golden.exists()


def _hammer_store(args: tuple) -> bool:
    """Concurrently write and read back one shared key (pool worker)."""
    root, worker_id, n_rounds = args
    store = ArtifactStore(root)
    payload = {"worker": worker_id, "blob": list(range(2000))}
    ok = True
    for _ in range(n_rounds):
        store.put("results", ("shared",), payload)
        seen = store.get("results", ("shared",))
        # Any fully written artifact is acceptable; a partial one would fail
        # decoding and read as None here.
        ok = ok and seen is not None and isinstance(seen, dict) and "blob" in seen
    return ok


class TestConcurrency:
    def test_concurrent_writers_never_leave_partial_entries(self, store):
        n_workers = 4
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            results = list(
                pool.map(
                    _hammer_store,
                    [(str(store.root), i, 25) for i in range(n_workers)],
                )
            )
        assert all(results)
        final = store.get("results", ("shared",))
        assert isinstance(final, dict) and len(final["blob"]) == 2000
        # No temporary files may survive the writers.
        leftovers = [
            p for p in store.base.rglob("*") if p.is_file() and p.name.startswith(".tmp-")
        ]
        assert leftovers == []
        assert store.stats().corrupt == 0


class TestResolveStore:
    def test_disabled_returns_none(self):
        assert resolve_store(enabled=False) is None

    def test_explicit_dir_wins(self, tmp_path, monkeypatch):
        monkeypatch.setenv(STORE_DIR_ENV_VAR, str(tmp_path / "env"))
        store = resolve_store(tmp_path / "explicit")
        assert store.root == tmp_path / "explicit"

    def test_env_var_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv(STORE_DIR_ENV_VAR, str(tmp_path / "env"))
        assert resolve_store().root == tmp_path / "env"

    def test_default_dir(self, monkeypatch, tmp_path):
        monkeypatch.delenv(STORE_DIR_ENV_VAR, raising=False)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        assert default_store_dir() == tmp_path / "xdg" / "repro" / "store"
        assert resolve_store().root == default_store_dir()


class TestTwoTierWorkloadCache:
    def test_warm_store_means_zero_fits(self, store):
        spec = WorkloadSpec(scenario="steady-state", scale=0.05, seed=3)
        cold = WorkloadCache(store=store)
        workload, hit = cold.get_or_prepare(spec)
        assert not hit
        assert cold.stats().misses == 1

        warm = WorkloadCache(store=store)  # fresh process, same store
        recovered, hit = warm.get_or_prepare(spec)
        stats = warm.stats()
        assert hit
        assert (stats.misses, stats.disk_hits, stats.hits) == (0, 1, 0)
        assert recovered.reference_cost == workload.reference_cost
        # Second access comes from the memory tier.
        warm.get_or_prepare(spec)
        assert warm.stats().hits == 1
        assert warm.stats().total == 2

    def test_corrupt_workload_artifact_refits(self, store):
        spec = WorkloadSpec(scenario="steady-state", scale=0.05, seed=3)
        WorkloadCache(store=store).get_or_prepare(spec)
        [entry] = store.entries("workloads")
        entry.path.write_bytes(b"garbage")
        cache = WorkloadCache(store=store)
        workload, hit = cache.get_or_prepare(spec)
        assert not hit
        assert cache.stats().misses == 1
        assert workload.test.n_queries >= 0  # fully usable object

    def test_cache_key_carries_no_engine(self, store):
        """One prepared-workload entry, whatever engine later replays it."""
        from dataclasses import fields

        assert "engine" not in {field.name for field in fields(WorkloadSpec)}
        with pytest.raises(TypeError):
            WorkloadSpec("steady-state", engine="reference")
        spec = WorkloadSpec(scenario="steady-state", scale=0.05, seed=3)
        key = spec.cache_key()
        assert not {"batched", "reference"} & set(map(str, key))
        WorkloadCache(store=store).get_or_prepare(spec)
        warm = WorkloadCache(store=store)
        workload, hit = warm.get_or_prepare(spec)
        assert hit and warm.stats().disk_hits == 1
        assert workload.simulation.engine == "batched"

    def test_storeless_cache_unchanged(self):
        spec = WorkloadSpec(scenario="steady-state", scale=0.05, seed=3)
        cache = WorkloadCache()
        cache.get_or_prepare(spec)
        _, hit = cache.get_or_prepare(spec)
        stats = cache.stats()
        assert hit and stats.disk_hits == 0 and stats.total == 2
