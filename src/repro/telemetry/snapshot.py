"""Per-run telemetry snapshots: the persisted, diffable performance record.

A snapshot is the plain-dict summary of one run's :class:`~repro.telemetry.Recorder`
— merged metrics from every process that worked on the run, the top-N
slowest spans, and enough provenance (experiment, workers, package version)
to interpret the numbers later.  When a run executes with both a
store and a ``run_id``, the snapshot is persisted in the store's
``telemetry/`` namespace keyed by the run id, which is what the

    repro telemetry show <run-id>
    repro telemetry diff <run-a> <run-b>

CLI subcommands read.  ``diff`` turns perf regressions between two runs
(cold vs warm store, before vs after a change) into a one-command
comparison of counters and latency distributions.

Snapshots are advisory observability artifacts: losing one never affects
results or resumability, so :func:`gc_orphan_snapshots` freely reaps
snapshots whose run journal has disappeared from the store.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Mapping

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from ..store.artifacts import ArtifactStore

from .recorder import Recorder

__all__ = [
    "TELEMETRY_NAMESPACE",
    "build_snapshot",
    "diff_snapshots",
    "gc_orphan_snapshots",
    "load_snapshot",
    "persist_snapshot",
    "snapshot_key",
    "span_rows",
    "summarize_snapshot",
]

#: Store namespace telemetry snapshots are persisted under.
TELEMETRY_NAMESPACE = "telemetry"

#: Version of the snapshot payload layout.
SNAPSHOT_SCHEMA = 1

#: Spans kept in the persisted snapshot (slowest first).
DEFAULT_TOP_SPANS = 50


def snapshot_key(run_id: str) -> tuple:
    """The store key of ``run_id``'s telemetry snapshot."""
    return ("telemetry-snapshot", str(run_id))


def build_snapshot(
    recorder: Recorder,
    *,
    run_id: str | None = None,
    provenance: Mapping | None = None,
    top_spans: int = DEFAULT_TOP_SPANS,
) -> dict:
    """Package ``recorder``'s state as a persistable snapshot payload.

    Spans are ranked by duration and truncated to ``top_spans`` (the full
    count is preserved in ``n_spans``); metrics are carried whole.
    """
    state = recorder.snapshot()
    spans = sorted(
        state["spans"], key=lambda record: record["duration_seconds"], reverse=True
    )[: max(int(top_spans), 0)]
    return {
        "schema": SNAPSHOT_SCHEMA,
        "run_id": None if run_id is None else str(run_id),
        "created_at": time.time(),
        "provenance": dict(provenance or {}),
        "counters": state["counters"],
        "gauges": state["gauges"],
        "histograms": state["histograms"],
        "spans": spans,
        "n_spans": state["n_spans"],
    }


def persist_snapshot(store: "ArtifactStore", snapshot: Mapping) -> None:
    """Install ``snapshot`` in the store's ``telemetry/`` namespace.

    The snapshot must carry a ``run_id`` — that is the handle ``repro
    telemetry show`` addresses it by.
    """
    run_id = snapshot.get("run_id")
    if not run_id:
        raise ValueError("cannot persist a telemetry snapshot without a run_id")
    store.put(TELEMETRY_NAMESPACE, snapshot_key(run_id), dict(snapshot))


def load_snapshot(store: "ArtifactStore", run_id: str) -> dict | None:
    """The persisted snapshot of ``run_id``, or ``None`` when absent."""
    payload = store.get(TELEMETRY_NAMESPACE, snapshot_key(run_id))
    if not isinstance(payload, dict) or "counters" not in payload:
        return None
    return payload


# ------------------------------------------------------------ presentation


def _scalar_metrics(snapshot: Mapping) -> dict[str, int | float | None]:
    """Counters and gauges of ``snapshot`` as one flat name → value map."""
    flat: dict[str, int | float | None] = {}
    flat.update(snapshot.get("counters") or {})
    flat.update(snapshot.get("gauges") or {})
    return flat


def _histogram_summaries(snapshot: Mapping) -> dict[str, dict]:
    """Histograms reduced to count/mean/max rows (keyed ``name.stat``)."""
    flat: dict[str, dict] = {}
    for name, payload in (snapshot.get("histograms") or {}).items():
        count = int(payload.get("count", 0))
        total = float(payload.get("sum", 0.0))
        flat[name] = {
            "count": count,
            "mean": total / count if count else None,
            "max": payload.get("max"),
        }
    return flat


def summarize_snapshot(snapshot: Mapping) -> list[dict]:
    """One ``{"metric", "value"}`` row per recorded metric, sorted by name."""
    rows = [
        {"metric": name, "value": value}
        for name, value in sorted(_scalar_metrics(snapshot).items())
    ]
    for name, summary in sorted(_histogram_summaries(snapshot).items()):
        mean = summary["mean"]
        peak = summary["max"]
        rows.append(
            {
                "metric": name,
                "value": (
                    f"n={summary['count']}"
                    + (f", mean={mean:.6g}" if mean is not None else "")
                    + (f", max={peak:.6g}" if peak is not None else "")
                ),
            }
        )
    return rows


def span_rows(snapshot: Mapping, limit: int = 15) -> list[dict]:
    """The snapshot's top spans as report rows, slowest first."""
    spans = sorted(
        snapshot.get("spans") or (),
        key=lambda record: record["duration_seconds"],
        reverse=True,
    )
    return [
        {
            "span": record["name"],
            "depth": record["depth"],
            "start_s": round(float(record["start"]), 4),
            "duration_s": round(float(record["duration_seconds"]), 6),
        }
        for record in spans[: max(int(limit), 0)]
    ]


def diff_snapshots(a: Mapping, b: Mapping) -> list[dict]:
    """Metric-by-metric comparison rows between two snapshots.

    Counters and gauges compare by value; histograms compare their count
    and mean.  ``delta`` is ``b - a`` and ``ratio`` is ``b / a`` (``None``
    where undefined), so regressions read directly off the ratio column.
    """
    rows: list[dict] = []

    def compare(name: str, left: object, right: object) -> dict:
        delta = None
        ratio = None
        if isinstance(left, (int, float)) and isinstance(right, (int, float)):
            delta = right - left
            ratio = right / left if left else None
        return {
            "metric": name,
            "a": left,
            "b": right,
            "delta": delta,
            "ratio": None if ratio is None else round(ratio, 4),
        }

    scalars_a = _scalar_metrics(a)
    scalars_b = _scalar_metrics(b)
    for name in sorted(set(scalars_a) | set(scalars_b)):
        rows.append(compare(name, scalars_a.get(name), scalars_b.get(name)))
    hists_a = _histogram_summaries(a)
    hists_b = _histogram_summaries(b)
    for name in sorted(set(hists_a) | set(hists_b)):
        left = hists_a.get(name, {})
        right = hists_b.get(name, {})
        rows.append(compare(f"{name}.count", left.get("count"), right.get("count")))
        rows.append(compare(f"{name}.mean", left.get("mean"), right.get("mean")))
    return rows


# ------------------------------------------------------------- maintenance


def gc_orphan_snapshots(store: "ArtifactStore") -> tuple[int, int]:
    """Reap telemetry snapshots whose run journal is gone from ``store``.

    A snapshot is an observability artifact *about* a journaled run; once
    the run's journal records and index entry have been evicted (or the
    run id was never journaled in this store), the snapshot describes
    nothing that can be resumed or re-read and is reclaimed.  Returns
    ``(removed, freed_bytes)``.
    """
    from ..store.runs import list_runs

    live = {row["run_id"] for row in list_runs(store)}
    removed = 0
    freed = 0
    for entry in store.entries(TELEMETRY_NAMESPACE):
        payload = store.read_entry(entry)
        run_id = payload.get("run_id") if isinstance(payload, dict) else None
        if run_id is not None and run_id in live:
            continue
        try:
            entry.path.unlink()
        except OSError:
            continue
        removed += 1
        freed += entry.size_bytes
    return removed, freed
