"""The programmatic entry point: ``Session(...).run(name, **params)``.

This module is the one documented way to drive the reproduction from Python::

    from repro.api import Session

    session = Session(workers=4)                    # store on
    result = session.run(
        "pareto",
        trace_names="cold-start-services",
        scale=0.1,
        monte_carlo_samples=150,
    )
    result.rows                  # list[dict], as the drivers always returned
    result.column("hit_rate")    # columnar access
    result.provenance.n_tasks    # how many tasks the run evaluated

A :class:`Session` holds the cross-cutting execution knobs — artifact
``store``, ``workers``, ``seed`` override, ``run_id`` journaling, progress
streaming — and threads them uniformly through every experiment via a
:class:`RunContext`.  The experiment itself is addressed by registry name
(:mod:`repro.api.registry`) and parameterized by its declared schema, so
the combination of any scenario and any scaler grid is reachable without
touching driver code.  Pass ``store=None`` for a run that writes nothing
to disk.  Every replay runs on the batched engine; the per-query
reference engine is the oracle the tests compare it against.
"""

from __future__ import annotations

import csv
import os
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator, Sequence

from ..exceptions import ValidationError
from ..runtime.executor import run_tasks
from ..telemetry import Recorder, build_snapshot, persist_snapshot
from ..telemetry import use as telemetry_use
from .registry import get_experiment

__all__ = [
    "Session",
    "RunContext",
    "ResultSet",
    "Provenance",
]


class ProgressHook:
    """Observer protocol for incremental experiment progress.

    ``begin(total)`` is called once the task batch size is known,
    ``update(result)`` once per completed task (journal-recovered tasks
    first, marked ``result.resumed``), ``finish()`` when the run ends.  The
    CLI's live progress line implements this; the default implementation is
    a no-op so subclasses override only what they need.
    """

    def begin(self, total: int) -> None:  # pragma: no cover - trivial
        pass

    def update(self, result) -> None:  # pragma: no cover - trivial
        pass

    def finish(self) -> None:  # pragma: no cover - trivial
        pass


@dataclass
class RunContext:
    """Execution context threaded through every experiment runner.

    The registry runners receive one of these as their second argument and
    route all task execution through :meth:`run_rows`, which applies the
    session's ``workers`` / ``store`` / ``run_id`` uniformly and streams
    per-task completions to the progress hook.
    """

    workers: int | None = None
    store: Any = None
    run_id: str | None = None
    progress: ProgressHook | None = None
    #: Run-level telemetry recorder (``None`` → telemetry disabled; the
    #: ambient no-op recorder applies everywhere).
    recorder: Recorder | None = None
    #: Filled by :meth:`run_rows`: workload identities and task count, used
    #: for provenance.
    workload_keys: list = field(default_factory=list)
    n_tasks: int = 0
    n_resumed: int = 0

    def run_rows(self, tasks: Sequence, *, base_seed: int) -> list[dict]:
        """Execute a task batch with the session's uniform execution knobs."""
        tasks = list(tasks)
        self.n_tasks += len(tasks)
        seen = set(self.workload_keys)
        for task in tasks:
            key = task.group_key()
            if key not in seen:
                seen.add(key)
                self.workload_keys.append(key)
        if self.progress is not None:
            self.progress.begin(self.n_tasks)

        def _on_result(result) -> None:
            if result.resumed:
                self.n_resumed += 1
            if self.progress is not None:
                self.progress.update(result)

        results = run_tasks(
            tasks,
            base_seed=base_seed,
            workers=self.workers,
            store=self.store,
            run_id=self.run_id,
            on_result=_on_result,
            recorder=self.recorder,
        )
        return [result.row for result in results]


@dataclass(frozen=True)
class Provenance:
    """Where a :class:`ResultSet` came from, for reports and caching audits.

    ``scenario_digest`` fingerprints the exact workload identities the run
    evaluated (scenario names, scales, seeds and preparation settings — the
    same keys the artifact store addresses preparations by); two runs with
    equal digests replayed the same prepared workloads.
    """

    experiment: str
    params: dict
    seed: int | None
    workers: int | None
    run_id: str | None
    package_version: str
    scenario_digest: str | None
    n_tasks: int
    n_resumed: int
    duration_seconds: float


class ResultSet:
    """Typed result of one experiment run: rows, columnar access, provenance.

    ``telemetry`` holds the run's telemetry snapshot (the same plain dict
    persisted to the store's ``telemetry`` namespace) when the session ran
    with ``telemetry=True``, else ``None``.
    """

    def __init__(
        self,
        rows: list[dict],
        provenance: Provenance,
        telemetry: dict | None = None,
    ) -> None:
        self.rows = rows
        self.provenance = provenance
        self.telemetry = telemetry

    # ------------------------------------------------------------ sequence

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[dict]:
        return iter(self.rows)

    def __getitem__(self, index):
        return self.rows[index]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ResultSet({self.provenance.experiment!r}, n_rows={len(self.rows)})"

    # ------------------------------------------------------------ columnar

    @property
    def columns(self) -> list[str]:
        """Union of row columns, in first-appearance order."""
        ordered: dict[str, None] = {}
        for row in self.rows:
            for key in row:
                ordered.setdefault(key, None)
        return list(ordered)

    def column(self, name: str, default: Any = None) -> list:
        """The values of one column across all rows (``default`` where absent)."""
        return [row.get(name, default) for row in self.rows]

    def to_columns(self) -> dict[str, list]:
        """The whole result as a column-name → value-list mapping."""
        return {name: self.column(name) for name in self.columns}

    def table(self, title: str | None = None) -> str:
        """The rows rendered as the CLI's plain-text table."""
        from ..metrics.report import format_table

        return format_table(
            self.rows, title=title or f"Experiment: {self.provenance.experiment}"
        )

    # -------------------------------------------------------------- export

    def to_dicts(self) -> list[dict]:
        """Independent copies of the rows (safe to mutate)."""
        return [dict(row) for row in self.rows]

    def to_csv(self, path: str | os.PathLike) -> Path:
        """Write the rows as CSV (header = :attr:`columns`) and return the path.

        Rows missing a column write an empty cell, so ragged row sets (e.g.
        sweeps mixing metric columns) stay loadable by any CSV reader.
        """
        target = Path(path)
        with open(target, "w", encoding="utf-8", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=self.columns, restval="")
            writer.writeheader()
            writer.writerows(self.rows)
        return target

    def to_dataframe(self):
        """The rows as a :class:`pandas.DataFrame` (requires pandas).

        Ragged row sets become NaN cells, mirroring :meth:`to_csv`'s empty
        cells.  pandas is an optional dependency — it is only imported
        here, so every other part of the package works without it.
        """
        try:
            import pandas
        except ImportError as exc:
            raise ImportError(
                "ResultSet.to_dataframe() requires pandas, which is not "
                "installed; use to_csv()/to_columns()/to_dicts() instead, "
                "or install pandas."
            ) from exc
        return pandas.DataFrame(self.rows, columns=self.columns)


def _scenario_digest(workload_keys: Sequence) -> str | None:
    if not workload_keys:
        return None
    from ..store.artifacts import key_digest

    return key_digest(("workloads",) + tuple(workload_keys))


def _resolve_store(store: Any):
    """Accept an ArtifactStore, a path, ``"auto"`` (default dir) or ``None``."""
    from ..store import ArtifactStore, resolve_store

    if store is None or isinstance(store, ArtifactStore):
        return store
    if store == "auto":
        return resolve_store(None)
    if isinstance(store, (str, os.PathLike)):
        return ArtifactStore(store)
    raise ValidationError(
        f"store must be an ArtifactStore, a path, 'auto' or None, got {store!r}"
    )


class Session:
    """The facade threading store / workers / seed through every run.

    Parameters
    ----------
    store:
        ``"auto"`` (default) resolves the persistent artifact store from
        ``REPRO_STORE_DIR`` / the per-user cache directory; ``None``
        disables persistence; an explicit path or
        :class:`~repro.store.ArtifactStore` selects a location.
    workers:
        Process count for the runtime-backed experiments (``None`` consults
        ``REPRO_WORKERS``, defaulting to serial).
    seed:
        When set, overrides each experiment's own ``seed`` default.
    run_id:
        Journal per-task completions under this id (requires a store);
        interrupted runs resume bit-identically.
    progress:
        Optional :class:`ProgressHook` streaming per-task completions.
    telemetry:
        When ``True``, every run collects metrics and spans into a fresh
        :class:`~repro.telemetry.Recorder`: the :class:`ResultSet` carries
        the snapshot (``result.telemetry``), and with a store *and* a
        ``run_id`` the snapshot is persisted to the store's ``telemetry``
        namespace for ``repro telemetry show/diff``.  Off by default — the
        disabled path records nothing.
    """

    def __init__(
        self,
        *,
        store: Any = "auto",
        workers: int | None = None,
        seed: int | None = None,
        run_id: str | None = None,
        progress: ProgressHook | None = None,
        telemetry: bool = False,
    ) -> None:
        self.store = _resolve_store(store)
        self.workers = workers
        self.seed = seed
        self.run_id = run_id
        self.progress = progress
        self.telemetry = bool(telemetry)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        root = getattr(self.store, "root", None)
        return (
            f"Session(workers={self.workers!r}, "
            f"store={str(root) if root else None!r})"
        )

    def run(self, name: str, /, **params: Any) -> ResultSet:
        """Run the registered experiment ``name`` with ``params``.

        ``params`` are the experiment's declared schema parameters (unknown
        names raise :class:`~repro.exceptions.ValidationError`); the rest
        take their defaults.  Workers, store and journaling apply only to
        runtime-backed experiments, so the others run with none of them and
        report ``provenance.workers`` and ``provenance.run_id`` as ``None``.
        """
        spec = get_experiment(name)
        recorder = Recorder() if self.telemetry else None
        ctx = RunContext(
            workers=self.workers if spec.runtime else None,
            store=self.store if spec.runtime else None,
            run_id=self.run_id if spec.runtime else None,
            progress=self.progress,
            recorder=recorder,
        )
        resolved = spec.resolve(params)
        if self.seed is not None and any(p.name == "seed" for p in spec.params):
            resolved["seed"] = spec.param("seed").coerce(self.seed)
        started = time.perf_counter()
        activation = telemetry_use(recorder) if recorder is not None else nullcontext()
        outer_span = (
            recorder.span(f"experiment.{spec.name}")
            if recorder is not None
            else nullcontext()
        )
        try:
            with activation, outer_span:
                rows = spec.run(resolved, ctx)
        finally:
            if ctx.progress is not None:
                ctx.progress.finish()
        from .. import __version__

        provenance = Provenance(
            experiment=spec.name,
            params=resolved,
            seed=resolved.get("seed"),
            workers=ctx.workers,
            run_id=ctx.run_id,
            package_version=__version__,
            scenario_digest=_scenario_digest(ctx.workload_keys),
            n_tasks=ctx.n_tasks,
            n_resumed=ctx.n_resumed,
            duration_seconds=time.perf_counter() - started,
        )
        telemetry_snapshot = None
        if recorder is not None:
            telemetry_snapshot = build_snapshot(
                recorder,
                run_id=ctx.run_id,
                provenance={
                    "experiment": provenance.experiment,
                    "seed": provenance.seed,
                    "workers": provenance.workers,
                    "run_id": provenance.run_id,
                    "package_version": provenance.package_version,
                    "scenario_digest": provenance.scenario_digest,
                    "n_tasks": provenance.n_tasks,
                    "n_resumed": provenance.n_resumed,
                    "duration_seconds": provenance.duration_seconds,
                },
            )
            if ctx.store is not None and ctx.run_id is not None:
                persist_snapshot(ctx.store, telemetry_snapshot)
        return ResultSet(rows, provenance, telemetry=telemetry_snapshot)
