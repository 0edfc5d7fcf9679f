"""The fluent programmatic entry point: ``Session`` → experiment → ``run()``.

This module is the one documented way to drive the reproduction from Python::

    from repro.api import Session

    session = Session(workers=4)                    # store on, engine="batched"
    result = (
        session.experiment("pareto")
        .scenario("cold-start-services")
        .run(scale=0.1, monte_carlo_samples=150)
    )
    result.rows                  # list[dict], as the drivers always returned
    result.column("hit_rate")    # columnar access
    result.provenance.engine     # "batched"

A :class:`Session` holds the cross-cutting execution knobs — artifact
``store``, ``workers``, replay ``engine`` (default: the batched engine),
``seed`` override, ``run_id`` journaling, progress streaming — and threads
them uniformly through every experiment via a :class:`RunContext`.  The
experiment itself is addressed by registry name
(:mod:`repro.api.registry`) and parameterized by its declared schema, so
the combination of any scenario, any scaler grid and either engine is
reachable without touching driver code.
"""

from __future__ import annotations

import csv
import os
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping, Sequence

from ..exceptions import ValidationError
from ..runtime.executor import run_task_rows
from ..simulation.runner import resolve_engine
from ..telemetry import Recorder, build_snapshot, persist_snapshot
from ..telemetry import use as telemetry_use
from .registry import ExperimentSpec, get_experiment, list_experiments

__all__ = [
    "Session",
    "RunContext",
    "ResultSet",
    "Provenance",
    "run_experiment",
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
    per-task completions to the progress hook.  ``engine`` is always a
    concrete engine name (the session resolves ``None`` to the default,
    ``"batched"``).
    """

    workers: int | None = None
    engine: str = "batched"
    store: Any = None
    run_id: str | None = None
    progress: ProgressHook | None = None
    on_result: Callable | None = None
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
            if self.on_result is not None:
                self.on_result(result)

        return run_task_rows(
            tasks,
            base_seed=base_seed,
            workers=self.workers,
            store=self.store,
            run_id=self.run_id,
            on_result=_on_result,
            recorder=self.recorder,
        )


@dataclass(frozen=True)
class Provenance:
    """Where a :class:`ResultSet` came from, for reports and caching audits.

    ``scenario_digest`` fingerprints the exact workload identities the run
    evaluated (scenario names, scales, seeds and prep configuration — the
    same keys the artifact store addresses preparations by); two runs with
    equal digests replayed the same prepared workloads.
    """

    experiment: str
    params: dict
    seed: int | None
    engine: str
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
        return (
            f"ResultSet({self.provenance.experiment!r}, n_rows={len(self.rows)}, "
            f"engine={self.provenance.engine!r})"
        )

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


def _execute(
    spec: ExperimentSpec,
    params: Mapping[str, Any] | None,
    ctx: RunContext,
    *,
    seed: int | None = None,
) -> ResultSet:
    """Resolve parameters, run the experiment, package rows + provenance."""
    resolved = spec.resolve(params)
    if seed is not None and any(p.name == "seed" for p in spec.params):
        resolved["seed"] = spec.param("seed").coerce(seed)
    started = time.perf_counter()
    recorder = ctx.recorder
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
        engine=ctx.engine,
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
                "engine": provenance.engine,
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


class ExperimentHandle:
    """Fluent builder for one experiment run; create via :meth:`Session.experiment`."""

    def __init__(self, session: "Session", spec: ExperimentSpec) -> None:
        self._session = session
        self._spec = spec
        self._params: dict[str, Any] = {}

    @property
    def spec(self) -> ExperimentSpec:
        """The underlying registry spec."""
        return self._spec

    def scenario(self, *names: str) -> "ExperimentHandle":
        """Point the experiment at one or more registry scenarios.

        Maps onto the spec's declared scenario parameter (e.g.
        ``trace_names`` for ``pareto``, ``trace_name`` for ``table4``);
        experiments without a scenario notion reject the call.
        """
        target = self._spec.scenario_param
        if target is None:
            raise ValidationError(
                f"experiment {self._spec.name!r} does not take a scenario"
            )
        if not names:
            raise ValidationError("scenario() requires at least one scenario name")
        param = self._spec.param(target)
        if param.sequence:
            self._params[target] = tuple(names)
        else:
            if len(names) > 1:
                raise ValidationError(
                    f"experiment {self._spec.name!r} replays a single scenario; "
                    f"got {len(names)}"
                )
            self._params[target] = names[0]
        return self

    def run(self, **params: Any) -> ResultSet:
        """Execute with the staged plus given parameters; returns a ResultSet."""
        merged = {**self._params, **params}
        return self._session._run(self._spec, merged)


class Session:
    """The facade threading store / workers / engine / seed through every run.

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
    engine:
        Replay engine for every simulation: ``None`` resolves to the
        default, ``"batched"``; pass ``"reference"`` as the escape hatch to
        the per-query event loop.  Both produce bit-identical rows.
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
        engine: str | None = None,
        seed: int | None = None,
        run_id: str | None = None,
        progress: ProgressHook | None = None,
        telemetry: bool = False,
    ) -> None:
        self.store = _resolve_store(store)
        self.workers = workers
        self.engine = resolve_engine(engine)
        self.seed = seed
        self.run_id = run_id
        self.progress = progress
        self.telemetry = bool(telemetry)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        root = getattr(self.store, "root", None)
        return (
            f"Session(engine={self.engine!r}, workers={self.workers!r}, "
            f"store={str(root) if root else None!r})"
        )

    def experiment(self, name: str) -> ExperimentHandle:
        """A fluent handle on one registered experiment."""
        return ExperimentHandle(self, get_experiment(name))

    def experiments(self) -> list[ExperimentSpec]:
        """Every registered experiment spec."""
        return list_experiments()

    def context(self) -> RunContext:
        """A fresh :class:`RunContext` carrying this session's knobs."""
        return RunContext(
            workers=self.workers,
            engine=self.engine,
            store=self.store,
            run_id=self.run_id,
            progress=self.progress,
            recorder=Recorder() if self.telemetry else None,
        )

    def _run(self, spec: ExperimentSpec, params: Mapping[str, Any]) -> ResultSet:
        ctx = self.context()
        if not spec.runtime:
            # Store/journaling knobs only apply to runtime-backed
            # experiments; keep the context honest for provenance.
            ctx = replace(ctx, store=None, run_id=None)
        return _execute(spec, params, ctx, seed=self.seed)


def run_experiment(
    name: str,
    params: Mapping[str, Any] | None = None,
    *,
    workers: int | None = None,
    engine: str | None = None,
    store: Any = None,
    run_id: str | None = None,
    seed: int | None = None,
    progress: ProgressHook | None = None,
    on_result: Callable | None = None,
    telemetry: bool = False,
) -> list[dict]:
    """Functional one-shot runner returning plain rows.

    Unlike :class:`Session` (whose store defaults to ``"auto"``) the store
    is disabled unless passed explicitly.  With ``telemetry=True`` plus a store and ``run_id``, the
    run's snapshot is persisted for ``repro telemetry show`` even though
    only the rows are returned here.
    """
    spec = get_experiment(name)
    store = _resolve_store(store)
    ctx = RunContext(
        workers=workers,
        engine=resolve_engine(engine),
        store=store if spec.runtime else None,
        run_id=run_id if spec.runtime else None,
        progress=progress,
        on_result=on_result,
        recorder=Recorder() if telemetry else None,
    )
    return _execute(spec, params, ctx, seed=seed).rows
