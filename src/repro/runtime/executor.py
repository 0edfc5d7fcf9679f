"""Task executors: serial and multi-process, with identical results.

:func:`run_tasks` evaluates a batch of :class:`~repro.runtime.spec.EvalTask`
(or :class:`~repro.runtime.spec.FunctionTask`) either in-process
(``workers=1``) or on a :class:`concurrent.futures.ProcessPoolExecutor`
(``workers=N``; when the caller passes ``workers=None`` the
``REPRO_WORKERS`` environment variable is consulted, defaulting to serial).
Both paths call the same :func:`execute_task` with the same per-task seed,
so the result rows are bit-identical.  The ablations' ``solve_time_ms``
columns measure real time and are the one exception.

Scheduling is workload-aware: tasks are grouped by their
:meth:`~repro.runtime.spec.EvalTask.group_key` and each group is shipped to
the pool as one unit (largest first), so every worker process prepares a
given workload at most once in its own
:class:`~repro.runtime.cache.WorkloadCache` and the expensive preparations
are never duplicated across sweep points.  When there are fewer groups than
workers, large groups are split so the pool stays busy; a split group may
pay one extra fit, and with a disk store attached even that disappears
whenever the preparation is already published in the store's ``workloads``
namespace — always on a warm store, and on a cold one whenever the first
half finishes fitting before the second half needs it (two halves that
start simultaneously on a cold store still race to the first fit and
publish equivalent artifacts).

Persistence (:mod:`repro.store`) adds two behaviors on top:

* ``store=`` promotes every workload cache to two tiers (memory → disk),
  shared across pool workers and across CLI invocations;
* ``run_id=`` journals each task's completion into the store's ``results``
  namespace, making the batch resumable: rerunning the same task list with
  the same ``run_id`` and ``base_seed`` skips everything already journaled
  and returns rows bit-identical to an uninterrupted run (per-task
  ``SeedSequence.spawn`` seeding makes rows independent of which tasks ran
  in which process lifetime).

``on_result=`` streams results to the caller the moment each task finishes
(journal-recovered tasks first, then live completions in whatever order the
pool produces them) for incremental progress reporting; the returned list
is still in task order.
"""

from __future__ import annotations

import os
import time
from contextlib import nullcontext
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from ..exceptions import ValidationError
from ..telemetry import Recorder, get_recorder, use as telemetry_use
from .cache import WorkloadCache
from .spec import EvalResult, EvalTask, FunctionTask, derive_task_seeds
from .workload import evaluate_prepared

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from ..store import ArtifactStore

__all__ = [
    "WORKERS_ENV_VAR",
    "execute_task",
    "resolve_workers",
    "run_task_rows",
    "run_tasks",
]

#: Environment variable consulted when no explicit worker count is given.
WORKERS_ENV_VAR = "REPRO_WORKERS"


def resolve_workers(workers: int | None = None) -> int:
    """The effective worker count: explicit argument, else env var, else 1."""
    if workers is None:
        env = os.environ.get(WORKERS_ENV_VAR, "").strip()
        if not env:
            return 1
        try:
            workers = int(env)
        except ValueError:
            raise ValidationError(
                f"{WORKERS_ENV_VAR} must be an integer, got {env!r}"
            ) from None
    workers = int(workers)
    if workers < 1:
        raise ValidationError(f"workers must be >= 1, got {workers}")
    return workers


def execute_task(
    task: EvalTask | FunctionTask,
    *,
    seed: np.random.SeedSequence | int | None = None,
    cache: WorkloadCache | None = None,
    index: int = 0,
) -> EvalResult:
    """Evaluate one task: prepare (or fetch) the workload, build, replay.

    This is the single execution path shared by the serial and process-pool
    backends; determinism across backends reduces to calling it with the
    same ``(task, seed)`` pairs.  :class:`FunctionTask` points carry their
    seeds as explicit kwargs, so the per-task seed is unused for them.
    """
    start = time.perf_counter()
    with get_recorder().span("task.execute"):
        if isinstance(task, FunctionTask):
            row = task.call()
            return EvalResult(
                index=index, row=row, wall_seconds=time.perf_counter() - start
            )
        if cache is None:
            workload, hit = task.workload.prepare(), False
        else:
            workload, hit = cache.get_or_prepare(task.workload)
        random_state = None if seed is None else np.random.default_rng(seed)
        scaler = task.scaler.build(workload, random_state=random_state)
        row = evaluate_prepared(
            workload,
            scaler,
            extra=task.row_annotations(),
            variance_window=task.variance_window,
            metrics=task.metrics,
        )
    return EvalResult(
        index=index,
        row=row,
        cache_hit=hit,
        wall_seconds=time.perf_counter() - start,
    )


# ------------------------------------------------------------------ journal


def _journal_for(store, run_id, base_seed):
    """The run journal, or ``None`` when persistence is not requested."""
    if store is None or run_id is None:
        return None
    from ..store import RunJournal

    return RunJournal(store, run_id, base_seed)


def _load_journaled(journal, tasks) -> dict[int, EvalResult]:
    """Recover completed tasks from the journal (digest-verified)."""
    recovered: dict[int, EvalResult] = {}
    for index, task in enumerate(tasks):
        payload = journal.load(index, task.digest())
        if payload is None:
            continue
        recovered[index] = EvalResult(
            index=index,
            row=payload["row"],
            cache_hit=bool(payload.get("cache_hit", False)),
            wall_seconds=float(payload.get("wall_seconds", 0.0)),
            resumed=True,
        )
    return recovered


def _journal_record(journal, task, result: EvalResult) -> None:
    journal.record(
        result.index,
        task.digest(),
        {
            "row": result.row,
            "cache_hit": result.cache_hit,
            "wall_seconds": result.wall_seconds,
        },
    )


# ----------------------------------------------------------------- backends

#: Per-worker-process workload caches, one per store location (``None`` for
#: storeless batches), populated lazily inside pool workers.
_WORKER_CACHES: dict[str | None, WorkloadCache] = {}


def _pool_execute_chunk(
    payloads: Sequence[tuple[int, EvalTask | FunctionTask, np.random.SeedSequence]],
    store: "ArtifactStore | None" = None,
    telemetry: bool = False,
    submitted_at: float | None = None,
) -> tuple[list[EvalResult], dict | None]:
    """Top-level (picklable) pool entry point using the worker-local cache.

    The cache is keyed by the store root so one worker process can serve
    batches against different stores; with a store attached, a workload
    group split across workers re-fits only when the halves race on a cold
    store — a later worker reads the earlier worker's published artifact.

    When ``telemetry`` is on, the chunk runs under a fresh worker-local
    :class:`~repro.telemetry.Recorder` and the second element of the return
    value is its plain-dict snapshot, which the parent folds into the
    run-level recorder via
    :meth:`~repro.telemetry.Recorder.merge_snapshot`.  ``submitted_at`` is
    a ``time.time()`` wall-clock stamp taken at submission, turned into the
    ``runtime.queue_wait_seconds`` histogram (cross-process, so the
    monotonic clock cannot be used).
    """
    cache_key = None if store is None else str(store.root)
    cache = _WORKER_CACHES.get(cache_key)
    if cache is None:
        cache = _WORKER_CACHES.setdefault(cache_key, WorkloadCache(store=store))
    if not telemetry:
        results = [
            execute_task(task, seed=seed, cache=cache, index=index)
            for index, task, seed in payloads
        ]
        return results, None
    recorder = Recorder()
    results = []
    with telemetry_use(recorder):
        if submitted_at is not None:
            recorder.observe(
                "runtime.queue_wait_seconds", max(0.0, time.time() - submitted_at)
            )
        for index, task, seed in payloads:
            result = execute_task(task, seed=seed, cache=cache, index=index)
            recorder.inc("runtime.tasks")
            recorder.observe("runtime.task_seconds", result.wall_seconds)
            results.append(result)
    return results, recorder.snapshot()


def _schedule_chunks(
    payloads: Sequence[tuple[int, EvalTask | FunctionTask, np.random.SeedSequence]],
    n_workers: int,
) -> list[list[tuple[int, EvalTask | FunctionTask, np.random.SeedSequence]]]:
    """Group payloads by workload key, splitting only to keep the pool busy.

    One chunk = one unit of work for a worker.  Keeping a workload's tasks
    in a single chunk means its preparation runs once; chunks are ordered
    largest-first so long groups start before the stragglers
    (longest-processing-time-first scheduling).
    """
    groups: dict[tuple, list] = {}
    for index, task, seed in payloads:
        groups.setdefault(task.group_key(), []).append((index, task, seed))
    chunks = sorted(groups.values(), key=len, reverse=True)
    # Fewer chunks than workers would leave processes idle; halve the
    # largest splittable chunk until the pool can be saturated.  Each split
    # costs at most one duplicated preparation (with a disk store, only
    # when the halves race on a cold store; otherwise the second worker
    # finds the first worker's artifact).
    while len(chunks) < n_workers:
        chunks.sort(key=len, reverse=True)
        largest = chunks[0]
        if len(largest) < 2:
            break
        half = len(largest) // 2
        chunks[0:1] = [largest[:half], largest[half:]]
    return sorted(chunks, key=len, reverse=True)


def run_tasks(
    tasks: Sequence[EvalTask | FunctionTask],
    *,
    base_seed: int = 0,
    workers: int | None = None,
    cache: WorkloadCache | None = None,
    store: "ArtifactStore | None" = None,
    run_id: str | None = None,
    on_result: Callable[[EvalResult], None] | None = None,
    recorder: Recorder | None = None,
) -> list[EvalResult]:
    """Evaluate ``tasks`` and return their results in task order.

    Parameters
    ----------
    tasks:
        The batch to evaluate.  Order is preserved in the returned list.
    base_seed:
        Root of the per-task seed derivation
        (:func:`~repro.runtime.spec.derive_task_seeds`); two runs with the
        same task list and base seed produce identical rows regardless of
        ``workers``.
    workers:
        Process count; ``None`` consults ``REPRO_WORKERS`` and defaults to
        serial execution.
    cache:
        Workload cache for the serial path (one backed by ``store`` is
        created when omitted; pass one explicitly to share preparations
        across batches or to read the hit/miss counters).  Pool workers
        always use their own process-local caches — backed by the same
        ``store`` when one is given — and per-task ``cache_hit`` flags
        report their effectiveness either way.
    store:
        Disk tier (:class:`~repro.store.ArtifactStore`): prepared workloads
        are shared across workers and CLI invocations, and ``run_id``
        journaling becomes available.
    run_id:
        Journal completions under this identifier (requires ``store``).  A
        rerun with the same task list, ``base_seed`` and ``run_id`` resumes:
        journaled tasks are recovered (marked ``resumed``) instead of
        re-executed, and the merged rows are bit-identical to an
        uninterrupted run.
    on_result:
        Callback invoked once per task as its result becomes available
        (recovered tasks first, then live completions, not necessarily in
        task order) — the incremental-progress hook.
    recorder:
        Optional :class:`~repro.telemetry.Recorder` activated for the
        duration of the batch.  The serial path records into it directly;
        pool workers each run a fresh recorder and their snapshots are
        merged back here, so the caller sees one run-level view either
        way.  Omitted → the ambient recorder (a no-op by default) applies.
    """
    tasks = list(tasks)
    if run_id is not None and store is None:
        raise ValidationError("run_id requires a store to journal into")
    seeds = derive_task_seeds(base_seed, len(tasks))
    journal = _journal_for(store, run_id, base_seed)
    results: dict[int, EvalResult] = {}
    if journal is not None:
        results = _load_journaled(journal, tasks)
        # Register the run (task total + recovered count) in the store's
        # results-namespace index so `repro store ls --runs` can group
        # journaled artifacts by run id with per-run completion counts.
        journal.publish_index(len(tasks))
        if recorder is not None and results:
            recorder.inc("runtime.resume_hits", len(results))
        if on_result is not None:
            for index in sorted(results):
                on_result(results[index])

    pending = [
        (index, task, seeds[index])
        for index, task in enumerate(tasks)
        if index not in results
    ]

    def finish(task, result: EvalResult) -> None:
        if journal is not None:
            _journal_record(journal, task, result)
        results[result.index] = result
        if on_result is not None:
            on_result(result)

    n_workers = min(resolve_workers(workers), max(len(pending), 1))
    if recorder is not None:
        recorder.inc("runtime.batches")
        recorder.set_gauge("runtime.workers", n_workers)
    if n_workers <= 1:
        cache = WorkloadCache(store=store) if cache is None else cache
        activation = telemetry_use(recorder) if recorder is not None else nullcontext()
        with activation:
            for index, task, seed in pending:
                result = execute_task(task, seed=seed, cache=cache, index=index)
                if recorder is not None:
                    recorder.inc("runtime.tasks")
                    recorder.observe("runtime.task_seconds", result.wall_seconds)
                finish(task, result)
    else:
        # Deferred: the pool's import chain (multiprocessing, sockets,
        # subprocess) is start-up cost a serial run never needs.
        from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait

        chunks = _schedule_chunks(pending, n_workers)
        telemetry = recorder is not None
        submitted_at = time.time() if telemetry else None
        with ProcessPoolExecutor(max_workers=min(n_workers, len(chunks))) as pool:
            futures = {
                pool.submit(_pool_execute_chunk, chunk, store, telemetry, submitted_at)
                for chunk in chunks
            }
            # Drain completions as they land so journaling and progress
            # streaming happen the moment a chunk finishes, not at the end.
            while futures:
                done, futures = wait(futures, return_when=FIRST_COMPLETED)
                for future in done:
                    chunk_results, snapshot = future.result()
                    if snapshot is not None and recorder is not None:
                        recorder.merge_snapshot(snapshot)
                    for result in chunk_results:
                        finish(tasks[result.index], result)
    return [results[index] for index in range(len(tasks))]


def run_task_rows(
    tasks: Sequence[EvalTask | FunctionTask],
    *,
    base_seed: int = 0,
    workers: int | None = None,
    cache: WorkloadCache | None = None,
    store: "ArtifactStore | None" = None,
    run_id: str | None = None,
    on_result: Callable[[EvalResult], None] | None = None,
    recorder: Recorder | None = None,
) -> list[dict]:
    """Like :func:`run_tasks` but return just the report rows, in task order."""
    return [
        result.row
        for result in run_tasks(
            tasks,
            base_seed=base_seed,
            workers=workers,
            cache=cache,
            store=store,
            run_id=run_id,
            on_result=on_result,
            recorder=recorder,
        )
    ]
