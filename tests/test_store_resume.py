"""Tests for resumable experiment runs (`run_tasks(..., run_id=...)`).

The headline guarantee: a run that is killed mid-way and restarted with the
same task list, base seed, store and ``run_id`` produces rows bit-identical
to an uninterrupted run — journaled tasks are recovered verbatim (pickle
preserves floats exactly) and the per-task ``SeedSequence.spawn`` seeding
makes the remaining tasks independent of what ran before the interruption.
"""

from __future__ import annotations

import pytest

from repro.exceptions import ValidationError
from repro.runtime import (
    EvalResult,
    EvalTask,
    FunctionTask,
    ScalerSpec,
    WorkloadSpec,
    run_task_rows,
    run_tasks,
)
from repro.store import ArtifactStore, RunJournal, list_runs


@pytest.fixture
def store(tmp_path) -> ArtifactStore:
    return ArtifactStore(tmp_path / "store")


def small_tasks() -> list[EvalTask]:
    tasks: list[EvalTask] = []
    for name in ("steady-state", "flash-crowd"):
        workload = WorkloadSpec(scenario=name, scale=0.05, seed=7)
        specs = [
            ScalerSpec("reactive"),
            ScalerSpec("bp", 2),
            ScalerSpec("rs-hp", 0.7, planning_interval=20.0, monte_carlo_samples=60),
        ]
        tasks += [
            EvalTask(workload, spec, extra=(("scenario", name),)) for spec in specs
        ]
    return tasks


def multiply_point(*, a: float, b: float) -> dict:
    """Deterministic FunctionTask target used by the tests below."""
    return {"a": a, "b": b, "product": a * b}


class _InterruptAfter:
    """on_result hook that simulates a crash after ``limit`` completions."""

    def __init__(self, limit: int) -> None:
        self.limit = limit
        self.seen: list[EvalResult] = []

    def __call__(self, result: EvalResult) -> None:
        self.seen.append(result)
        if len(self.seen) >= self.limit:
            raise KeyboardInterrupt


class TestResume:
    def test_run_id_requires_store(self):
        with pytest.raises(ValidationError):
            run_tasks(small_tasks()[:1], run_id="r")

    def test_interrupted_run_resumes_bit_identical(self, store):
        tasks = small_tasks()
        baseline = run_task_rows(tasks, base_seed=7)

        interrupt = _InterruptAfter(2)
        with pytest.raises(KeyboardInterrupt):
            run_tasks(
                tasks, base_seed=7, store=store, run_id="r1", on_result=interrupt
            )
        # The results namespace holds the per-task records plus the run
        # index (meta + catalog); the index's completion count is the
        # number of journaled task records.
        [run] = list_runs(store)
        journaled = run["completed"]
        assert run["run_id"] == "r1" and run["total"] == len(tasks)
        assert 0 < journaled < len(tasks)

        resumed = run_tasks(tasks, base_seed=7, store=store, run_id="r1")
        n_recovered = sum(result.resumed for result in resumed)
        assert n_recovered == journaled
        [run] = list_runs(store)
        assert run["completed"] == run["total"] == len(tasks)
        assert baseline and [r.row for r in resumed] == baseline

    def test_completed_run_resumes_everything_verbatim(self, store):
        tasks = small_tasks()[:3]
        first = run_tasks(tasks, base_seed=7, store=store, run_id="done")
        second = run_tasks(tasks, base_seed=7, store=store, run_id="done")
        assert all(result.resumed for result in second)
        # Verbatim recovery: every column matches the first run.
        assert [r.row for r in second] == [r.row for r in first]

    def test_journal_ignored_when_tasks_change(self, store):
        tasks = small_tasks()[:2]
        run_tasks(tasks, base_seed=7, store=store, run_id="r2")
        changed = [
            EvalTask(task.workload, ScalerSpec("bp", 3), extra=task.extra)
            for task in tasks
        ]
        rerun = run_tasks(changed, base_seed=7, store=store, run_id="r2")
        assert not any(result.resumed for result in rerun)

    def test_journal_keyed_by_base_seed(self, store):
        tasks = small_tasks()[:2]
        run_tasks(tasks, base_seed=7, store=store, run_id="r3")
        other_seed = run_tasks(tasks, base_seed=8, store=store, run_id="r3")
        assert not any(result.resumed for result in other_seed)

    def test_parallel_resume_matches_serial(self, store):
        tasks = small_tasks()
        baseline = run_task_rows(tasks, base_seed=7)
        interrupt = _InterruptAfter(1)
        with pytest.raises(KeyboardInterrupt):
            run_tasks(
                tasks, base_seed=7, store=store, run_id="r4", on_result=interrupt
            )
        resumed = run_task_rows(
            tasks, base_seed=7, workers=2, store=store, run_id="r4"
        )
        assert resumed == baseline


class TestRunJournal:
    """The journal and run index on their own, without the executor."""

    def test_absent_record_loads_as_none(self, store):
        journal = RunJournal(store, "j", 7)
        assert journal.load(0, "digest") is None
        assert journal.completed == 0

    def test_record_round_trips_and_counts(self, store):
        journal = RunJournal(store, "j", 7)
        payload = {"row": {"cost": 0.1 + 0.2}, "resumed": False}
        journal.record(3, "digest", payload)
        assert journal.completed == 1
        reader = RunJournal(store, "j", 7)
        assert reader.load(3, "digest") == payload
        assert reader.load(3, "digest")["row"]["cost"] == 0.1 + 0.2
        assert reader.completed == 2

    @pytest.mark.parametrize(
        "run_id,base_seed,index,digest",
        [("other", 7, 3, "d"), ("j", 8, 3, "d"), ("j", 7, 4, "d"), ("j", 7, 3, "e")],
    )
    def test_records_keyed_by_run_seed_index_and_digest(
        self, store, run_id, base_seed, index, digest
    ):
        RunJournal(store, "j", 7).record(3, "d", {"row": {}})
        assert RunJournal(store, run_id, base_seed).load(index, digest) is None

    @pytest.mark.parametrize("payload", [["row"], {"no_row": 1}, "row"])
    def test_malformed_record_loads_as_none(self, store, payload):
        journal = RunJournal(store, "j", 7)
        store.put("results", journal._key(0, "d"), payload)
        assert journal.load(0, "d") is None
        assert journal.completed == 0

    def test_empty_store_lists_no_runs(self, store):
        assert list_runs(store) == []

    def test_publish_index_reports_total_and_completion(self, store):
        journal = RunJournal(store, "j", 5)
        journal.publish_index(4)
        [run] = list_runs(store)
        assert (run["run_id"], run["base_seed"], run["completed"], run["total"]) == (
            "j",
            5,
            0,
            4,
        )
        journal.record(0, "d", {"row": {}})
        [run] = list_runs(store)
        assert (run["completed"], run["total"]) == (1, 4)

    def test_runs_listed_newest_first(self, store, monkeypatch):
        clock = iter([100.0, 300.0, 200.0])
        monkeypatch.setattr("repro.store.runs.time.time", lambda: next(clock))
        for run_id in ("old", "new", "middle"):
            RunJournal(store, run_id, 0).publish_index(1)
        runs = list_runs(store)
        assert [run["run_id"] for run in runs] == ["new", "middle", "old"]
        assert [run["updated_at"] for run in runs] == [300.0, 200.0, 100.0]

    def test_run_without_meta_listed_with_zero_counts(self, store):
        RunJournal(store, "evicted", 3).publish_index(2)
        store.put("results", ("run-meta", "evicted"), None)
        [run] = list_runs(store)
        assert run == {
            "run_id": "evicted",
            "base_seed": None,
            "completed": 0,
            "total": None,
            "updated_at": 0.0,
        }

    def test_lost_catalog_entry_heals_on_next_record(self, store):
        journal = RunJournal(store, "j", 7)
        journal.publish_index(2)
        store.put("results", ("run-catalog",), {})
        assert list_runs(store) == []
        journal.record(0, "d", {"row": {}})
        assert [run["run_id"] for run in list_runs(store)] == ["j"]


class TestStreaming:
    def test_on_result_sees_every_task_in_completion_order(self, store):
        tasks = small_tasks()[:4]
        seen: list[int] = []
        results = run_tasks(tasks, base_seed=7, on_result=lambda r: seen.append(r.index))
        assert sorted(seen) == list(range(len(tasks)))
        assert [result.index for result in results] == list(range(len(tasks)))

    def test_recovered_results_stream_first(self, store):
        tasks = small_tasks()[:3]
        run_tasks(tasks, base_seed=7, store=store, run_id="r5")
        seen: list[bool] = []
        run_tasks(
            tasks,
            base_seed=7,
            store=store,
            run_id="r5",
            on_result=lambda r: seen.append(r.resumed),
        )
        assert seen == [True, True, True]


class TestFunctionTasks:
    def _grid(self) -> list[FunctionTask]:
        return [
            FunctionTask(
                fn=f"{__name__}.multiply_point",
                kwargs=(("a", float(a)), ("b", 3.0)),
                extra=(("grid", "demo"),),
            )
            for a in range(4)
        ]

    def test_rows_and_annotations(self):
        rows = run_task_rows(self._grid(), base_seed=0)
        assert [row["product"] for row in rows] == [0.0, 3.0, 6.0, 9.0]
        assert all(row["grid"] == "demo" for row in rows)

    def test_parallel_matches_serial(self):
        serial = run_task_rows(self._grid(), base_seed=0)
        parallel = run_task_rows(self._grid(), base_seed=0, workers=2)
        assert serial == parallel

    def test_resumable(self, store):
        grid = self._grid()
        first = run_task_rows(grid, base_seed=0, store=store, run_id="fn")
        rerun = run_tasks(grid, base_seed=0, store=store, run_id="fn")
        assert all(result.resumed for result in rerun)
        assert [result.row for result in rerun] == first

    def test_digest_distinguishes_kwargs(self):
        a, b, *_ = self._grid()
        assert a.digest() != b.digest()
        assert a.digest() == self._grid()[0].digest()

    def test_fn_path_validated(self):
        with pytest.raises(ValidationError):
            FunctionTask(fn="notdotted")
