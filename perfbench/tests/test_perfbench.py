"""Tests of the benchmark harness's own helpers.

Run from the repository root with ``python -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from perfbench.measure import (
    OUTCOME_COLUMNS,
    Tally,
    Tracer,
    count_divergent_rows,
    layer_of,
    percentile,
)

ROOT = Path(__file__).resolve().parents[2]


# ------------------------------------------------------------ percentiles


def test_percentile_is_nearest_rank_with_the_count_beyond_it():
    samples = [float(value) for value in range(100, 0, -1)]  # order must not matter
    assert percentile(samples, 50) == (50.0, 50)
    assert percentile(samples, 99) == (99.0, 1)
    assert percentile(samples, 100) == (100.0, 0)


def test_p99_rests_on_ten_samples_from_a_thousand():
    samples = [float(value) for value in range(1, 1001)]
    assert percentile(samples, 99) == (990.0, 10)
    assert percentile(samples, 99.9) == (999.0, 1)


def test_percentile_of_one_sample_and_bad_input():
    assert percentile([3.5], 99) == (3.5, 0)
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 0)


# ------------------------------------------------------------- self times


class FakeClock:
    def __init__(self, *ticks: float) -> None:
        self.ticks = list(ticks)

    def __call__(self) -> float:
        return self.ticks.pop(0)


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] > a.x [1, 7] > b.y [2, 5]; root > a.x [8, 9]
    tracer = Tracer(clock=FakeClock(0, 1, 2, 5, 7, 8, 9, 10))
    with tracer.span("root"):
        with tracer.span("a.x"):
            with tracer.span("b.y"):
                assert tracer.current == "b.y"
        with tracer.span("a.x"):
            pass
    assert tracer.current is None
    assert tracer.self_times() == [3.0, 3.0, 3.0, 1.0]
    assert [span[4] for span in tracer.spans] == [None, 0, 1, 0]
    totals = tracer.totals()
    assert totals["a.x"] == (4.0, 7.0, 2)
    by_layer = tracer.totals(key=lambda name: layer_of(name) if "." in name else None)
    assert by_layer == {"a": (4.0, 7.0, 2), "b": (3.0, 3.0, 1)}


def test_wrapped_calls_become_spans_even_when_they_raise(tmp_path):
    tracer = Tracer(clock=FakeClock(0, 1, 2, 4))

    def fails():
        raise RuntimeError("boom")

    assert tracer.wrap(lambda x: x + 1, "layer.ok")(1) == 2
    with pytest.raises(RuntimeError):
        tracer.wrap(fails, "layer.fails")()
    assert tracer.self_times() == [1.0, 2.0]
    out = tmp_path / "out" / "trace.jsonl"
    tracer.write_jsonl(out)
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert records[1] == {"id": 1, "name": "layer.fails", "start": 2, "end": 4, "parent": None}


# --------------------------------------------------------- parity counter


def result(n: int = 6, **overrides):
    columns = {column: np.arange(n, dtype=float) for column in OUTCOME_COLUMNS}
    columns.update(overrides)
    return SimpleNamespace(
        n_queries=n,
        unused_instance_cost=columns.pop("unused_instance_cost", 2.0),
        planning_times=columns.pop("planning_times", [0.0] * n),
        **columns,
    )


def test_identical_results_have_no_divergent_rows():
    assert count_divergent_rows(result(), result()) == 0


def test_a_row_counts_once_however_many_columns_differ():
    hits = np.arange(6, dtype=float)
    hits[2] = -1.0
    waiting = np.arange(6, dtype=float)
    waiting[2] = -1.0
    waiting[4] = -1.0
    assert count_divergent_rows(result(), result(hits=hits, waiting_times=waiting)) == 2


def test_lengths_unused_cost_and_planning_calls_are_compared():
    assert count_divergent_rows(result(6), result(9)) == 9
    assert count_divergent_rows(result(), result(unused_instance_cost=2.5)) == 1
    assert count_divergent_rows(result(), result(planning_times=[0.0] * 5)) == 1


# ------------------------------------------------------- failure counting


def test_tally_counts_checks_and_raised_operations():
    tally = Tally()
    assert tally.check(True, "fine")
    assert not tally.check(False, "bad output")
    assert tally.attempt("ok", lambda: 7) == 7
    assert tally.attempt("raises", lambda: 1 / 0, count=3) is None
    assert (tally.attempted, tally.failed) == (5, 4)
    assert tally.error_rate == pytest.approx(0.8)
    assert tally.failures[0] == "bad output"
    assert tally.failures[1].startswith("raises: ZeroDivisionError")


def test_empty_tally_has_no_error_rate():
    assert Tally().error_rate == 0.0


# ------------------------------------------------------------ the contract


def test_metric_names_and_units_match_benchmark_json():
    from perfbench import layers, run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(layers.PER_LAYER)
    from perfbench.workloads import WORKLOADS

    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_traced_patches_are_undone():
    from repro import telemetry
    from repro.periodicity.detector import PeriodicityDetector
    import repro.scaling.robustscaler as robustscaler

    from perfbench import layers

    detect, solve = PeriodicityDetector.detect, robustscaler.solve_hp_constrained
    with layers.traced(telemetry.Recorder()):
        assert PeriodicityDetector.detect is not detect
        assert robustscaler.solve_hp_constrained is not solve
        assert telemetry.get_recorder().enabled
    assert PeriodicityDetector.detect is detect
    assert robustscaler.solve_hp_constrained is solve
    assert not telemetry.get_recorder().enabled
