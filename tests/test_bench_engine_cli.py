"""``benchmarks/bench_engine.py`` writes its JSON record only when asked to.

A ``--smoke`` run must leave the committed full-size ``BENCH_engine.json``
alone unless ``--output`` names a file; a full run writes the record by
default.  The comparison itself is stubbed, so these tests take no time.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmarks"


def _load_module(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def bench(monkeypatch, tmp_path):
    # The benchmark imports its helpers as ``conftest`` (benchmarks/ is its
    # rootdir); give it that module for the duration of the import.
    monkeypatch.setitem(
        sys.modules, "conftest", _load_module("bench_helpers", BENCH_DIR / "conftest.py")
    )
    module = _load_module("bench_engine_under_test", BENCH_DIR / "bench_engine.py")
    calls: list[tuple[int, ...]] = []

    def fake_comparison(sizes, seed=7):
        calls.append(tuple(sizes))
        return [
            {
                "n_queries": n_queries,
                "scaler": "BP(B=4)",
                "reference_seconds": 1.0,
                "batched_seconds": 0.01,
                "batched_speedup": 100.0,
                "divergent_rows": 0,
                "hit_rate": 0.5,
            }
            for n_queries in sizes
        ]

    monkeypatch.setattr(module, "run_engine_comparison", fake_comparison)
    monkeypatch.setattr(module, "_DEFAULT_OUTPUT", tmp_path / "BENCH_engine.json")
    module.calls = calls
    return module


def test_smoke_run_writes_nothing_by_default(bench, tmp_path):
    assert bench.main(["--smoke"]) == 0
    assert bench.calls == [(10_000,)]
    assert not bench._DEFAULT_OUTPUT.exists()
    assert list(tmp_path.iterdir()) == []


def test_smoke_run_writes_an_explicit_output(bench, tmp_path):
    target = tmp_path / "smoke.json"
    assert bench.main(["--smoke", "--output", str(target)]) == 0
    assert not bench._DEFAULT_OUTPUT.exists()
    rows = json.loads(target.read_text())["rows"]
    assert [row["n_queries"] for row in rows] == [10_000]


def test_full_run_writes_the_default_record(bench):
    assert bench.main([]) == 0
    assert bench.calls == [(10_000, 100_000, 1_000_000)]
    payload = json.loads(bench._DEFAULT_OUTPUT.read_text())
    assert [row["n_queries"] for row in payload["rows"]] == [10_000, 100_000, 1_000_000]
