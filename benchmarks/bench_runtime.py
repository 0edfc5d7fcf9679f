"""Benchmark of the parallel evaluation runtime (`repro.runtime`).

Two measurements:

* **Executor comparison** — the same multi-scenario task batch evaluated
  serially and on a process pool, recording wall-clock, the workload-cache
  hit counts, and (the hard guarantee) that both executors produce
  bit-identical result rows.  The speedup column is what the pool buys on
  this machine; on a single-CPU box it is ~1x by construction.
* **Vectorized NHPP sampler** — the per-bin draws of
  ``sample_arrival_times`` against the opt-in bulk construction
  (``vectorized=True``) on a 100 000-bin horizon: about 25x on a 2-core
  Xeon (python 3.11.7, numpy 2.4.6), down from about 200x before the
  default path computed its bin rates as arrays.

Runs standalone for CI smoke jobs::

    python benchmarks/bench_runtime.py --scale 0.05 --workers 2

or under pytest-benchmark (``pytest benchmarks/bench_runtime.py``).
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np
import pytest

from repro.nhpp.intensity import PiecewiseConstantIntensity
from repro.nhpp.sampling import sample_arrival_times
from repro.runtime import (
    EvalTask,
    ScalerSpec,
    WorkloadCache,
    WorkloadSpec,
    run_tasks,
)

#: Representative subset: steady + adversarial + heavy-tail + a paper trace.
_BENCH_SCENARIOS = ("steady-state", "flash-crowd", "pareto-bursts", "google")


def bench_tasks(scale: float = 0.05, seed: int = 7) -> list[EvalTask]:
    """One small autoscaler comparison per scenario, grouped by scenario."""
    planner = {"planning_interval": 10.0, "monte_carlo_samples": 120}
    scalers = [
        ScalerSpec("reactive"),
        ScalerSpec("bp", 1),
        ScalerSpec("bp", 4),
        ScalerSpec("adapbp", 10.0),
        ScalerSpec("rs-hp", 0.5, **planner),
        ScalerSpec("rs-hp", 0.9, **planner),
        ScalerSpec("rs-rt", 5.0, **planner),
        ScalerSpec("rs-cost", 5.0, **planner),
    ]
    return [
        EvalTask(
            WorkloadSpec(scenario=name, scale=scale, seed=seed),
            scaler,
            extra=(("scenario", name),),
        )
        for name in _BENCH_SCENARIOS
        for scaler in scalers
    ]


def run_executor_comparison(
    scale: float = 0.05, workers: int = 2, seed: int = 7
) -> dict:
    """Evaluate one task batch serially and in parallel; compare and time."""
    tasks = bench_tasks(scale=scale, seed=seed)
    cache = WorkloadCache()

    start = time.perf_counter()
    serial = run_tasks(tasks, base_seed=seed, workers=1, cache=cache)
    serial_seconds = time.perf_counter() - start

    start = time.perf_counter()
    parallel = run_tasks(tasks, base_seed=seed, workers=workers)
    parallel_seconds = time.perf_counter() - start

    serial_rows = [r.row for r in serial]
    parallel_rows = [r.row for r in parallel]
    return {
        "n_tasks": len(tasks),
        "workers": workers,
        "serial_seconds": serial_seconds,
        "parallel_seconds": parallel_seconds,
        "speedup": serial_seconds / max(parallel_seconds, 1e-9),
        "serial_cache_hits": cache.stats().hits,
        "serial_cache_misses": cache.stats().misses,
        "parallel_cache_hits": sum(1 for r in parallel if r.cache_hit),
        "rows_identical": serial_rows == parallel_rows,
    }


def run_sampler_comparison(n_bins: int = 100_000, seed: int = 7) -> dict:
    """Time the per-bin loop against the bulk sampler on a long horizon."""
    values = 0.5 + 0.4 * np.sin(np.linspace(0.0, 60.0, n_bins))
    intensity = PiecewiseConstantIntensity(values, 1.0)
    horizon = float(n_bins)

    start = time.perf_counter()
    loop = sample_arrival_times(intensity, horizon, seed)
    loop_seconds = time.perf_counter() - start

    start = time.perf_counter()
    bulk = sample_arrival_times(intensity, horizon, seed, vectorized=True)
    bulk_seconds = time.perf_counter() - start
    return {
        "n_bins": n_bins,
        "loop_seconds": loop_seconds,
        "loop_arrivals": int(loop.size),
        "vectorized_seconds": bulk_seconds,
        "vectorized_arrivals": int(bulk.size),
        "speedup": loop_seconds / max(bulk_seconds, 1e-9),
    }


# --------------------------------------------------------------- pytest mode

try:  # pytest-only helpers; absent when run as a plain script elsewhere
    from conftest import print_artifact
except ImportError:  # pragma: no cover - script fallback below
    from repro.metrics.report import format_table

    def print_artifact(title, rows, columns=None):
        banner = "=" * max(20, len(title))
        print(f"\n{banner}\n{title}\n{banner}")
        print(format_table(rows, columns=columns))


def test_runtime_serial_vs_parallel(run_once):
    report = run_once(run_executor_comparison, scale=0.05, workers=2)
    print_artifact("Runtime executor comparison", [report])
    assert report["rows_identical"], "serial and parallel rows diverged"
    # One preparation per unique workload key, shared by every sweep point.
    assert report["serial_cache_misses"] == len(_BENCH_SCENARIOS)
    assert report["serial_cache_hits"] == report["n_tasks"] - len(_BENCH_SCENARIOS)


def test_vectorized_sampler_speedup(run_once):
    report = run_once(run_sampler_comparison, n_bins=100_000)
    print_artifact("Vectorized NHPP sampler (1e5 bins)", [report])
    assert report["speedup"] > 5.0
    # Same distribution: realized totals agree within Poisson noise.
    assert report["vectorized_arrivals"] == (
        pytest.approx(report["loop_arrivals"], rel=0.1)
    )


# --------------------------------------------------------------- script mode


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark the parallel evaluation runtime"
    )
    parser.add_argument("--scale", type=float, default=0.05, help="trace size factor")
    parser.add_argument("--workers", type=int, default=2, help="pool size to compare")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--bins", type=int, default=100_000, help="sampler benchmark horizon bins"
    )
    args = parser.parse_args(argv)

    executor_report = run_executor_comparison(
        scale=args.scale, workers=args.workers, seed=args.seed
    )
    print_artifact("Runtime executor comparison", [executor_report])
    sampler_report = run_sampler_comparison(n_bins=args.bins, seed=args.seed)
    print_artifact(f"Vectorized NHPP sampler ({args.bins} bins)", [sampler_report])

    if not executor_report["rows_identical"]:
        print("FAIL: serial and parallel executors produced different rows")
        return 1
    print(
        f"\nOK: {executor_report['n_tasks']} tasks, "
        f"serial {executor_report['serial_seconds']:.1f}s vs "
        f"parallel({executor_report['workers']}) "
        f"{executor_report['parallel_seconds']:.1f}s "
        f"(speedup {executor_report['speedup']:.2f}x, identical rows); "
        f"sampler speedup {sampler_report['speedup']:.0f}x"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
