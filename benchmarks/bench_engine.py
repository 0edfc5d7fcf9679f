"""Benchmark: reference vs batched replay engine on large traces.

For each trace size (10^4 / 10^5 / 10^6 queries) and each policy family the
same trace is replayed under the reference per-query engine and the batched
engine, recording

* wall-clock seconds per engine and the resulting speedup, and
* the number of **divergent rows** between the engines — every per-query
  outcome column is compared bit-for-bit, so the reported speedups are only
  meaningful when the divergence column reads 0.

The policy grid covers both dispatch regimes: policies with an arrival
target of 0 (Reactive, TickFleet) served as whole numpy chunks, and the
top-up policies (BP, AdapBP) served through the batched engine's top-up
chunks — with deterministic pending times (the FIFO server) and, for one
BP cell, jittered ones (the per-arrival top-up loop).  The rate and pending
time keep about three replacements in flight, so the top-up pools of about
four instances hit on a fraction of arrivals well inside (0, 1) and the
top-up paths serve both hits and misses; every run checks that band.  A full
run also writes its results to ``BENCH_engine.json`` at the repo root so the
perf trajectory is recorded alongside the code.

Runs standalone for CI smoke jobs (10^4 queries only; writes JSON only
when ``--output`` is given, so the committed record stays intact)::

    python benchmarks/bench_engine.py --smoke

or in full (the 10^6-query rows substantiate the >=20x top-up-policy claim)::

    python benchmarks/bench_engine.py

or under pytest-benchmark (``pytest benchmarks/bench_engine.py``).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.config import SimulationConfig
from repro.nhpp.sampling import sample_homogeneous_arrivals
from repro.scaling.adaptive_backup_pool import AdaptiveBackupPoolScaler
from repro.scaling.backup_pool import BackupPoolScaler, ReactiveScaler
from repro.scaling.base import Autoscaler, ScalingResponse
from repro.simulation import create_simulator
from repro.types import ArrivalTrace, ScalingAction

from conftest import print_artifact

#: Per-query outcome columns compared between the engines.
_COLUMNS = (
    "hits",
    "waiting_times",
    "creation_times",
    "ready_times",
    "start_times",
    "pending_times",
    "proactive_flags",
)

#: Constant arrival rate (queries/second); the horizon scales with the size.
_RATE = 2.0

#: Pending time of every cell (seconds), and the uniform jitter of the
#: jittered cell, which breaks the pool's FIFO order.  ``_RATE *
#: _PENDING_TIME`` = 3 replacements are in flight on average, against a pool
#: of 4 (BP) or ``ceil(2 * _RATE)`` = 4 to 5 (AdapBP after its first update).
_PENDING_TIME = 1.5
_JITTER = 0.75

#: Engines timed per cell, in reporting order.
_ENGINE_NAMES = ("reference", "batched")

#: Where a full run's machine-readable results land (repo root).
_DEFAULT_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_engine.json"


class TickFleetScaler(Autoscaler):
    """Tick-driven planner scheduling future creations; arrival target 0.

    Exercises the batched engine's scheduled-creation interleaving (chunk
    splits, materializations, reactive cancellations) rather than the pure
    vectorized fast path.
    """

    name = "TickFleet"

    def __init__(self, interval: float = 5.0, burst: int = 3) -> None:
        self._interval = interval
        self._burst = burst

    @property
    def planning_interval(self) -> float:
        return self._interval

    def on_planning_tick(self, context) -> ScalingResponse:
        actions = [
            ScalingAction(creation_time=context.time + self._interval * (k + 1) / self._burst)
            for k in range(self._burst)
        ]
        return ScalingResponse(actions=actions)


def _scaler_families() -> list[tuple[str, object, float]]:
    """``(label, scaler factory, pending-time jitter)`` of every cell."""
    return [
        ("Reactive", lambda: ReactiveScaler(), 0.0),
        ("BP(B=4)", lambda: BackupPoolScaler(4), 0.0),
        ("BP(B=4) jittered", lambda: BackupPoolScaler(4), _JITTER),
        ("AdapBP(f=2)", lambda: AdaptiveBackupPoolScaler(2.0), 0.0),
        # One tick per ~500 expected arrivals, so the cell times chunks
        # between ticks rather than the planning hook itself.
        ("TickFleet", lambda: TickFleetScaler(interval=500.0 / _RATE), 0.0),
    ]


#: Families with a positive arrival target served by the FIFO top-up
#: server; these must clear the >=20x bar over the reference engine at
#: 10^6 queries.  The jittered BP cell is held to bit-parity only.
_HOOK_FAMILIES = ("BP(B=4)", "AdapBP(f=2)")

#: Families that keep a backup pool, and the band their hit rate must land
#: in at every size: a pool that always or never hits leaves the top-up
#: paths half exercised.
_POOL_FAMILIES = ("BP(B=4)", "BP(B=4) jittered", "AdapBP(f=2)")
_HIT_RATE_BAND = (0.2, 0.95)


def make_trace(n_queries: int, seed: int = 7) -> ArrivalTrace:
    """A constant-rate Poisson trace holding ~``n_queries`` arrivals."""
    horizon = n_queries / _RATE
    arrivals = sample_homogeneous_arrivals(_RATE, horizon, seed)
    return ArrivalTrace(
        arrivals, 0.5, name=f"bench-{n_queries:g}", horizon=horizon
    )


def count_divergent_rows(reference, other) -> int:
    """Rows where any outcome column differs bit-for-bit (0 = full parity)."""
    if reference.n_queries != other.n_queries:
        return max(reference.n_queries, other.n_queries)
    divergent = np.zeros(reference.n_queries, dtype=bool)
    for column in _COLUMNS:
        divergent |= getattr(reference, column) != getattr(other, column)
    mismatch = int(divergent.sum())
    if reference.unused_instance_cost != other.unused_instance_cost:
        mismatch += 1
    if len(reference.planning_times) != len(other.planning_times):
        mismatch += 1
    return mismatch


def run_engine_comparison(sizes: tuple[int, ...], seed: int = 7) -> list[dict]:
    """Time every engine on each (size, scaler) cell and check divergence."""
    rows: list[dict] = []
    for n_queries in sizes:
        trace = make_trace(n_queries, seed=seed)
        for label, factory, jitter in _scaler_families():
            results = {}
            seconds = {}
            for name in _ENGINE_NAMES:
                config = SimulationConfig(
                    pending_time=_PENDING_TIME,
                    pending_time_jitter=jitter,
                    seed=seed,
                    engine=name,
                )
                started = time.perf_counter()
                results[name] = create_simulator(config).replay(trace, factory())
                seconds[name] = time.perf_counter() - started
            rows.append(
                {
                    "n_queries": trace.n_queries,
                    "scaler": label,
                    "reference_seconds": seconds["reference"],
                    "batched_seconds": seconds["batched"],
                    "batched_speedup": seconds["reference"]
                    / max(seconds["batched"], 1e-12),
                    "divergent_rows": count_divergent_rows(
                        results["reference"], results["batched"]
                    ),
                    "hit_rate": results["batched"].hit_rate,
                }
            )
    return rows


def hit_rate_outliers(rows: list[dict]) -> list[dict]:
    """The pool-family rows whose hit rate falls outside ``_HIT_RATE_BAND``."""
    low, high = _HIT_RATE_BAND
    return [
        row
        for row in rows
        if row["scaler"] in _POOL_FAMILIES and not low <= row["hit_rate"] <= high
    ]


def write_results(rows: list[dict], path: Path) -> None:
    """Persist the comparison as JSON so the perf trajectory is tracked."""
    payload = {
        "benchmark": "engine-comparison",
        "engines": list(_ENGINE_NAMES),
        "rows": rows,
    }
    path.write_text(json.dumps(payload, indent=2) + "\n")


# --------------------------------------------------------------- pytest mode


@pytest.mark.benchmark(group="engine")
def test_engine_comparison_smoke(run_once):
    rows = run_once(run_engine_comparison, (10_000,))
    print_artifact("Engine comparison (smoke)", rows)
    assert all(row["divergent_rows"] == 0 for row in rows)
    assert hit_rate_outliers(rows) == []


# ----------------------------------------------------------- standalone mode


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="run the 10^4-query sizes only (CI tier-2)",
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help="where to write the JSON results (default: BENCH_engine.json "
        "at the repo root for a full run, nowhere for --smoke)",
    )
    args = parser.parse_args(argv)
    output = args.output
    if output is None and not args.smoke:
        output = _DEFAULT_OUTPUT

    sizes = (10_000,) if args.smoke else (10_000, 100_000, 1_000_000)
    rows = run_engine_comparison(sizes, seed=args.seed)
    print_artifact(
        "Reference vs batched engine",
        rows,
        columns=[
            "n_queries",
            "scaler",
            "reference_seconds",
            "batched_seconds",
            "batched_speedup",
            "divergent_rows",
            "hit_rate",
        ],
    )
    if output is not None:
        write_results(rows, output)
        print(f"\n[bench] results written to {output}")

    divergent = [row for row in rows if row["divergent_rows"]]
    if divergent:
        print(f"\nFAIL: {len(divergent)} cells produced divergent rows")
        return 1
    print("\nAll cells bit-identical across engines.")
    outliers = hit_rate_outliers(rows)
    for row in outliers:
        print(
            f"FAIL: {row['scaler']} hit rate {row['hit_rate']:.3f} at "
            f"{row['n_queries']} queries is outside {_HIT_RATE_BAND}"
        )
    if outliers:
        return 1
    if not args.smoke:
        headline = max(
            row["batched_speedup"] for row in rows if row["n_queries"] >= 500_000
        )
        print(f"Headline batched speedup at 10^6 queries: {headline:.1f}x")
        if headline < 10.0:
            print("FAIL: expected >=10x batched speedup on the 10^6-query trace")
            return 1
        failures = 0
        for row in rows:
            if row["n_queries"] < 500_000 or row["scaler"] not in _HOOK_FAMILIES:
                continue
            print(
                f"Batched speedup at 10^6 queries [{row['scaler']}]: "
                f"{row['batched_speedup']:.1f}x"
            )
            if row["batched_speedup"] < 20.0:
                print(
                    f"FAIL: expected >=20x batched speedup for {row['scaler']} "
                    "on the 10^6-query trace"
                )
                failures += 1
        if failures:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
