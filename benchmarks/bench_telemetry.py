"""Tier-2 smoke for the telemetry layer (`repro.telemetry`).

Three end-to-end assertions, matching the observability acceptance criteria:

1. **Snapshot artifacts** — a small experiment run twice (cold store, then
   warm) with telemetry enabled persists one snapshot per ``run_id`` in the
   store's ``telemetry/`` namespace; the warm snapshot shows the store
   actually served the second run (disk cache hits), and rows are identical
   with telemetry on and off.
2. **Overhead bound** — replaying the same prepared trace with the no-op
   recorder versus a live recorder costs less than 3% extra wall clock
   (min-of-N on the batched engine).
3. **CLI surface** — ``repro telemetry show`` and ``repro telemetry diff``
   render both persisted snapshots and exit 0.

Run standalone::

    python benchmarks/bench_telemetry.py --smoke
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import time
from pathlib import Path

from repro.api import Session
from repro.cli import main as cli_main
from repro.config import SimulationConfig
from repro.nhpp.sampling import sample_homogeneous_arrivals
from repro.scaling.backup_pool import ReactiveScaler
from repro.simulation import create_simulator
from repro.telemetry import Recorder, load_snapshot, use
from repro.types import ArrivalTrace

from conftest import print_artifact

#: Telemetry-on replay time may exceed telemetry-off by at most this factor.
MAX_OVERHEAD_RATIO = 1.03

#: Absolute slack (seconds) so sub-millisecond replays cannot trip the ratio.
OVERHEAD_EPSILON = 0.002


def check_snapshot_artifacts(scale: float) -> list[dict]:
    """Cold + warm telemetry runs must persist diffable snapshots."""
    with tempfile.TemporaryDirectory(prefix="repro-telemetry-smoke-") as tmp:
        store_dir = Path(tmp) / "store"
        params = dict(
            trace_names=("steady-state", "flash-crowd"),
            scale=scale,
            monte_carlo_samples=60,
            planning_interval=20.0,
        )

        rows = []
        snapshots = {}
        timings = {}
        for label, run_id in (("cold", "telemetry-cold"), ("warm", "telemetry-warm")):
            started = time.perf_counter()
            session = Session(store=store_dir, run_id=run_id, telemetry=True)
            result = session.run("pareto", **params)
            timings[label] = time.perf_counter() - started
            snapshot = load_snapshot(session.store, run_id)
            assert snapshot is not None, f"{label} run persisted no snapshot"
            assert snapshot["counters"]["runtime.tasks"] == len(result.rows)
            assert snapshot["spans"], f"{label} snapshot carries no spans"
            snapshots[label] = snapshot
            rows.append(result)

        warm_counters = snapshots["warm"]["counters"]
        assert (
            warm_counters.get("cache.disk_hits", 0) >= 1
            or warm_counters.get("store.hits", 0) >= 1
        ), "warm run never touched the store tier"
        assert snapshots["cold"]["counters"].get("cache.misses", 0) >= 1, (
            "cold run should have paid at least one fit"
        )

        # Telemetry observes, never perturbs: same rows with it off.
        plain = Session(store=store_dir).run("pareto", **params)
        assert plain.rows == rows[0].rows

        # CLI surface over the same store.
        store_flag = ["--store-dir", str(store_dir)]
        code = cli_main(["telemetry", "show", "telemetry-cold", *store_flag])
        assert code == 0, "telemetry show failed"
        code = cli_main(
            ["telemetry", "diff", "telemetry-cold", "telemetry-warm", *store_flag]
        )
        assert code == 0, "telemetry diff failed"

    return [
        {
            "check": "cold run snapshot (fits paid)",
            "tasks": snapshots["cold"]["counters"]["runtime.tasks"],
            "spans": len(snapshots["cold"]["spans"]),
            "seconds": round(timings["cold"], 2),
        },
        {
            "check": "warm run snapshot (store-served)",
            "tasks": snapshots["warm"]["counters"]["runtime.tasks"],
            "spans": len(snapshots["warm"]["spans"]),
            "seconds": round(timings["warm"], 2),
        },
        {
            "check": "telemetry show + diff CLI",
            "tasks": None,
            "spans": None,
            "seconds": None,
        },
    ]


def check_overhead(n_seconds: float = 40_000.0, rounds: int = 5) -> list[dict]:
    """Min-of-N replay time with telemetry on must stay within 3% of off."""
    arrivals = sample_homogeneous_arrivals(1.0, n_seconds, 11)
    trace = ArrivalTrace(arrivals, 12.0, name="overhead-guard", horizon=n_seconds)
    simulator = create_simulator(SimulationConfig(pending_time=9.0, engine="batched"))

    def best_of(telemetry: bool) -> float:
        best = float("inf")
        for _ in range(rounds):
            recorder = Recorder() if telemetry else None
            started = time.perf_counter()
            with use(recorder):
                simulator.replay(trace, ReactiveScaler())
            best = min(best, time.perf_counter() - started)
        return best

    best_of(False)  # warm caches/JIT-free interpreter state before timing
    off = best_of(False)
    on = best_of(True)
    assert on <= off * MAX_OVERHEAD_RATIO + OVERHEAD_EPSILON, (
        f"telemetry overhead too high: {on:.4f}s on vs {off:.4f}s off "
        f"({on / off:.3f}x > {MAX_OVERHEAD_RATIO}x)"
    )
    return [
        {
            "condition": "telemetry off (no-op recorder)",
            "queries": trace.n_queries,
            "best_seconds": round(off, 4),
        },
        {
            "condition": "telemetry on (live recorder)",
            "queries": trace.n_queries,
            "best_seconds": round(on, 4),
            "ratio": round(on / off, 3) if off else None,
        },
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="CI-sized run")
    parser.add_argument("--scale", type=float, default=None)
    args = parser.parse_args(argv)
    scale = args.scale if args.scale is not None else (0.05 if args.smoke else 0.1)

    artifact_rows = check_snapshot_artifacts(scale)
    print_artifact("Telemetry snapshot artifacts (cold vs warm)", artifact_rows)
    overhead_rows = check_overhead()
    print_artifact("Telemetry overhead guard (< 3% on the batched engine)", overhead_rows)
    print("\nbench_telemetry: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
