"""Benchmark and smoke-check of the persistent artifact store (`repro.store`).

Two measurements:

* **Cold vs warm CLI invocation** (default, ``--smoke`` for CI sizing) —
  the same multi-scenario ``repro experiment pareto`` run twice through
  the real CLI against one store directory.  The first invocation pays
  trace generation, NHPP/ADMM fits, reference replays, sweep replays; the
  second finds the prepared workloads *and* (via ``--run-id``) every
  journaled result row on disk, so it performs zero model fits and zero
  replays.  The script reports both the store-only
  effect (an in-process re-run with a fresh memory cache must count zero
  fits, ``cache.misses`` in its telemetry) and the end-to-end wall-clock
  speedup.

* **Kill/resume round-trip** (``--resume-smoke``) — a child process starts
  the same sweep with a ``run_id``, is SIGKILLed after the first few tasks
  are journaled, and the parent resumes the run with the same id; the
  merged rows must be bit-identical to an uninterrupted run that never
  touched a store.

Runs standalone for CI smoke jobs::

    python benchmarks/bench_store.py --smoke
    python benchmarks/bench_store.py --resume-smoke
"""

from __future__ import annotations

import argparse
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from repro.api import Session
from repro.store import ArtifactStore

#: Representative multi-scenario sweep: steady + adversarial + spiky + paper.
_BENCH_SCENARIOS = ("steady-state", "flash-crowd", "spiky-cron", "google")
_SEED = 7
_PLANNING_INTERVAL = 10.0
_MC_SAMPLES = 120

#: Minimum acceptable cold/warm wall-clock ratio in ``--smoke`` mode (kept
#: below the ~7-8x typically observed so CI machine noise cannot flake it).
_SMOKE_MIN_SPEEDUP = 3.0


def sweep_params(scale: float) -> dict:
    """The benchmark sweep, identical across CLI, child and parent runs."""
    return {
        "trace_names": _BENCH_SCENARIOS,
        "scale": scale,
        "seed": _SEED,
        "planning_interval": _PLANNING_INTERVAL,
        "monte_carlo_samples": _MC_SAMPLES,
    }


def _cli_command(scale: float, store_dir: str, run_id: str) -> list[str]:
    command = [sys.executable, "-m", "repro.cli", "experiment", "pareto"]
    for name in _BENCH_SCENARIOS:
        command += ["--trace", name]
    command += [
        "--scale",
        str(scale),
        "--seed",
        str(_SEED),
        "--planning-interval",
        str(_PLANNING_INTERVAL),
        "--mc-samples",
        str(_MC_SAMPLES),
        "--store-dir",
        store_dir,
        "--run-id",
        run_id,
        "--quiet",
    ]
    return command


def _timed_cli(command: list[str]) -> float:
    started = time.perf_counter()
    subprocess.run(command, check=True, capture_output=True)
    return time.perf_counter() - started


def bench_cold_warm(scale: float, smoke: bool) -> None:
    """Cold-vs-warm CLI invocation wall clock against one store directory."""
    with tempfile.TemporaryDirectory(prefix="repro-bench-store-") as tmp:
        store_dir = str(Path(tmp) / "store")
        command = _cli_command(scale, store_dir, run_id="bench-warm")
        print(f"sweep: {len(_BENCH_SCENARIOS)} scenarios at scale {scale:g}")
        cold = _timed_cli(command)
        print(f"cold CLI invocation   {cold:8.2f} s   (fits, replays, journals)")
        warm = _timed_cli(command)
        speedup = cold / warm if warm > 0 else float("inf")
        print(f"warm CLI invocation   {warm:8.2f} s   (store + journal hits only)")
        print(f"warm-run speedup      {speedup:8.1f} x")

        # Store-only effect, independent of the result journal: a fresh
        # memory cache against the warm store must perform zero model fits.
        started = time.perf_counter()
        result = Session(store=store_dir, telemetry=True).run(
            "pareto", **sweep_params(scale)
        )
        replay_only = time.perf_counter() - started
        counters = result.telemetry["counters"]
        fits = counters.get("cache.misses", 0)
        print(
            f"warm-store re-run     {replay_only:8.2f} s   "
            f"({counters.get('cache.disk_hits', 0)} disk hits, {fits} fits)"
        )
        if fits != 0:
            raise SystemExit(f"FAIL: warm store still performed {fits} model fits")
        if smoke and speedup < _SMOKE_MIN_SPEEDUP:
            raise SystemExit(
                f"FAIL: warm-run speedup {speedup:.1f}x below the "
                f"{_SMOKE_MIN_SPEEDUP:.0f}x smoke threshold"
            )
        print("cold/warm check OK: zero fits on the warm store")


def _run_child(scale: float, store_dir: str, run_id: str) -> int:
    """Child entry point: run the journaled sweep until killed."""
    Session(store=store_dir, run_id=run_id).run("pareto", **sweep_params(scale))
    return 0


def bench_resume(scale: float, kill_after: int, timeout: float) -> None:
    """Kill a journaled sweep mid-run, resume it, compare with uninterrupted."""
    params = sweep_params(scale)
    # Uninterrupted and store-less: the reference rows, one per task.
    baseline = Session(store=None).run("pareto", **params).rows
    n_tasks = len(baseline)
    print(f"sweep: {n_tasks} tasks; killing the child after ~{kill_after} journal")

    with tempfile.TemporaryDirectory(prefix="repro-bench-resume-") as tmp:
        store_dir = str(Path(tmp) / "store")
        run_id = "bench-resume"
        child = subprocess.Popen(
            [
                sys.executable,
                __file__,
                "--child",
                "--store-dir",
                store_dir,
                "--run-id",
                run_id,
                "--scale",
                str(scale),
            ],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        store = ArtifactStore(store_dir)
        deadline = time.monotonic() + timeout
        journaled = 0
        while time.monotonic() < deadline and child.poll() is None:
            journaled = len(store.entries("results"))
            if journaled >= kill_after:
                break
            time.sleep(0.05)
        child.kill()
        child.wait()
        journaled = len(store.entries("results"))
        print(f"child killed with {journaled}/{n_tasks} tasks journaled")
        if journaled == 0:
            raise SystemExit("FAIL: child was killed before journaling anything")
        if journaled >= n_tasks:
            raise SystemExit(
                "FAIL: child finished before the kill; nothing was interrupted "
                "(increase --scale)"
            )

        started = time.perf_counter()
        resumed = Session(store=store, run_id=run_id).run("pareto", **params).rows
        print(f"resumed run           {time.perf_counter() - started:8.2f} s")

        if resumed != baseline:
            raise SystemExit(
                "FAIL: resumed rows differ from the uninterrupted run"
            )
        print(
            f"resume check OK: {len(resumed)} rows bit-identical to the "
            "uninterrupted run"
        )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI sizing for the cold/warm benchmark, with hard assertions",
    )
    parser.add_argument(
        "--resume-smoke",
        action="store_true",
        help="run the kill/resume bit-identity check instead of the benchmark",
    )
    parser.add_argument("--scale", type=float, default=None, help="trace size factor")
    parser.add_argument(
        "--kill-after",
        type=int,
        default=3,
        help="journal entries to wait for before killing the child",
    )
    parser.add_argument(
        "--timeout", type=float, default=300.0, help="child watchdog (seconds)"
    )
    # Internal child mode for the resume check.
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--store-dir", default=None, help=argparse.SUPPRESS)
    parser.add_argument("--run-id", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.child:
        return _run_child(args.scale, args.store_dir, args.run_id)
    if args.resume_smoke:
        scale = 0.1 if args.scale is None else args.scale
        bench_resume(scale, kill_after=args.kill_after, timeout=args.timeout)
        return 0
    scale = (0.1 if args.smoke else 0.2) if args.scale is None else args.scale
    bench_cold_warm(scale, smoke=args.smoke)
    return 0


if __name__ == "__main__":
    sys.exit(main())
