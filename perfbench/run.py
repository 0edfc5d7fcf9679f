"""RobustScaler pipeline benchmark: one workload, one seed, one JSON result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload plan-google --seed 1 --seconds 50 --trace 0

``--trace 0`` times whole passes over the workload (trace to summary rows)
with tracing off and reports the end-to-end metrics.  ``--trace 1`` runs one
untraced and one traced pass and reports the per-layer metrics; the span
trace is written to ``perfbench/out/<workload>.trace.jsonl``.  Both modes
check every output, and the last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
NPROC = len(os.sched_getaffinity(0))
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

#: End-to-end metrics and their units, in the order BENCHMARK.json lists them.
END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

#: Fresh interpreters timed from start to inputs ready, this process included.
SETUP_SAMPLES = 3

#: Passes per untraced run: two at least, so the same-seed check has a pair.
MIN_PASSES = 2


def setup(workload_name: str, seed: int):
    """Import the program and generate the inputs; returns the trace and timings."""
    import repro.cli  # noqa: F401  (the CLI's import cost is part of set-up)

    from perfbench import workloads

    imported = time.perf_counter()
    if workload_name not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {workload_name!r}")
    trace = workloads.build_inputs(workloads.WORKLOADS[workload_name], seed)
    built = time.perf_counter()
    return trace, (built - _STARTED, imported - _STARTED, built - imported)


def setup_probe(workload_name: str, seed: int) -> tuple[float, float, float]:
    """Time :func:`setup` in a fresh interpreter, which ends before this returns."""
    completed = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload_name, "--seed", str(seed)],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return tuple(json.loads(completed.stdout.splitlines()[-1]))


def fingerprint() -> dict:
    import numpy
    import scipy

    from repro.simulation.kernels import NUMBA_AVAILABLE, scalar_backend

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu": cpu,
        "nproc": NPROC,
        "threads": {name: os.environ.get(name) for name in THREAD_VARIABLES},
        "scalar_backend": scalar_backend(),
        "numba_available": NUMBA_AVAILABLE,
    }


def one_pass(workload, trace, seed, probe, tally, first_rows):
    """Time one pass from trace to summary rows, then check its outputs.

    Returns the pass (``None`` when it raised) and its wall time.  The first
    pass is also replayed in part under the reference engine.
    """
    from perfbench import workloads

    started = time.perf_counter()
    iteration = tally.attempt(
        "pass",
        lambda: workloads.run_iteration(workload, trace, seed, probe),
        count=len(workload.policies),
    )
    wall = time.perf_counter() - started
    if iteration is not None:
        workloads.check_iteration(iteration, tally, first_rows)
        if first_rows is None:
            workloads.check_parity(workload, iteration, seed, tally)
    return iteration, wall


def end_to_end(args, workload, trace, setup_samples, tally):
    """Untraced passes until ``--seconds`` is spent; the end-to-end metrics."""
    from perfbench import workloads
    from perfbench.measure import percentile

    timer = workloads.RoundTimer()
    walls: list[float] = []
    first_rows = None
    loop_started = time.perf_counter()
    while len(walls) < MIN_PASSES or (
        time.perf_counter() - loop_started + walls[-1] <= args.seconds
    ):
        iteration, wall = one_pass(workload, trace, args.seed, timer, tally, first_rows)
        if iteration is None:
            # A pass that raised is counted; report the passes that completed.
            if walls:
                break
            return None
        walls.append(wall)
        if first_rows is None:
            first_rows = workloads.comparable_rows(iteration.rows)
            print(
                f"# hit_rate {iteration.hit_rate:.6g}, relative_cost "
                f"{iteration.relative_cost:.6g} over {len(iteration.results)} replays"
            )
        del iteration  # release the replay columns before the next pass
    for variant, samples in timer.rounds.items():
        (p50, _), (p99, beyond) = percentile(samples, 50), percentile(samples, 99)
        print(
            f"# plan latency {variant}: p50 {p50 * 1e3:.3f} ms, p99 {p99 * 1e3:.3f} ms "
            f"over {len(samples)} rounds ({beyond} beyond p99)"
        )
    print(f"# passes {len(walls)}: wall_s {[round(wall, 4) for wall in walls]}")
    values = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(sample[0] for sample in setup_samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {name: (values[name], unit) for name, unit in END_TO_END}


def per_layer(args, workload, trace, setup_samples, tally):
    """One untraced and one traced pass; the per-layer metrics."""
    from repro import telemetry

    from perfbench import layers, workloads

    timer = workloads.RoundTimer()
    untraced, untraced_wall = one_pass(workload, trace, args.seed, timer, tally, None)
    if untraced is None:
        return None
    rows = workloads.comparable_rows(untraced.rows)
    del untraced
    recorder = telemetry.Recorder()
    with layers.traced(recorder) as probe:
        iteration, traced_wall = one_pass(workload, trace, args.seed, probe, tally, rows)
    if iteration is None:
        return None
    out = ROOT / "perfbench" / "out" / f"{args.workload}.trace.jsonl"
    probe.tracer.write_jsonl(out)
    print(f"# {len(probe.tracer.spans)} spans written to {out.relative_to(ROOT)}")
    values = layers.per_layer_metrics(
        probe, recorder, iteration, traced_wall, untraced_wall, timer.rounds, setup_samples
    )
    return {name: (values[name], unit) for name, unit in layers.PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    for name in THREAD_VARIABLES:
        os.environ.setdefault(name, str(NPROC))
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        trace, own_setup = setup(args.workload, args.seed)
    except ImportError as exc:
        print(f"error: cannot import the program from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(json.dumps(own_setup))
        return 0

    from perfbench.measure import Tally
    from perfbench.workloads import WORKLOADS

    print("# env " + json.dumps(fingerprint(), sort_keys=True))
    setup_samples = [own_setup] + [
        setup_probe(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)
    ]
    tally = Tally()
    measure = per_layer if args.trace else end_to_end
    metrics = measure(args, WORKLOADS[args.workload], trace, setup_samples, tally)
    if metrics is None:
        print("error: " + "; ".join(tally.failures), file=sys.stderr)
        return 1
    for label in tally.failures:
        print(f"# FAILED {label}")
    print(f"# error_rate {tally.error_rate:.4g} ({tally.failed}/{tally.attempted} operations)")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {
                    name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
