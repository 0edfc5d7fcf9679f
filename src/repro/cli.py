"""Command-line interface for the RobustScaler reproduction.

Usage examples::

    repro traces                             # list the paper-tagged scenarios
    repro simulate --trace google --scaler rs-hp --target 0.9
    repro experiment pareto                  # regenerate the Fig. 4 data
    repro experiment table3                  # periodicity-regularization study
    repro experiment pareto --trace flash-crowd --workers 4   # any scenario
    repro experiment pareto --help           # registry-generated options
    repro workloads list                     # the scenario registry
    repro workloads generate --scenario flash-crowd --seed 7 --out fc.csv
    repro store info                         # artifact-store footprint
    repro store ls --runs                    # journaled runs with completion
    repro store gc --max-bytes 500000000 --pin workloads/
    repro experiment pareto --telemetry --run-id r1   # collect a snapshot
    repro telemetry show r1                  # metrics + slowest spans
    repro telemetry diff r1 r2               # compare two runs

The ``experiment`` subcommands are **generated from the experiment
registry** (:mod:`repro.api`): each experiment's options come
from its declared parameter schema plus the uniform session knobs
(``--workers`` / ``--run-id`` / store flags / ``--quiet``), so adding an
experiment never touches this module.  Execution routes through
:class:`repro.api.Session` — the same facade documented for programmatic
use.  Every replay runs on the batched engine.

Persistence: ``simulate`` and ``experiment`` use the disk artifact store
of :mod:`repro.store` by default, so repeated invocations reuse model
fits instead of recomputing them.  ``--store-dir`` (or the
``REPRO_STORE_DIR`` environment variable) relocates it, ``--no-store``
disables it, ``--run-id`` journals per-task completions so an
interrupted sweep resumes where it left off, and the
``store`` command group (``info`` / ``ls`` / ``gc`` / ``clear``) manages
the store's footprint.  Long runs print a live ``N/M tasks, ~Xs left``
progress line on stderr; ``--quiet`` suppresses it together with every
other stderr status line (the ``[store]`` summaries included) through the
shared :class:`repro.telemetry.Console` emitter.

Observability: ``--telemetry`` on any runtime-backed command collects
metrics and spans (:mod:`repro.telemetry`); with ``--run-id`` the snapshot
persists in the store's ``telemetry`` namespace, where ``repro telemetry
show <run-id>`` and ``repro telemetry diff <a> <b>`` read it back.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Sequence

from .exceptions import (
    ConfigurationError,
    ExperimentError,
    PlanningError,
    ValidationError,
    WorkloadError,
)

# Every other import is deferred to the parser or the command that uses it,
# so ``import repro.cli`` stays cheap and each command loads only its own
# dependencies (README "Start-up").

__all__ = ["main", "build_parser"]


def _add_store_dir_flag(parser: argparse.ArgumentParser) -> None:
    from .store import STORE_DIR_ENV_VAR

    parser.add_argument(
        "--store-dir",
        default=None,
        help=(
            "artifact-store directory (default: the "
            f"{STORE_DIR_ENV_VAR} environment variable, else ~/.cache/repro/store)"
        ),
    )


def _store_summary(store) -> str:
    """One-line report of what the store did for this invocation.

    Counters are per-handle: with ``--workers N`` the pool workers' own
    reads/writes happen in their processes and are not included here.
    """
    stats = store.stats()
    return (
        f"[store] {stats.hits} artifact reads, {stats.writes} writes "
        f"in this process ({store.root})"
    )


def build_parser() -> argparse.ArgumentParser:
    """Build the CLI argument parser (experiment options come from the registry)."""
    from .analysis.runner import add_lint_parser
    from .api import list_experiments
    from .api.cligen import add_param_arguments, add_session_arguments
    from .runtime.spec import SCALER_KINDS
    from .store import STORE_DIR_ENV_VAR

    parser = argparse.ArgumentParser(
        prog="robustscaler",
        description="Reproduction of RobustScaler (ICDE 2022): QoS-aware autoscaling",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("traces", help="list the registry's paper-tagged scenarios")

    simulate = subparsers.add_parser(
        "simulate", help="replay one trace with one autoscaler and print metrics"
    )
    simulate.add_argument(
        "--trace",
        default="crs",
        help="any registered scenario name (see 'workloads list'); default: crs",
    )
    simulate.add_argument("--scale", type=float, default=0.25, help="trace size factor")
    simulate.add_argument(
        "--scaler",
        default="rs-hp",
        choices=list(SCALER_KINDS),
    )
    simulate.add_argument(
        "--target",
        type=float,
        default=0.9,
        help="pool size (bp), rate factor (adapbp), or constraint level (rs-*)",
    )
    simulate.add_argument("--planning-interval", type=float, default=2.0)
    simulate.add_argument("--mc-samples", type=int, default=400)
    simulate.add_argument("--seed", type=int, default=7)
    _add_store_dir_flag(simulate)
    simulate.add_argument(
        "--no-store",
        action="store_true",
        help="disable the disk artifact store for this invocation",
    )
    simulate.add_argument(
        "--quiet",
        action="store_true",
        help="suppress stderr status lines (the [store] summary)",
    )

    experiment = subparsers.add_parser(
        "experiment",
        help="run a registered experiment (options generated from its schema)",
    )
    experiment_sub = experiment.add_subparsers(dest="name", required=True)
    for spec in list_experiments():
        title = f"{spec.artifact}: {spec.title}" if spec.artifact else spec.title
        sub = experiment_sub.add_parser(
            spec.name,
            help=title,
            description=title,
            epilog="result columns: " + ", ".join(spec.result_columns),
        )
        add_param_arguments(sub, spec)
        add_session_arguments(sub, spec, store_env_var=STORE_DIR_ENV_VAR)

    workloads = subparsers.add_parser(
        "workloads", help="workload-scenario registry: list, generate"
    )
    workloads_sub = workloads.add_subparsers(dest="workloads_command", required=True)

    workloads_sub.add_parser("list", help="list the registered workload scenarios")

    generate = workloads_sub.add_parser(
        "generate", help="generate one scenario trace and print its summary"
    )
    generate.add_argument("--scenario", required=True, help="registered scenario name")
    generate.add_argument(
        "--seed", type=int, default=None, help="seed (default: scenario default)"
    )
    generate.add_argument("--scale", type=float, default=1.0, help="trace size factor")
    generate.add_argument(
        "--out", default=None, help="optional path to save the trace as CSV"
    )

    store = subparsers.add_parser(
        "store", help="manage the persistent artifact store"
    )
    store_sub = store.add_subparsers(dest="store_command", required=True)
    store_info = store_sub.add_parser(
        "info", help="store location and per-namespace footprint"
    )
    store_ls = store_sub.add_parser("ls", help="list artifacts, oldest first")
    store_ls.add_argument(
        "--namespace",
        default=None,
        help="restrict to one namespace (workloads, results, telemetry)",
    )
    store_ls.add_argument(
        "--limit", type=int, default=50, help="maximum entries to list (default: 50)"
    )
    store_ls.add_argument(
        "--runs",
        action="store_true",
        help=(
            "list journaled runs instead of raw artifacts: one row per "
            "run id with its completion count"
        ),
    )
    store_gc = store_sub.add_parser(
        "gc", help="evict artifacts beyond age/size bounds (oldest first)"
    )
    store_gc.add_argument(
        "--max-bytes",
        type=int,
        default=None,
        help="evict oldest artifacts until the store fits in this many bytes",
    )
    store_gc.add_argument(
        "--max-age-days",
        type=float,
        default=None,
        help="evict artifacts older than this many days",
    )
    store_gc.add_argument(
        "--pin",
        action="append",
        default=None,
        metavar="KEY_PREFIX",
        help=(
            "key-digest prefix (bare, or namespace/-qualified like "
            "'workloads/') whose artifacts survive eviction; repeatable"
        ),
    )
    store_clear = store_sub.add_parser("clear", help="remove every artifact")
    for sub in (store_info, store_ls, store_gc, store_clear):
        _add_store_dir_flag(sub)

    telemetry = subparsers.add_parser(
        "telemetry",
        help="inspect per-run telemetry snapshots (collected with --telemetry)",
    )
    telemetry_sub = telemetry.add_subparsers(dest="telemetry_command", required=True)
    telemetry_show = telemetry_sub.add_parser(
        "show", help="metrics and slowest spans of one run's snapshot"
    )
    telemetry_show.add_argument("run_id", help="run id the snapshot was persisted under")
    telemetry_show.add_argument(
        "--spans",
        type=int,
        default=15,
        help="how many of the slowest spans to list (default: 15)",
    )
    telemetry_diff = telemetry_sub.add_parser(
        "diff", help="compare the metrics of two runs' snapshots"
    )
    telemetry_diff.add_argument("run_a", help="baseline run id")
    telemetry_diff.add_argument("run_b", help="comparison run id")
    for sub in (telemetry_show, telemetry_diff):
        _add_store_dir_flag(sub)

    add_lint_parser(subparsers)

    return parser


def _command_traces() -> int:
    from .metrics.report import format_table
    from .workloads import list_scenarios

    rows = [
        {
            "name": scenario.name,
            "train_fraction": scenario.train_fraction,
            "pending_time": scenario.pending_time,
            "description": scenario.description,
        }
        for scenario in list_scenarios()
        if "paper" in scenario.tags
    ]
    print(format_table(rows, title="Paper-tagged scenarios (registry)"))
    return 0


def _command_simulate(args: argparse.Namespace) -> int:
    from .metrics.report import format_table, summarize_result
    from .runtime import ScalerSpec, WorkloadCache, WorkloadSpec
    from .store import resolve_store
    from .telemetry import Console
    from .workloads import get_scenario

    store = resolve_store(args.store_dir, enabled=not args.no_store)
    cache = WorkloadCache(store=store)
    try:
        scaler_spec = ScalerSpec(
            args.scaler,
            args.target,
            planning_interval=args.planning_interval,
            monte_carlo_samples=args.mc_samples,
        )
        spec = WorkloadSpec(
            scenario=get_scenario(args.trace).name,
            scale=args.scale,
            seed=args.seed,
        )
        # Preparation validates the seed/scale and building validates the
        # target, so both belong inside the clean-error envelope.
        workload, _ = cache.get_or_prepare(spec)
        scaler = scaler_spec.build(workload, random_state=args.seed)
    except (WorkloadError, ValidationError, PlanningError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result = workload.replay(scaler)
    summary = summarize_result(result, reference_cost=workload.reference_cost)
    rows = [{"metric": key, "value": value} for key, value in summary.items()]
    print(format_table(rows, title=f"{scaler.name} on {workload.name}"))
    if store is not None:
        stats = cache.stats()
        console = Console(quiet=args.quiet)
        console.emit(
            f"[store] {stats.disk_hits} disk hits, {stats.misses} fits "
            f"({store.root})"
        )
    return 0


def _command_workloads_list() -> int:
    from .metrics.report import format_table
    from .workloads import list_scenarios

    rows = [
        {
            "name": scenario.name,
            "kind": scenario.kind,
            "horizon_hours": scenario.horizon_seconds / 3600.0,
            "bin_seconds": scenario.bin_seconds,
            "train_fraction": scenario.train_fraction,
            "pending_time": scenario.pending_time,
            "tags": ",".join(scenario.tags),
            "description": scenario.description,
        }
        for scenario in list_scenarios()
    ]
    print(format_table(rows, title="Workload scenario registry"))
    print(f"\n{len(rows)} scenarios registered")
    return 0


def _command_workloads_generate(args: argparse.Namespace) -> int:
    from .metrics.report import format_table
    from .traces.io import save_trace_csv
    from .workloads import get_scenario

    scenario = get_scenario(args.scenario)
    trace = scenario.build_trace(scale=args.scale, seed=args.seed)
    qps = trace.to_qps_series(scenario.bin_seconds)
    rows = [
        {"metric": "scenario", "value": scenario.name},
        {"metric": "seed", "value": scenario.resolve_seed(args.seed)},
        {"metric": "scale", "value": float(args.scale)},
        {"metric": "n_queries", "value": trace.n_queries},
        {"metric": "duration_hours", "value": trace.duration / 3600.0},
        {"metric": "mean_qps", "value": trace.mean_qps},
        {"metric": "peak_qps", "value": float(qps.qps.max())},
        {
            "metric": "mean_processing_seconds",
            "value": float(trace.processing_times.mean()) if trace.n_queries else 0.0,
        },
    ]
    print(format_table(rows, title=f"Generated trace: {scenario.name}"))
    if args.out:
        path = save_trace_csv(trace, args.out)
        print(f"\nsaved to {path}")
    return 0


def _command_experiment(args: argparse.Namespace) -> int:
    from .api import get_experiment
    from .api.cligen import collect_params, collect_session_kwargs
    from .api.session import Session
    from .metrics.report import format_table
    from .store import resolve_store
    from .telemetry import Console

    spec = get_experiment(args.name)
    session_kwargs = collect_session_kwargs(args, spec)
    # Quiet suppresses both the progress line and the [store] summary.
    console = Console(quiet=bool(getattr(args, "quiet", False)))
    store = None
    progress = None
    try:
        if spec.runtime:
            store = resolve_store(args.store_dir, enabled=not args.no_store)
            progress = console.progress()
        session = Session(
            store=store,
            workers=session_kwargs.get("workers"),
            run_id=session_kwargs.get("run_id"),
            progress=progress,
            telemetry=session_kwargs.get("telemetry", False),
        )
        result = session.run(args.name, **collect_params(args, spec))
    except (ExperimentError, ValidationError, WorkloadError, ConfigurationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(format_table(result.rows, title=f"Experiment: {args.name}"))
    if store is not None:
        console.emit(_store_summary(store))
    return 0


def _command_workloads(args: argparse.Namespace) -> int:
    try:
        if args.workloads_command == "list":
            return _command_workloads_list()
        if args.workloads_command == "generate":
            return _command_workloads_generate(args)
    except (WorkloadError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 2  # pragma: no cover - subparser is required


def _command_store_ls_runs(store, args: argparse.Namespace) -> int:
    from .metrics.report import format_table
    from .store import list_runs

    if args.namespace is not None:
        print(
            "note: --namespace is ignored with --runs (the run index lives "
            "in 'results')",
            file=sys.stderr,
        )
    runs = list_runs(store)
    now = time.time()
    rows = [
        {
            "run_id": run["run_id"],
            "base_seed": run["base_seed"],
            "completed": run["completed"],
            "total": "?" if run["total"] is None else run["total"],
            "age_hours": max(0.0, (now - run["updated_at"]) / 3600.0),
        }
        for run in runs[: max(args.limit, 0)]
    ]
    print(format_table(rows, title=f"Journaled runs ({len(runs)} total)"))
    return 0


def _command_store(args: argparse.Namespace) -> int:
    from .metrics.report import format_table
    from .store import resolve_store
    from .telemetry import gc_orphan_snapshots

    store = resolve_store(args.store_dir)
    if args.store_command == "info":
        info = store.info()
        rows = [
            {"metric": "root", "value": info["root"]},
            {"metric": "schema_version", "value": info["schema_version"]},
            {"metric": "total_entries", "value": info["total_entries"]},
            {"metric": "total_bytes", "value": info["total_bytes"]},
        ]
        for namespace, footprint in sorted(info["namespaces"].items()):
            rows.append(
                {
                    "metric": f"{namespace}",
                    "value": f"{footprint['count']} entries, {footprint['bytes']} bytes",
                }
            )
        print(format_table(rows, title="Artifact store"))
        return 0
    if args.store_command == "ls":
        if args.runs:
            return _command_store_ls_runs(store, args)
        try:
            entries = store.entries(args.namespace)
        except ValidationError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        rows = [
            {
                "namespace": entry.namespace,
                "digest": entry.digest,
                "size_bytes": entry.size_bytes,
                "age_hours": max(0.0, (time.time() - entry.mtime) / 3600.0),
            }
            for entry in entries[: max(args.limit, 0)]
        ]
        print(format_table(rows, title=f"Artifacts ({len(entries)} total)"))
        return 0
    if args.store_command == "gc":
        max_age = (
            None if args.max_age_days is None else args.max_age_days * 86_400.0
        )
        # Telemetry snapshots are addressed by run id; once the run journal
        # is gone they are unreachable, so reap them before the generic
        # age/size eviction.
        orphans, orphan_bytes = gc_orphan_snapshots(store)
        try:
            report = store.gc(
                max_bytes=args.max_bytes,
                max_age_seconds=max_age,
                pins=tuple(args.pin or ()),
            )
        except ValidationError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        pinned = f", {report.pinned} pinned" if report.pinned else ""
        print(
            f"removed {report.removed} artifacts ({report.freed_bytes} bytes); "
            f"kept {report.kept} ({report.kept_bytes} bytes{pinned})"
        )
        if orphans:
            print(
                f"reaped {orphans} orphaned telemetry snapshots "
                f"({orphan_bytes} bytes)"
            )
        return 0
    if args.store_command == "clear":
        removed = store.clear()
        print(f"removed {removed} artifacts from {store.root}")
        return 0
    return 2  # pragma: no cover - subparser is required


def _command_telemetry(args: argparse.Namespace) -> int:
    from .metrics.report import format_table
    from .store import resolve_store
    from .telemetry import diff_snapshots, load_snapshot, span_rows, summarize_snapshot

    store = resolve_store(args.store_dir)
    if args.telemetry_command == "show":
        snapshot = load_snapshot(store, args.run_id)
        if snapshot is None:
            print(
                f"error: no telemetry snapshot for run {args.run_id!r} in "
                f"{store.root} (run with --telemetry and --run-id to record one)",
                file=sys.stderr,
            )
            return 2
        provenance = snapshot.get("provenance") or {}
        header = [
            {"field": key, "value": value}
            for key, value in provenance.items()
            if value is not None
        ]
        if header:
            print(format_table(header, title=f"Run {args.run_id}: provenance"))
            print()
        print(
            format_table(
                summarize_snapshot(snapshot), title=f"Run {args.run_id}: metrics"
            )
        )
        spans = span_rows(snapshot, limit=max(args.spans, 0))
        if spans:
            print()
            print(
                format_table(
                    spans, title=f"Run {args.run_id}: slowest spans"
                )
            )
        return 0
    if args.telemetry_command == "diff":
        snapshots = {}
        for run_id in (args.run_a, args.run_b):
            snapshot = load_snapshot(store, run_id)
            if snapshot is None:
                print(
                    f"error: no telemetry snapshot for run {run_id!r} in "
                    f"{store.root}",
                    file=sys.stderr,
                )
                return 2
            snapshots[run_id] = snapshot
        rows = diff_snapshots(snapshots[args.run_a], snapshots[args.run_b])
        print(
            format_table(
                rows, title=f"Telemetry diff: {args.run_a} vs {args.run_b}"
            )
        )
        return 0
    return 2  # pragma: no cover - subparser is required


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "traces":
        return _command_traces()
    if args.command == "simulate":
        return _command_simulate(args)
    if args.command == "experiment":
        return _command_experiment(args)
    if args.command == "workloads":
        return _command_workloads(args)
    if args.command == "store":
        return _command_store(args)
    if args.command == "telemetry":
        return _command_telemetry(args)
    if args.command == "lint":
        from .analysis.runner import run_lint

        return run_lint(args)
    parser.error(f"unknown command {args.command!r}")
    return 2  # pragma: no cover - parser.error raises


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
