"""Tier-2 smoke for the unified experiment API (`repro.api`).

Two end-to-end assertions, matching the API-redesign acceptance criteria:

1. **Session on a cold store** — one registry experiment runs end-to-end
   through :class:`repro.api.Session` against a freshly created artifact
   store, resolves the batched engine by default, journals under a
   ``run_id``, and a second (warm) session run resumes every task from the
   journal with bit-identical rows.
2. **Registry-generated CLI** — every ``repro experiment <name>`` subparser
   carries no orphaned argparse flags: each option is derived from the
   experiment's parameter schema or the uniform session knobs, and
   ``--help`` renders for all of them.

Run standalone::

    python benchmarks/bench_api.py --smoke
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import time
from pathlib import Path

from repro.api import Session, experiment_names, get_experiment
from repro.api.cligen import audit_parser
from repro.cli import build_parser

from conftest import print_artifact


def _subparser_map(parser) -> dict:
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return dict(action.choices)
    return {}


def check_cli_fully_generated() -> list[dict]:
    """Audit every generated subcommand; raise on any orphaned flag."""
    top = _subparser_map(build_parser())
    experiment_parsers = _subparser_map(top["experiment"])
    missing = set(experiment_names()) - set(experiment_parsers)
    if missing:
        raise AssertionError(f"experiments without CLI subcommands: {sorted(missing)}")
    rows = []
    for name, sub in sorted(experiment_parsers.items()):
        orphans = audit_parser(sub, get_experiment(name))
        if orphans:
            raise AssertionError(f"{name}: orphaned CLI flags {orphans}")
        n_options = sum(1 for a in sub._actions if a.option_strings)
        rows.append({"subcommand": f"experiment {name}", "options": n_options, "orphans": 0})
        sub.format_help()  # --help must render
    return rows


def check_cold_store_session(scale: float = 0.05) -> list[dict]:
    """Run pareto through a Session against a cold store, then resume."""
    with tempfile.TemporaryDirectory(prefix="repro-api-smoke-") as tmp:
        store_dir = Path(tmp) / "store"
        params = dict(
            trace_names=("steady-state", "flash-crowd"),
            scale=scale,
            monte_carlo_samples=60,
            planning_interval=20.0,
        )

        started = time.perf_counter()
        cold_session = Session(store=store_dir, run_id="api-smoke")
        cold = cold_session.experiment("pareto").run(**params)
        cold_seconds = time.perf_counter() - started
        assert cold.rows, "cold Session run produced no rows"
        assert cold.provenance.engine == "batched"
        assert cold.provenance.n_tasks > 0 and cold.provenance.n_resumed == 0
        assert cold.provenance.scenario_digest

        started = time.perf_counter()
        warm_session = Session(store=store_dir, run_id="api-smoke")
        warm = warm_session.experiment("pareto").run(**params)
        warm_seconds = time.perf_counter() - started
        assert warm.provenance.n_resumed == warm.provenance.n_tasks, (
            "warm run should recover every task from the journal"
        )
        assert warm.rows == cold.rows

        # The reference-engine escape hatch agrees bit-for-bit.
        reference = (
            Session(store=store_dir, engine="reference")
            .experiment("pareto")
            .run(**params)
        )
        assert reference.rows == cold.rows

    return [
        {
            "check": "cold Session run (batched default)",
            "tasks": cold.provenance.n_tasks,
            "seconds": round(cold_seconds, 2),
        },
        {
            "check": "warm resume (journal recovery)",
            "tasks": warm.provenance.n_resumed,
            "seconds": round(warm_seconds, 2),
        },
        {
            "check": "engine='reference' escape hatch row parity",
            "tasks": reference.provenance.n_tasks,
            "seconds": None,
        },
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="CI-sized run")
    parser.add_argument("--scale", type=float, default=None)
    args = parser.parse_args(argv)
    scale = args.scale if args.scale is not None else (0.05 if args.smoke else 0.1)

    cli_rows = check_cli_fully_generated()
    print_artifact("Registry-generated CLI audit (0 orphans required)", cli_rows)
    session_rows = check_cold_store_session(scale=scale)
    print_artifact("Session end-to-end on a cold store", session_rows)
    print("\nbench_api: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
