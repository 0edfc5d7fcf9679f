"""Tests for the command-line interface."""

from __future__ import annotations

import argparse

import pytest

from repro.cli import build_parser, main
from repro.runtime import SCALER_KINDS


class TestParser:
    def test_requires_command(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args([])

    def test_traces_command_parses(self):
        args = build_parser().parse_args(["traces"])
        assert args.command == "traces"

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.trace == "crs"
        assert args.scaler == "rs-hp"

    @pytest.mark.parametrize("kind", sorted(SCALER_KINDS))
    def test_simulate_accepts_every_scaler_kind(self, kind):
        args = build_parser().parse_args(["simulate", "--scaler", kind])
        assert args.scaler == kind

    def test_simulate_rejects_unknown_scaler_kind(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--scaler", "warp-drive"])

    def test_experiment_choices(self):
        args = build_parser().parse_args(["experiment", "table3"])
        assert args.name == "table3"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "not-an-experiment"])


def _subparser(parser, *names):
    for name in names:
        action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        parser = action.choices[name]
    return parser


def _store_dir_help(parser):
    return next(a.help for a in parser._actions if "--store-dir" in a.option_strings)


def test_store_dir_help_is_the_same_on_simulate_and_experiments():
    from repro.api import list_experiments

    parser = build_parser()
    simulate_help = _store_dir_help(_subparser(parser, "simulate"))
    assert "REPRO_STORE_DIR" in simulate_help
    runtime = [spec.name for spec in list_experiments() if spec.runtime]
    assert runtime
    for name in runtime:
        assert _store_dir_help(_subparser(parser, "experiment", name)) == simulate_help


class TestMain:
    def test_traces_listing(self, capsys):
        assert main(["traces"]) == 0
        output = capsys.readouterr().out
        for name in ("crs", "google", "alibaba"):
            assert name in output

    def test_traces_table_is_pinned(self, capsys):
        # The listing's title, columns, rows and widths, exactly.
        assert main(["traces"]) == 0
        lines = [line.rstrip() for line in capsys.readouterr().out.splitlines()]
        assert lines == [
            "Paper-tagged scenarios (registry)",
            "name     train_fraction  pending_time  description",
            "-------  --------------  ------------  "
            "-------------------------------------------------------------------",
            "alibaba  0.8             13            "
            "Alibaba-cluster-like trace: 5 days, daily spikes plus one burst",
            "crs      0.75            13            "
            "CRS-like container registry trace: 4 weeks, low QPS, weekly pattern",
            "google   0.75            13            "
            "Google-cluster-like trace: 24 hours with recurrent spikes",
        ]

    def test_experiment_table3(self, capsys):
        assert main(["experiment", "table3"]) == 0
        output = capsys.readouterr().out
        assert "improvement" in output

    @pytest.mark.parametrize("name", ["pareto", "traces", "table4", "variance"])
    def test_experiment_unknown_scenario_fails_cleanly(self, capsys, name):
        assert main(["experiment", name, "--trace", "azure"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "unknown scenario" in err
        assert len(err.strip().splitlines()) == 1

    def test_experiment_variance_rejects_a_zero_window(self, capsys):
        assert main(["experiment", "variance", "--window", "0"]) == 2
        err = capsys.readouterr().err
        # The message names the flag's parameter, not an internal keyword.
        assert err.startswith("error: window must be >= 1, got 0")
        assert len(err.strip().splitlines()) == 1

    def test_simulate_small_run(self, capsys):
        code = main(
            [
                "simulate",
                "--trace",
                "google",
                "--scale",
                "0.13",
                "--scaler",
                "bp",
                "--target",
                "2",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "hit_rate" in output

    def test_simulate_robustscaler(self, capsys):
        code = main(
            [
                "simulate",
                "--trace",
                "google",
                "--scale",
                "0.13",
                "--scaler",
                "rs-hp",
                "--target",
                "0.8",
                "--planning-interval",
                "10",
                "--mc-samples",
                "100",
            ]
        )
        assert code == 0
        assert "hit_rate" in capsys.readouterr().out


#: Run in a fresh interpreter: start-up and a baseline replay load no scipy
#: module; the first NHPP fit does.
_COLD_START_SCRIPT = """
import sys

import repro
import repro.cli
import repro.runtime.workload
import repro.scaling.adaptive_backup_pool
import repro.scaling.robustscaler
import repro.simulation.runner
import repro.workloads
from repro.config import SimulationConfig
from repro.metrics.report import summarize_result
from repro.nhpp.model import NHPPModel
from repro.scaling.backup_pool import ReactiveScaler


def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))


trace = repro.workloads.get_scenario("steady-state").build_trace(scale=0.02, seed=1)
result = repro.simulation.runner.replay(trace, ReactiveScaler(), SimulationConfig())
summarize_result(result)
assert not scipy_modules(), scipy_modules()
NHPPModel(bin_seconds=60.0).fit(trace)
assert "scipy.sparse.linalg" in scipy_modules(), scipy_modules()
"""


#: Run in a fresh interpreter: ``import repro.cli`` loads only the CLI
#: module (each command imports its own dependencies), and every public
#: name of the lazily resolved ``repro`` package still resolves.
_LAZY_IMPORT_SCRIPT = """
import sys

import repro.cli

deferred = (
    "multiprocessing",
    "concurrent.futures",
    "csv",
    "repro.api.session",
    "repro.analysis",
    "repro.store",
    "repro.runtime.executor",
)
loaded = [name for name in deferred if name in sys.modules]
assert not loaded, loaded

import repro

listed = set(dir(repro))
missing = [name for name in repro.__all__ if name not in listed]
assert not missing, missing
for name in repro.__all__:
    assert getattr(repro, name) is not None, name
"""


def _run_fresh(script: str) -> None:
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
    child = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert child.returncode == 0, child.stderr


def test_cold_start_loads_scipy_only_for_a_fit():
    """scipy is slow to import; only fitting a model may pull it in."""
    _run_fresh(_COLD_START_SCRIPT)


def test_import_cli_defers_every_command_dependency():
    """No process pool, CSV, session, linter, store or executor at import."""
    _run_fresh(_LAZY_IMPORT_SCRIPT)


def test_unknown_package_name_raises_attribute_error():
    """``__getattr__`` must raise AttributeError, so ``from repro import
    <submodule>`` falls back to importing the submodule."""
    import repro
    from repro import telemetry

    assert telemetry.__name__ == "repro.telemetry"
    with pytest.raises(AttributeError):
        repro.no_such_name  # noqa: B018
