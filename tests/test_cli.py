"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


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

    def test_experiment_choices(self):
        args = build_parser().parse_args(["experiment", "table3"])
        assert args.name == "table3"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "not-an-experiment"])


class TestMain:
    def test_traces_listing(self, capsys):
        assert main(["traces"]) == 0
        output = capsys.readouterr().out
        for name in ("crs", "google", "alibaba"):
            assert name in output

    def test_experiment_table3(self, capsys):
        assert main(["experiment", "table3"]) == 0
        output = capsys.readouterr().out
        assert "improvement" in output

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


def test_cli_import_skips_scipy_stats():
    """``scipy.stats`` is slow to import; start-up must not pull it in."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c", "import sys, repro.cli; print('scipy.stats' in sys.modules)"],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "False"
