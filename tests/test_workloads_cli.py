"""Smoke tests for the ``workloads`` CLI subcommand and registry scenarios on the CLI."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.traces.io import load_trace_csv
from repro.workloads import scenario_names


class TestParser:
    def test_workloads_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["workloads"])

    def test_list_parses(self):
        args = build_parser().parse_args(["workloads", "list"])
        assert args.command == "workloads"
        assert args.workloads_command == "list"

    def test_generate_requires_scenario(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["workloads", "generate"])


class TestList:
    def test_lists_all_scenarios(self, capsys):
        assert main(["workloads", "list"]) == 0
        output = capsys.readouterr().out
        for name in scenario_names():
            assert name in output
        assert f"{len(scenario_names())} scenarios registered" in output
        assert len(scenario_names()) >= 10


class TestGenerate:
    def test_prints_summary(self, capsys):
        code = main(
            [
                "workloads",
                "generate",
                "--scenario",
                "flash-crowd",
                "--scale",
                "0.05",
                "--seed",
                "3",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "n_queries" in output
        assert "flash-crowd" in output

    def test_saves_csv_round_trip(self, capsys, tmp_path):
        out = tmp_path / "trace.csv"
        code = main(
            [
                "workloads",
                "generate",
                "--scenario",
                "steady-state",
                "--scale",
                "0.05",
                "--seed",
                "3",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert out.exists()
        loaded = load_trace_csv(out)
        assert loaded.n_queries > 0
        assert np.all(np.diff(loaded.arrival_times) >= 0)

    def test_unknown_scenario_fails_cleanly(self, capsys):
        code = main(["workloads", "generate", "--scenario", "nope"])
        assert code == 2
        assert "unknown scenario" in capsys.readouterr().err


class TestParetoOnLibraryScenario:
    def test_small_run_is_byte_identical_across_runs(self, capsys):
        argv = [
            "experiment",
            "pareto",
            "--trace",
            "steady-state",
            "--scale",
            "0.05",
            "--seed",
            "7",
            "--planning-interval",
            "20",
            "--mc-samples",
            "60",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "RobustScaler-HP" in first
        assert "BP(" in first
        assert "AdapBP" in first
        # Rows hold no wall clock, so the printed table reproduces exactly.
        assert main(argv) == 0
        assert capsys.readouterr().out == first


class TestSimulateRegistryIntegration:
    def test_simulate_accepts_registry_scenario(self, capsys):
        code = main(
            [
                "simulate",
                "--trace",
                "steady-state",
                "--scale",
                "0.05",
                "--scaler",
                "bp",
                "--target",
                "2",
            ]
        )
        assert code == 0
        assert "hit_rate" in capsys.readouterr().out

    def test_simulate_unknown_trace_fails_cleanly(self, capsys):
        code = main(["simulate", "--trace", "nope", "--scaler", "bp", "--target", "1"])
        assert code == 2
        assert "unknown scenario" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "scaler, target, message",
        [("rs-hp", "1.5", "HP target"), ("bp", "-2", "pool_size")],
    )
    def test_simulate_out_of_range_target_fails_cleanly(
        self, capsys, scaler, target, message
    ):
        code = main(
            [
                "simulate",
                "--trace",
                "steady-state",
                "--scale",
                "0.05",
                "--scaler",
                scaler,
                "--target",
                target,
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert len(err.strip().splitlines()) == 1
