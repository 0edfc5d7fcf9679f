"""Tests for the unified declarative experiment API (``repro.api``).

Covers the registry (specs, parameter schemas, validation),
``Session.run`` (seed override, store and journaling only for
runtime-backed experiments, typed ``ResultSet`` with provenance),
journaled resume, the progress-streaming hook, and the property that the
``experiment`` CLI subcommands are fully generated from the registry (no
orphaned argparse flags).
"""

from __future__ import annotations

import argparse

import pytest

from repro.api import (
    ExperimentSpec,
    ParamSpec,
    ProgressHook,
    Session,
    experiment_names,
    get_experiment,
    list_experiments,
)
from repro.api.cligen import (
    add_param_arguments,
    add_session_arguments,
    audit_parser,
)
from repro.cli import build_parser, main
from repro.exceptions import ValidationError, WorkloadError
from repro.experiments.base import trace_defaults
from repro.store import ArtifactStore

#: A deliberately tiny parameterization used wherever a real run is needed.
_TINY_REG_GRID = dict(
    period_seconds=600.0,
    n_periods=2,
    bin_seconds=60.0,
    beta_smooth_values=(0.0,),
    beta_period_values=(0.0, 10.0),
    max_iterations=50,
)


class TestRegistry:
    def test_expected_experiments_registered(self):
        names = experiment_names()
        assert set(names) == {
            "traces",
            "pareto",
            "variance",
            "perturbation",
            "scalability",
            "table1",
            "robustness",
            "control",
            "planning-frequency",
            "table3",
            "table4",
            "kappa-ablation",
            "mc-sample-ablation",
            "regularization-sensitivity",
        }
        assert names == sorted(names)

    def test_unknown_experiment_fails_cleanly(self):
        with pytest.raises(ValidationError, match="unknown experiment"):
            get_experiment("not-an-experiment")

    def test_specs_are_well_formed(self):
        for spec in list_experiments():
            assert spec.title
            assert spec.description
            assert spec.result_columns
            assert any(param.name == "seed" for param in spec.params)
            if spec.runtime:
                # Runtime experiments replay or journal; they are the ones
                # the session's workers/store/run_id apply to.
                assert spec.run is not None

    def test_duplicate_registration_rejected(self):
        spec = get_experiment("traces")
        from repro.api.registry import register_experiment

        # Same spec re-registers idempotently ...
        register_experiment(spec)
        # ... a different runner under the same name does not.
        clone = ExperimentSpec(
            name="traces",
            title="x",
            params=(ParamSpec("seed", "int", 0),),
            run=lambda params, ctx: [],
            result_columns=("a",),
        )
        with pytest.raises(ValidationError, match="already registered"):
            register_experiment(clone)


class TestParamSpec:
    def test_scalar_coercion(self):
        param = ParamSpec("x", "float", 1.0)
        assert param.coerce("2.5") == 2.5
        with pytest.raises(ValidationError):
            param.coerce("not-a-number")

    def test_sequence_coercion_accepts_scalars_and_lists(self):
        param = ParamSpec("xs", "int", (1, 2), sequence=True)
        assert param.coerce([3, "4"]) == (3, 4)
        assert param.coerce(5) == (5,)

    def test_bool_coercion(self):
        param = ParamSpec("flag", "bool", True)
        assert param.coerce("false") is False
        assert param.coerce(1) is True
        with pytest.raises(ValidationError):
            param.coerce("maybe")

    def test_choices_enforced(self):
        param = ParamSpec("mode", "str", "a", choices=("a", "b"))
        assert param.coerce("b") == "b"
        with pytest.raises(ValidationError, match="must be one of"):
            param.coerce("c")

    def test_scalar_param_rejects_a_sequence(self):
        # Without the check, str() and bool() would accept any tuple.
        for kind in ("str", "bool", "int", "float"):
            with pytest.raises(ValidationError, match=f"single {kind}"):
                ParamSpec("x", kind, None).coerce(("1", "0"))
            with pytest.raises(ValidationError, match=f"single {kind}"):
                ParamSpec("x", kind, None).coerce(["1"])

    def test_resolve_rejects_unknown_parameters(self):
        spec = get_experiment("variance")
        with pytest.raises(ValidationError, match="unknown parameter"):
            spec.resolve({"no_such_param": 1})

    def test_resolve_merges_defaults(self):
        spec = get_experiment("variance")
        params = spec.resolve({"scale": "0.5"})
        assert params["scale"] == 0.5
        assert params["trace_name"] == "crs"
        assert params["hp_targets"] == (0.3, 0.6, 0.9)


class TestSessionRun:
    def test_run_is_the_one_public_method(self):
        assert [name for name in vars(Session) if not name.startswith("_")] == ["run"]

    def test_bare_scenario_name_fills_a_sequence_param(self):
        params = get_experiment("pareto").resolve({"trace_names": "flash-crowd"})
        assert params["trace_names"] == ("flash-crowd",)

    def test_scalar_scenario_param_takes_exactly_one_name(self):
        spec = get_experiment("variance")
        assert spec.resolve({"trace_name": "flash-crowd"})["trace_name"] == "flash-crowd"
        with pytest.raises(ValidationError, match="single str"):
            Session(store=None).run("variance", trace_name=("google", "crs"))

    def test_experiment_without_scenarios_rejects_a_scenario(self):
        with pytest.raises(ValidationError, match="unknown parameter"):
            Session(store=None).run("table3", trace_name="crs")

    def test_session_takes_no_engine(self):
        """Every replay runs on the batched engine; no caller picks one."""
        from dataclasses import fields

        from repro.api import Provenance

        with pytest.raises(TypeError):
            Session(store=None, engine="reference")
        with pytest.raises(ValidationError, match="unknown parameter"):
            Session(store=None).run("regularization-sensitivity", engine="reference")
        assert "engine" not in {field.name for field in fields(Provenance)}

    def test_non_runtime_experiment_ignores_store_and_run_id(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        result = Session(store=store, run_id="r").run(
            "table3", period_seconds=600.0, n_periods=2, max_iterations=20
        )
        assert len(result) == 3
        assert store.entries() == []
        assert result.provenance.run_id is None

    def test_generic_scenario_defaults_make_registry_reachable(self):
        defaults = trace_defaults("cold-start-services")
        assert set(defaults) == {"pool_sizes", "adaptive_factors", "hp_targets"}
        assert defaults["hp_targets"]
        with pytest.raises(WorkloadError, match="unknown scenario"):
            trace_defaults("azure")

    def test_run_returns_typed_resultset(self):
        result = Session(store=None).run("regularization-sensitivity", **_TINY_REG_GRID)
        assert len(result) == 2
        assert {"beta_smooth", "beta_period", "mse", "mae"} <= set(result.columns)
        assert result.column("beta_period") == [0.0, 10.0]
        assert result.to_columns()["mse"] == result.column("mse")
        assert "mse" in result.table()
        prov = result.provenance
        assert prov.experiment == "regularization-sensitivity"
        assert prov.n_tasks == 2
        assert prov.params["max_iterations"] == 50
        import repro

        assert prov.package_version == repro.__version__

    def test_result_schema_matches_observed_columns(self):
        """Guard against result_columns drifting from what drivers emit."""
        cases = {
            "regularization-sensitivity": _TINY_REG_GRID,
            "traces": {"trace_names": ("crs",), "scale": 0.1},
        }
        for name, params in cases.items():
            result = Session(store=None).run(name, **params)
            declared = set(get_experiment(name).result_columns)
            assert declared <= set(result.columns), name

    def test_session_seed_overrides_experiment_default(self):
        result = Session(store=None, seed=123).run(
            "regularization-sensitivity", **_TINY_REG_GRID
        )
        assert result.provenance.seed == 123

    def test_to_dataframe_bridges_to_pandas_or_explains(self):
        result = Session(store=None).run("regularization-sensitivity", **_TINY_REG_GRID)
        try:
            import pandas  # noqa: F401
        except ImportError:
            with pytest.raises(ImportError, match="requires pandas"):
                result.to_dataframe()
        else:
            frame = result.to_dataframe()
            assert list(frame.columns) == list(result.columns)
            assert len(frame) == len(result)
            assert list(frame["beta_period"]) == result.column("beta_period")

    def test_journaled_rerun_resumes_bit_identically(self, tmp_path):
        params = dict(
            trace_names=["steady-state"],
            scale=0.05,
            monte_carlo_samples=60,
            planning_interval=20.0,
        )
        session = Session(store=ArtifactStore(tmp_path / "store"), run_id="resume")
        first = session.run("pareto", **params)
        assert first.provenance.n_resumed == 0
        second = session.run("pareto", **params)
        assert second.provenance.n_resumed == first.provenance.n_tasks > 0
        assert second.rows == first.rows
        # And the journaled rows agree with the store-less run.
        unjournaled = Session(store=None).run("pareto", **params)
        assert first.rows == unjournaled.rows

    def test_progress_hook_streams_every_task(self):
        class Recorder(ProgressHook):
            def __init__(self):
                self.begun = []
                self.updates = 0
                self.finished = 0

            def begin(self, total):
                self.begun.append(total)

            def update(self, result):
                self.updates += 1

            def finish(self):
                self.finished += 1

        recorder = Recorder()
        result = Session(store=None, progress=recorder).run(
            "regularization-sensitivity", **_TINY_REG_GRID
        )
        assert len(result) == 2
        assert recorder.begun == [2]
        assert recorder.updates == 2
        assert recorder.finished == 1


def _subparser_map(parser: argparse.ArgumentParser) -> dict:
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return dict(action.choices)
    return {}


class TestGeneratedCLI:
    def test_every_experiment_subparser_is_fully_generated(self):
        """No orphaned hand-written flags on any experiment subcommand."""
        top = _subparser_map(build_parser())
        experiment_parsers = _subparser_map(top["experiment"])
        assert set(experiment_parsers) == set(experiment_names())
        for name, sub in experiment_parsers.items():
            orphans = audit_parser(sub, get_experiment(name))
            assert orphans == [], f"{name}: orphaned flags {orphans}"

    def test_generated_parser_matches_programmatic_defaults(self):
        parser = argparse.ArgumentParser()
        spec = get_experiment("pareto")
        add_param_arguments(parser, spec)
        add_session_arguments(parser, spec, store_env_var="REPRO_STORE_DIR")
        args = parser.parse_args(
            ["--trace", "crs", "--trace", "google", "--mc-samples", "60"]
        )
        assert args.trace == ["crs", "google"]
        assert args.mc_samples == 60

    def test_no_subcommand_offers_an_engine_flag(self):
        top = _subparser_map(build_parser())
        parsers = {"simulate": top["simulate"]}
        parsers.update(
            (f"experiment {name}", sub)
            for name, sub in _subparser_map(top["experiment"]).items()
        )
        for name, sub in parsers.items():
            flags = {flag for action in sub._actions for flag in action.option_strings}
            assert "--engine" not in flags, name

    def test_engine_flag_is_a_usage_error(self, capsys):
        for argv in (
            ["simulate", "--trace", "crs", "--engine", "reference"],
            ["experiment", "regularization-sensitivity", "--engine", "batched"],
        ):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 2
            assert "--engine" in capsys.readouterr().err

    def test_cli_rows_match_session_rows(self, capsys):
        argv = ["experiment", "regularization-sensitivity", "--quiet"]
        for key, value in _TINY_REG_GRID.items():
            flag = {
                "beta_smooth_values": "--beta-smooth",
                "beta_period_values": "--beta-period",
            }.get(key)
            if flag is not None:
                for item in value:
                    argv += [flag, str(item)]
            else:
                argv += ["--" + key.replace("_", "-"), str(value)]
        assert main(argv) == 0
        cli_out = capsys.readouterr().out
        result = Session(store=None).run("regularization-sensitivity", **_TINY_REG_GRID)
        assert result.table("Experiment: regularization-sensitivity") in cli_out

    def test_cli_progress_line_and_quiet(self, capsys):
        argv = [
            "experiment",
            "regularization-sensitivity",
            "--beta-smooth",
            "0",
            "--beta-period",
            "0",
            "--period-seconds",
            "600",
            "--n-periods",
            "2",
            "--max-iterations",
            "40",
        ]
        assert main(argv) == 0
        err = capsys.readouterr().err
        assert "[progress]" in err and "tasks" in err
        assert main(argv + ["--quiet"]) == 0
        assert "[progress]" not in capsys.readouterr().err

    def test_cli_unknown_flag_fails(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "table3", "--workers", "2"])

    def test_store_ls_runs_lists_journaled_runs(self, capsys):
        argv = [
            "experiment",
            "regularization-sensitivity",
            "--quiet",
            "--run-id",
            "api-test-run",
            "--beta-smooth",
            "0",
            "--beta-period",
            "0",
            "--period-seconds",
            "600",
            "--n-periods",
            "2",
            "--max-iterations",
            "40",
        ]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(["store", "ls", "--runs"]) == 0
        out = capsys.readouterr().out
        assert "api-test-run" in out
        assert "completed" in out
