"""Argparse generation from experiment parameter schemas.

The ``repro experiment`` subcommands are *generated* from the registry:
every option flag is derived either from a
:class:`~repro.api.registry.ParamSpec` or from the uniform session knobs
(``--workers`` / ``--engine`` / ``--run-id`` / store flags / ``--quiet``).
Adding an experiment therefore never touches :mod:`repro.cli`; and
:func:`audit_parser` verifies the property the other way around — that a
generated subparser carries **no** orphaned hand-written flags.
"""

from __future__ import annotations

import argparse

from .registry import ExperimentSpec, ParamSpec

__all__ = [
    "add_param_arguments",
    "add_session_arguments",
    "collect_params",
    "collect_session_kwargs",
    "audit_parser",
]

_SCALAR_TYPES = {"float": float, "int": int, "str": str}


def _format_default(param: ParamSpec) -> str:
    if param.default is None:
        return "derived per experiment"
    if param.sequence:
        return ", ".join(str(v) for v in param.default)
    return str(param.default)


def add_param_arguments(
    parser: argparse.ArgumentParser, spec: ExperimentSpec
) -> None:
    """Install one option per schema parameter.

    Every generated option defaults to ``None`` ("not given"), so the
    schema's own defaults (including derived-per-trace grids) apply exactly
    as in the programmatic API; sequence parameters become repeatable
    flags, booleans become ``--flag`` / ``--no-flag`` pairs.
    """
    for param in spec.params:
        help_text = f"{param.help or param.name} (default: {_format_default(param)})"
        if param.kind == "bool":
            parser.add_argument(
                param.flag,
                dest=param.dest,
                action=argparse.BooleanOptionalAction,
                default=None,
                help=help_text,
            )
        elif param.sequence:
            parser.add_argument(
                param.flag,
                dest=param.dest,
                action="append",
                type=_SCALAR_TYPES[param.kind],
                choices=list(param.choices) if param.choices else None,
                default=None,
                help=f"{help_text} (repeatable)",
            )
        else:
            parser.add_argument(
                param.flag,
                dest=param.dest,
                type=_SCALAR_TYPES[param.kind],
                choices=list(param.choices) if param.choices else None,
                default=None,
                help=help_text,
            )


def add_session_arguments(
    parser: argparse.ArgumentParser,
    spec: ExperimentSpec,
    *,
    store_env_var: str,
) -> None:
    """Install the uniform session knobs the experiment supports."""
    if spec.engine_aware:
        parser.add_argument(
            "--engine",
            choices=["reference", "batched"],
            default=None,
            help=(
                "replay engine (default: batched; both engines produce "
                "bit-identical rows, 'reference' is the per-query event "
                "loop)"
            ),
        )
    if spec.runtime:
        parser.add_argument(
            "--workers",
            type=int,
            default=None,
            help=(
                "evaluation processes (default: the REPRO_WORKERS "
                "environment variable, else serial)"
            ),
        )
        parser.add_argument(
            "--run-id",
            default=None,
            help=(
                "journal per-task completions under this id so an "
                "interrupted run resumes where it left off (requires the store)"
            ),
        )
        parser.add_argument(
            "--store-dir",
            default=None,
            help=(
                "artifact-store directory (default: the "
                f"{store_env_var} environment variable, else ~/.cache/repro/store)"
            ),
        )
        parser.add_argument(
            "--no-store",
            action="store_true",
            help="disable the disk artifact store for this invocation",
        )
        parser.add_argument(
            "--quiet",
            action="store_true",
            help="disable the live progress line and store summaries",
        )
        parser.add_argument(
            "--telemetry",
            action="store_true",
            help=(
                "collect run telemetry (metrics + spans); with the store "
                "and a --run-id the snapshot persists for "
                "'repro telemetry show/diff'"
            ),
        )


def collect_params(args: argparse.Namespace, spec: ExperimentSpec) -> dict:
    """The schema overrides actually given on the command line."""
    params = {}
    for param in spec.params:
        value = getattr(args, param.dest, None)
        if value is not None:
            params[param.name] = value
    return params


def collect_session_kwargs(args: argparse.Namespace, spec: ExperimentSpec) -> dict:
    """The uniform session knobs actually given on the command line."""
    kwargs: dict = {}
    if spec.engine_aware:
        kwargs["engine"] = getattr(args, "engine", None)
    if spec.runtime:
        kwargs["workers"] = getattr(args, "workers", None)
        kwargs["run_id"] = getattr(args, "run_id", None)
        kwargs["telemetry"] = bool(getattr(args, "telemetry", False))
    return kwargs


def _session_flags(spec: ExperimentSpec) -> set[str]:
    """The uniform option strings :func:`add_session_arguments` installs.

    Mirrors its ``runtime`` / ``engine_aware`` conditions exactly, so the
    audit flags a session knob hand-added to an experiment that does not
    support it (e.g. ``--workers`` on a non-runtime study).
    """
    flags = {"-h", "--help"}
    if spec.engine_aware:
        flags.add("--engine")
    if spec.runtime:
        flags.update(
            {
                "--workers",
                "--run-id",
                "--store-dir",
                "--no-store",
                "--quiet",
                "--telemetry",
            }
        )
    return flags


def audit_parser(parser: argparse.ArgumentParser, spec: ExperimentSpec) -> list[str]:
    """Option strings of ``parser`` that the registry did not generate.

    Returns the orphans (empty means the subcommand is fully
    registry-generated).
    """
    expected = _session_flags(spec)
    for param in spec.params:
        expected.add(param.flag)
        if param.kind == "bool":
            # BooleanOptionalAction registers the --no- variant too.
            expected.add("--no-" + param.flag.lstrip("-"))
    orphans = []
    for action in parser._actions:
        for option in action.option_strings:
            if option not in expected:
                orphans.append(option)
    return sorted(set(orphans))
