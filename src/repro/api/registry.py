"""The experiment registry: one declarative spec per experiment.

An :class:`ExperimentSpec` is the single shape every experiment driver
declares itself as — replacing the per-driver ``*ExperimentConfig``
dataclasses that each needed bespoke CLI plumbing.  A spec carries:

* the experiment's **parameter schema**: a tuple of :class:`ParamSpec`
  (typed fields with defaults, choices and help text), from which both
  :meth:`resolve` (programmatic validation/coercion) and the CLI's argparse
  options (:mod:`repro.api.cligen`) are derived;
* its **runner** — a plain function ``run(params, ctx)`` that builds the
  task batch and executes it through the :class:`~repro.api.session.RunContext`
  (which threads ``store`` / ``run_id`` / ``workers`` / progress streaming
  uniformly through :func:`repro.runtime.run_tasks`);
* its **result schema** — the primary row columns the experiment reports;
* whether the experiment participates in the parallel runtime
  (``workers``/``store``).

:meth:`Session.run(name, **params) <repro.api.session.Session.run>` looks a
spec up by name and resolves ``params`` against its schema.

Experiments self-register at import time via :func:`register_experiment`
(each driver module in :mod:`repro.experiments` registers its own spec), so
adding an experiment never touches :mod:`repro.cli` — the subcommand, its
flags and its help text are generated from the spec.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping

from ..exceptions import ValidationError

__all__ = [
    "ParamSpec",
    "ExperimentSpec",
    "register_experiment",
    "get_experiment",
    "list_experiments",
    "experiment_names",
]

#: Scalar kinds a parameter may declare; sequence parameters repeat one kind.
_KINDS: dict[str, Callable[[Any], Any]] = {
    "float": float,
    "int": int,
    "str": str,
    "bool": bool,
}


def _coerce_scalar(kind: str, value: Any, name: str) -> Any:
    converter = _KINDS[kind]
    try:
        if kind == "bool" and isinstance(value, str):
            lowered = value.strip().lower()
            if lowered in ("true", "1", "yes", "on"):
                return True
            if lowered in ("false", "0", "no", "off"):
                return False
            raise ValueError(value)
        return converter(value)
    except (TypeError, ValueError):
        raise ValidationError(
            f"parameter {name!r} expects {kind}, got {value!r}"
        ) from None


@dataclass(frozen=True)
class ParamSpec:
    """One typed field of an experiment's parameter schema.

    Attributes
    ----------
    name:
        Python-level parameter name (the key in the resolved params dict).
    kind:
        Scalar type: ``"float"`` / ``"int"`` / ``"str"`` / ``"bool"``.
    default:
        Default value; ``None`` is a legal default meaning "derived by the
        experiment" (per-trace grids and the like).
    sequence:
        When ``True`` the parameter is a tuple of ``kind`` values; the CLI
        renders it as a repeatable flag.
    choices:
        Optional closed set of legal scalar values.
    help:
        One-line help text (surfaces in the generated CLI and listings).
    cli_flag:
        Override for the generated option string (e.g. ``--trace`` for
        the ``trace_names`` parameter, matching the historical CLI).
    """

    name: str
    kind: str = "float"
    default: Any = None
    sequence: bool = False
    choices: tuple | None = None
    help: str = ""
    cli_flag: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValidationError(
                f"ParamSpec {self.name!r}: unknown kind {self.kind!r}"
            )

    @property
    def flag(self) -> str:
        """The CLI option string for this parameter."""
        if self.cli_flag is not None:
            return self.cli_flag
        return "--" + self.name.replace("_", "-")

    @property
    def dest(self) -> str:
        """The argparse destination the flag parses into."""
        return self.flag.lstrip("-").replace("-", "_")

    def coerce(self, value: Any) -> Any:
        """Validate and convert ``value`` to the declared type."""
        if value is None:
            return None
        if self.sequence:
            if isinstance(value, (str, bytes)) or not isinstance(value, Iterable):
                value = (value,)
            coerced = tuple(
                _coerce_scalar(self.kind, item, self.name) for item in value
            )
        elif isinstance(value, (list, tuple)):
            raise ValidationError(
                f"parameter {self.name!r} takes a single {self.kind}, got {value!r}"
            )
        else:
            coerced = _coerce_scalar(self.kind, value, self.name)
        if self.choices is not None:
            items = coerced if self.sequence else (coerced,)
            for item in items:
                if item not in self.choices:
                    raise ValidationError(
                        f"parameter {self.name!r} must be one of "
                        f"{list(self.choices)}, got {item!r}"
                    )
        return coerced


@dataclass(frozen=True)
class ExperimentSpec:
    """The declarative description of one registered experiment.

    Attributes
    ----------
    name:
        Registry (and CLI subcommand) name, e.g. ``"pareto"``.
    title:
        One-line summary shown in listings and as the subcommand help.
    params:
        The parameter schema.
    run:
        ``run(params, ctx) -> list[dict]`` — the driver body.  ``params`` is
        a fully resolved dict (every schema parameter present), ``ctx`` a
        :class:`~repro.api.session.RunContext`.
    result_columns:
        Primary columns of the result rows (the result schema; rows may
        carry additional derived columns).
    artifact:
        The paper artifact this experiment reproduces (``"Fig. 4"``), or
        ``""`` for beyond-the-paper studies.
    runtime:
        ``True`` when the experiment executes through
        :func:`repro.runtime.run_tasks` and therefore honors ``workers`` /
        ``store`` / ``run_id`` / progress streaming.
    description:
        Longer description (defaults to the runner's docstring).
    """

    name: str
    title: str
    params: tuple[ParamSpec, ...]
    run: Callable[[dict, Any], list[dict]]
    result_columns: tuple[str, ...] = ()
    artifact: str = ""
    runtime: bool = True
    description: str = ""

    def __post_init__(self) -> None:
        names = [param.name for param in self.params]
        if len(set(names)) != len(names):
            raise ValidationError(
                f"experiment {self.name!r} declares duplicate parameters"
            )
        if not self.description:
            object.__setattr__(self, "description", (self.run.__doc__ or "").strip())

    def param(self, name: str) -> ParamSpec:
        """The schema entry called ``name``."""
        for param in self.params:
            if param.name == name:
                return param
        raise ValidationError(
            f"experiment {self.name!r} has no parameter {name!r}; "
            f"expected one of {sorted(p.name for p in self.params)}"
        )

    def resolve(self, overrides: Mapping[str, Any] | None = None) -> dict:
        """Defaults merged with ``overrides``, validated and coerced.

        Unknown override keys raise :class:`~repro.exceptions.ValidationError`
        so typos surface immediately instead of silently running defaults.
        """
        overrides = dict(overrides or {})
        resolved: dict[str, Any] = {}
        for param in self.params:
            if param.name in overrides:
                resolved[param.name] = param.coerce(overrides.pop(param.name))
            else:
                resolved[param.name] = param.default
        if overrides:
            unknown = ", ".join(sorted(overrides))
            raise ValidationError(
                f"unknown parameter(s) for experiment {self.name!r}: {unknown}; "
                f"expected a subset of {sorted(p.name for p in self.params)}"
            )
        return resolved


#: The global registry, populated by the driver modules at import time.
_REGISTRY: dict[str, ExperimentSpec] = {}


def register_experiment(spec: ExperimentSpec) -> ExperimentSpec:
    """Install ``spec`` in the global registry (idempotent per name+spec)."""
    existing = _REGISTRY.get(spec.name)
    if existing is not None and existing.run is not spec.run:
        raise ValidationError(f"experiment {spec.name!r} is already registered")
    _REGISTRY[spec.name] = spec
    return spec


def _ensure_loaded() -> None:
    """Import the driver package so every experiment has self-registered."""
    from .. import experiments  # noqa: F401  (import side effect)


def get_experiment(name: str) -> ExperimentSpec:
    """Look up one experiment by registry name."""
    _ensure_loaded()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValidationError(
            f"unknown experiment {name!r}; expected one of {experiment_names()}"
        ) from None


def list_experiments() -> list[ExperimentSpec]:
    """Every registered experiment, sorted by name."""
    _ensure_loaded()
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]


def experiment_names() -> list[str]:
    """Sorted registry names."""
    _ensure_loaded()
    return sorted(_REGISTRY)
