"""Unified declarative experiment API (``repro.api``).

One registry, one facade, one execution contract:

* every experiment declares itself as an
  :class:`~repro.api.registry.ExperimentSpec` — a parameter schema (typed
  fields with defaults and help), a runner building its task batch, and
  a result schema — via :func:`~repro.api.registry.register_experiment`;
* :meth:`Session.run(name, **params) <repro.api.session.Session.run>` is
  the one way to drive the reproduction programmatically, threading
  ``store`` / ``run_id`` / ``workers`` / ``seed`` uniformly
  through :func:`repro.runtime.run_tasks` and returning a typed
  :class:`~repro.api.session.ResultSet` (columnar rows + provenance);
* the ``repro experiment`` CLI subcommands are generated from the
  registry (:mod:`repro.api.cligen`), so adding an experiment never
  touches :mod:`repro.cli`.

Quickstart::

    from repro.api import Session

    result = Session(workers=4).run(
        "pareto", trace_names="cold-start-services", scale=0.1
    )
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .._lazy import lazy_exports
from .registry import (
    ExperimentSpec,
    ParamSpec,
    experiment_names,
    get_experiment,
    list_experiments,
    register_experiment,
)

#: Names imported on first access: the session pulls in the runtime, the
#: store and telemetry, which the registry and the CLI parser do not need.
_LAZY = {
    "ProgressHook": ".session",
    "Provenance": ".session",
    "ResultSet": ".session",
    "RunContext": ".session",
    "Session": ".session",
}

__all__ = [
    "ExperimentSpec",
    "ParamSpec",
    "ProgressHook",
    "Provenance",
    "ResultSet",
    "RunContext",
    "Session",
    "experiment_names",
    "get_experiment",
    "list_experiments",
    "register_experiment",
]

__getattr__, __dir__ = lazy_exports(__name__, _LAZY)

if TYPE_CHECKING:  # pragma: no cover - static view of the lazy names
    from .session import (
        ProgressHook,
        Provenance,
        ResultSet,
        RunContext,
        Session,
    )
