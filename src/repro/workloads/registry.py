"""The scenario registry: named workloads, looked up the same way everywhere.

The module-level :data:`DEFAULT_REGISTRY` is what the CLI, the sweep
experiment driver and the benchmark consult; :mod:`repro.workloads.library`
populates it at import time with the built-in scenarios plus registry
aliases for the three paper traces.  Callers can register additional
scenarios (e.g. in user code or tests) with :func:`register_scenario`, and
real recorded traces join the registry through :func:`register_trace_csv`:
a trace CSV on disk becomes a generator-backed :class:`Scenario`
(validated by the hardened :mod:`repro.traces.io` loaders) that every
experiment, the CLI and the store-backed trace cache treat exactly like a
built-in scenario.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from ..exceptions import TraceFormatError, WorkloadError
from ..traces.io import load_trace_csv
from ..types import ArrivalTrace
from .scenarios import Scenario

__all__ = [
    "ScenarioRegistry",
    "DEFAULT_REGISTRY",
    "register_scenario",
    "get_scenario",
    "list_scenarios",
    "scenario_names",
    "CSVTraceGenerator",
    "scenario_from_trace_csv",
    "register_trace_csv",
]


class ScenarioRegistry:
    """A case-insensitive mapping from scenario name to :class:`Scenario`."""

    def __init__(self) -> None:
        self._scenarios: dict[str, Scenario] = {}

    def register(self, scenario: Scenario, *, overwrite: bool = False) -> Scenario:
        """Add ``scenario`` under its (lower-cased) name.

        Raises
        ------
        WorkloadError
            If the name is already taken and ``overwrite`` is False.
        """
        if not isinstance(scenario, Scenario):
            raise WorkloadError(
                f"can only register Scenario instances, got {type(scenario).__name__}"
            )
        key = scenario.name.lower()
        if key in self._scenarios and not overwrite:
            raise WorkloadError(
                f"scenario {scenario.name!r} is already registered; "
                "pass overwrite=True to replace it"
            )
        self._scenarios[key] = scenario
        return scenario

    def get(self, name: str) -> Scenario:
        """Look up a scenario by name (case-insensitive)."""
        key = str(name).lower()
        if key not in self._scenarios:
            known = ", ".join(self.names())
            raise WorkloadError(f"unknown scenario {name!r}; known scenarios: {known}")
        return self._scenarios[key]

    def names(self) -> list[str]:
        """Registered scenario names in a stable (sorted) order."""
        return sorted(self._scenarios)

    def scenarios(self) -> list[Scenario]:
        """Registered scenarios sorted by name."""
        return [self._scenarios[key] for key in self.names()]

    def __contains__(self, name: object) -> bool:
        return isinstance(name, str) and name.lower() in self._scenarios

    def __len__(self) -> int:
        return len(self._scenarios)

    def __iter__(self) -> Iterator[Scenario]:
        return iter(self.scenarios())


#: The registry consulted by the CLI, the sweep driver, and the benchmark.
DEFAULT_REGISTRY = ScenarioRegistry()


def register_scenario(
    scenario: Scenario,
    *,
    registry: ScenarioRegistry | None = None,
    overwrite: bool = False,
) -> Scenario:
    """Register ``scenario`` in ``registry`` (default: the global registry)."""
    # Explicit None check: an empty ScenarioRegistry is falsy (len == 0) and
    # must not silently fall back to the global registry.
    if registry is None:
        registry = DEFAULT_REGISTRY
    return registry.register(scenario, overwrite=overwrite)


def get_scenario(name: str) -> Scenario:
    """Look up a scenario in the default registry."""
    return DEFAULT_REGISTRY.get(name)


def list_scenarios() -> list[Scenario]:
    """All scenarios in the default registry, sorted by name."""
    return DEFAULT_REGISTRY.scenarios()


def scenario_names() -> list[str]:
    """All scenario names in the default registry, sorted."""
    return DEFAULT_REGISTRY.names()


# --------------------------------------------------------------------------
# Real-trace import: a trace CSV as a first-class registry citizen.


@dataclass(frozen=True)
class CSVTraceGenerator:
    """A :class:`~repro.workloads.scenarios.TraceGenerator` backed by a CSV file.

    The file is (re-)read through the validating
    :func:`~repro.traces.io.load_trace_csv` loader on every call, so a file
    that has gone missing or been corrupted since registration fails loudly
    with :class:`~repro.exceptions.TraceFormatError` instead of replaying a
    stale in-memory copy.  ``scale < 1`` truncates to the leading fraction
    of the recorded horizon (a recorded trace cannot be extrapolated, so
    ``scale > 1`` is rejected); ``seed`` is accepted for interface
    compatibility and ignored — the data is a recording, not a sampler.

    Being a frozen dataclass of plain strings, the generator pickles into
    pool workers, and :attr:`cache_token` gives the store-backed trace
    cache a content digest so a changed file cannot serve stale cached
    realizations.
    """

    path: str
    name: str | None = None

    def __call__(self, *, seed: int, scale: float) -> ArrivalTrace:
        trace = load_trace_csv(self.path, name=self.name)
        scale = float(scale)
        if scale > 1.0:
            raise WorkloadError(
                f"CSV-backed scenario {trace.name!r} cannot be scaled up "
                f"(scale={scale:g}): the trace is a recording, not a sampler"
            )
        if scale < 1.0:
            cut = trace.horizon * scale
            window = trace.slice_time(0.0, cut, rebase=False)
            trace = ArrivalTrace(
                window.arrival_times,
                window.processing_times,
                name=trace.name,
                horizon=cut,
            )
        return trace

    @property
    def cache_token(self) -> str:
        """Content digest of the CSV file (store cache-key component)."""
        try:
            payload = Path(self.path).read_bytes()
        except OSError as exc:
            raise TraceFormatError(f"cannot read trace file {self.path}: {exc}") from exc
        return hashlib.blake2b(payload, digest_size=16).hexdigest()


def scenario_from_trace_csv(
    path: str | Path,
    *,
    name: str | None = None,
    description: str | None = None,
    **scenario_kwargs: object,
) -> Scenario:
    """Wrap a trace CSV file into a generator-backed :class:`Scenario`.

    The file is loaded once up front, so a malformed file is rejected at
    registration time (``TraceFormatError``) rather than mid-experiment.
    The scenario's ``horizon_seconds`` is taken from the recorded trace;
    evaluation defaults (``bin_seconds``, ``train_fraction``,
    ``pending_time``, ...) can be overridden via ``scenario_kwargs``.
    """
    generator = CSVTraceGenerator(str(path), name=name)
    trace = generator(seed=0, scale=1.0)
    if trace.n_queries == 0 or trace.horizon <= 0:
        raise TraceFormatError(
            f"trace file {path} holds no queries; refusing to register an "
            "empty scenario"
        )
    scenario_kwargs.setdefault("tags", ("trace-import",))
    return Scenario(
        name=name or trace.name,
        description=description or f"recorded trace imported from {path}",
        generator=generator,
        horizon_seconds=trace.horizon,
        **scenario_kwargs,  # type: ignore[arg-type]
    )


def register_trace_csv(
    path: str | Path,
    *,
    name: str | None = None,
    description: str | None = None,
    registry: ScenarioRegistry | None = None,
    overwrite: bool = False,
    **scenario_kwargs: object,
) -> Scenario:
    """Import a trace CSV and register it as a scenario (returned)."""
    scenario = scenario_from_trace_csv(
        path, name=name, description=description, **scenario_kwargs
    )
    return register_scenario(scenario, registry=registry, overwrite=overwrite)
