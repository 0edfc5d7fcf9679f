"""Composable workload scenarios: primitives, specifications, and a registry.

This subsystem generalizes the three hard-coded paper traces into an open
catalog of named, parameterized, seed-reproducible workload scenarios:

* :mod:`repro.workloads.primitives` — an algebra of intensity building
  blocks (seasonal bumps, ramps, flash crowds, MMPP regime switching,
  multiplicative noise) that combine with ``+``, ``-``, ``*`` and ``clip``
  and compile into the piecewise-constant intensities the exact NHPP
  samplers consume;
* :mod:`repro.workloads.scenarios` — the :class:`Scenario` spec bundling a
  workload generator with its simulator defaults (train/test split, bin
  width, pending time);
* :mod:`repro.workloads.registry` — the :class:`ScenarioRegistry` every
  downstream layer (CLI ``workloads`` subcommand, the experiment drivers,
  the benchmark) looks scenarios up in;
* :mod:`repro.workloads.library` — the built-in scenarios (flash crowds,
  diurnal/weekly seasonality, launches, sale events, batch bursts,
  multi-tenant mixes, outages) plus aliases for the paper traces;
* real recorded traces join the registry through
  :func:`register_trace_csv`, backed by the validating
  :mod:`repro.traces.io` loaders.

Quickstart
----------
>>> from repro.workloads import get_scenario, scenario_names
>>> scenario_names()                              # doctest: +SKIP
>>> trace = get_scenario("flash-crowd").build_trace(seed=7)   # doctest: +SKIP
>>> train, test = get_scenario("flash-crowd").build_split()   # doctest: +SKIP
"""

from .primitives import (
    Clip,
    Constant,
    FlashCrowd,
    GammaNoise,
    IntensityPrimitive,
    Modulate,
    ParetoBursts,
    Pulse,
    Ramp,
    RegimeSwitching,
    Scale,
    SeasonalBump,
    Sinusoid,
    Superpose,
    WeeklyProfile,
    as_primitive,
)
from .registry import (
    DEFAULT_REGISTRY,
    CSVTraceGenerator,
    ScenarioRegistry,
    get_scenario,
    list_scenarios,
    register_scenario,
    register_trace_csv,
    scenario_from_trace_csv,
    scenario_names,
)
from .scenarios import Scenario
from . import library as _library  # populates DEFAULT_REGISTRY on import

__all__ = [
    # primitives
    "IntensityPrimitive",
    "as_primitive",
    "Constant",
    "SeasonalBump",
    "Sinusoid",
    "WeeklyProfile",
    "Ramp",
    "FlashCrowd",
    "ParetoBursts",
    "Pulse",
    "RegimeSwitching",
    "GammaNoise",
    "Superpose",
    "Scale",
    "Modulate",
    "Clip",
    # scenario spec + registry
    "Scenario",
    "ScenarioRegistry",
    "DEFAULT_REGISTRY",
    "register_scenario",
    "get_scenario",
    "list_scenarios",
    "scenario_names",
    # real-trace import
    "CSVTraceGenerator",
    "scenario_from_trace_csv",
    "register_trace_csv",
]
