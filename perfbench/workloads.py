"""The benchmark's workloads: inputs from a seed, one measured iteration, checks.

Every workload is a batch replay driven from this single-threaded process.
The loop is closed (the engine calls the planner and waits for it) and
``charge_decision_latency`` stays off, so simulated time never depends on
wall time and results are reported as work done at a fixed input size.
See ``perfbench/README.md`` for why each workload was chosen.
"""

from __future__ import annotations

import json
import math
import time
from collections import defaultdict
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from typing import Any, Callable

import numpy as np

from repro.config import PlannerConfig, SimulationConfig
from repro.metrics.report import summarize_result
from repro.runtime.workload import PreparedWorkload, prepare_workload
from repro.scaling.adaptive_backup_pool import AdaptiveBackupPoolScaler
from repro.scaling.backup_pool import BackupPoolScaler, ReactiveScaler
from repro.scaling.robustscaler import RobustScaler, RobustScalerObjective
from repro.simulation.runner import DEFAULT_ENGINE, replay
from repro.types import ArrivalTrace, SimulationResult
from repro.workloads import get_scenario

from perfbench.measure import Tally, count_divergent_rows


@dataclass(frozen=True)
class Workload:
    """A paper scenario at a scale, the policies replayed on it, and whether it is fitted."""

    name: str
    scenario: str
    scale: float
    policies: tuple[str, ...]
    fit: bool


WORKLOADS = {
    workload.name: workload
    for workload in (
        # Scale 0.5 is the 24 h google trace; a pass of about 9 s leaves room
        # for the four or five passes whose median keeps wall_s steady.
        Workload("plan-google", "google", 0.5, ("hp", "rt", "cost"), fit=True),
        Workload("replay-alibaba", "alibaba", 1.0, ("reactive", "bp", "adapbp"), fit=False),
    )
}

#: RobustScaler variants: objective and target (HP level, or a budget in seconds).
RS_VARIANTS = {
    "hp": (RobustScalerObjective.HIT_PROBABILITY, 0.9),
    "rt": (RobustScalerObjective.RESPONSE_TIME, 5.0),
    "cost": (RobustScalerObjective.COST, 5.0),
}

#: Planning interval 10 s and R = 400 Monte Carlo samples.
PLANNER = PlannerConfig(planning_interval=10.0, monte_carlo_samples=400)

#: Queries at the head of the replayed trace that are also replayed under the
#: reference engine; a short prefix keeps the per-query oracle cheap.
PARITY_QUERIES = 500

#: Summary keys that hold wall-clock planning time, which no two runs share.
_CLOCK_KEYS = ("mean_planning_seconds", "max_planning_seconds")


def build_inputs(workload: Workload, seed: int) -> ArrivalTrace:
    """The workload's trace, generated from ``seed`` alone."""
    return get_scenario(workload.scenario).build_trace(scale=workload.scale, seed=seed)


def make_policy(label: str, prepared: PreparedWorkload | None, seed: int):
    if label == "reactive":
        return ReactiveScaler()
    if label == "bp":
        return BackupPoolScaler(4)
    if label == "adapbp":
        return AdaptiveBackupPoolScaler(2.0)
    objective, target = RS_VARIANTS[label]
    return RobustScaler(
        prepared.forecast,
        prepared.pending_model,
        objective=objective,
        target=target,
        planner=PLANNER,
        random_state=seed,
    )


class RoundTimer:
    """Probe of an untraced iteration: no spans, planning rounds timed per variant."""

    def __init__(self) -> None:
        self.rounds: dict[str, list[float]] = defaultdict(list)

    def span(self, name: str):
        return nullcontext()

    def planner(self, label: str, scaler: Any) -> None:
        sink = self.rounds[label]
        for attr in ("initialize", "on_planning_tick"):
            setattr(scaler, attr, _timed(getattr(scaler, attr), sink))


def _timed(method: Callable, sink: list[float]) -> Callable:
    def timed(context):
        started = time.perf_counter()
        response = method(context)
        sink.append(time.perf_counter() - started)
        return response

    return timed


@dataclass
class Iteration:
    """The outputs of one pass over a workload, from trace to summary rows."""

    replayed: ArrivalTrace
    config: SimulationConfig
    prepared: PreparedWorkload | None
    results: dict[str, SimulationResult] = field(default_factory=dict)
    rows: dict[str, dict] = field(default_factory=dict)
    reference_cost: float | None = None

    @property
    def hit_rate(self) -> float:
        hits = sum(int(result.hits.sum()) for result in self.results.values())
        return hits / sum(result.n_queries for result in self.results.values())

    @property
    def relative_cost(self) -> float:
        total = sum(result.total_cost for result in self.results.values())
        return total / (len(self.results) * self.reference_cost)

    @property
    def queries(self) -> int:
        return sum(result.n_queries for result in self.results.values())


def run_iteration(workload: Workload, trace: ArrivalTrace, seed: int, probe: Any) -> Iteration:
    """Fit (if the workload does), replay every policy and summarize each replay."""
    scenario = get_scenario(workload.scenario)
    if workload.fit:
        with probe.span("nhpp.prepare"):
            prepared = prepare_workload(
                trace, **scenario.simulator_defaults, engine=DEFAULT_ENGINE
            )
        iteration = Iteration(
            prepared.test, prepared.simulation, prepared, reference_cost=prepared.reference_cost
        )
    else:
        config = SimulationConfig(pending_time=scenario.pending_time, engine=DEFAULT_ENGINE)
        iteration = Iteration(trace, config, None)
    for label in workload.policies:
        scaler = make_policy(label, iteration.prepared, seed)
        if label in RS_VARIANTS:
            probe.planner(label, scaler)
        with probe.span(f"simulation.replay.{label}"):
            if iteration.prepared is not None:
                result = iteration.prepared.replay(scaler)
            else:
                result = replay(trace, scaler, iteration.config)
        if iteration.reference_cost is None:
            # Unfitted workloads replay the reactive baseline first.
            iteration.reference_cost = result.total_cost
        with probe.span("metrics.summarize"):
            iteration.rows[label] = summarize_result(
                result, reference_cost=iteration.reference_cost
            )
        iteration.results[label] = result
    return iteration


def comparable_rows(rows: dict[str, dict]) -> str:
    """Summary rows without their wall-clock columns, as canonical text."""
    kept = {
        label: {key: value for key, value in row.items() if key not in _CLOCK_KEYS}
        for label, row in rows.items()
    }
    return json.dumps(kept, sort_keys=True)


def check_iteration(iteration: Iteration, tally: Tally, first_rows: str | None) -> None:
    """One check per replay, plus one same-seed comparison after the first pass."""
    trace = iteration.replayed
    for label, result in iteration.results.items():
        row = iteration.rows[label]
        served = result.n_queries == trace.n_queries and np.array_equal(
            result.arrival_times, trace.arrival_times
        )
        sane = (
            0.0 <= row["hit_rate"] <= 1.0
            and math.isfinite(row["total_cost"])
            and math.isfinite(row["relative_cost"])
        )
        tally.check(served and sane, f"replay {label}: queries served or summary out of range")
    if first_rows is not None:
        tally.check(
            comparable_rows(iteration.rows) == first_rows,
            "a second pass with the same seed gave different summary rows",
        )


def check_parity(workload: Workload, iteration: Iteration, seed: int, tally: Tally) -> None:
    """Replay a prefix under the reference engine; outcomes must match bit for bit."""
    trace = iteration.replayed
    if trace.n_queries > PARITY_QUERIES:
        trace = trace.slice_time(0.0, float(trace.arrival_times[PARITY_QUERIES]))
    for label in workload.policies:

        def divergent() -> int:
            reference, default = (
                replay(
                    trace,
                    make_policy(label, iteration.prepared, seed),
                    replace(iteration.config, engine=engine),
                )
                for engine in ("reference", DEFAULT_ENGINE)
            )
            return count_divergent_rows(reference, default)

        rows = tally.attempt(f"parity {label}", divergent)
        if rows is not None:
            tally.check(rows == 0, f"parity {label}: {rows} divergent rows")
