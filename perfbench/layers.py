"""The traced run: spans around each layer's entry points, and per-layer metrics.

The program carries no spans of its own for these layers, so the traced
iteration patches the module attributes the pipeline calls through
(``unittest.mock.patch.object``, undone on exit) and records a span per
call.  Span names are ``<layer>.<what>``; the layers are named after the
``src/repro`` modules.  Self time is a span's duration minus its children.
"""

from __future__ import annotations

import statistics
from contextlib import ExitStack, contextmanager
from typing import Any, Callable, Iterator
from unittest import mock

import repro.nhpp.model as nhpp_model
import repro.runtime.workload as runtime_workload
import repro.scaling.robustscaler as robustscaler
from repro import telemetry
from repro.periodicity.detector import PeriodicityDetector

from perfbench.measure import Tracer, layer_of, percentile
from perfbench.workloads import RS_VARIANTS, WORKLOADS, Iteration

#: Layers whose spans fall inside the timed iteration.
ITERATION_LAYERS = ("periodicity", "nhpp", "optimization", "scaling", "simulation", "metrics")

POLICIES = tuple(dict.fromkeys(p for w in WORKLOADS.values() for p in w.policies))

#: Counters the batched engine records into an active telemetry recorder.
ENGINE_COUNTERS = (
    "replays",
    "queries",
    "planning_ticks",
    "passive_arrivals",
    "hook_arrivals",
    "chunks",
)

#: Every per-layer metric the traced run reports, with its unit, in order.
PER_LAYER = (
    [
        ("setup.import_s", "s"),
        ("workloads.build_trace_s", "s"),
        ("periodicity.detect_s", "s"),
        ("nhpp.fit_s", "s"),
        ("nhpp.admm_iterations", "count"),
        ("nhpp.admm_converged_ratio", "ratio"),
        ("nhpp.prepare_reference_replay_s", "s"),
        ("optimization.scenarios_s", "s"),
        ("optimization.scenario_columns", "count"),
        ("optimization.scenario_use_ratio", "ratio"),
    ]
    + [(f"optimization.solve_s.{variant}", "s") for variant in RS_VARIANTS]
    + [
        ("optimization.solve_calls", "count"),
        ("scaling.plan_self_s", "s"),
        ("scaling.plan_rounds", "count"),
        ("scaling.actions_per_round", "ratio"),
    ]
    + [
        (f"scaling.plan_{stat}.{variant}", unit)
        for variant in RS_VARIANTS
        for stat, unit in (("p50_ms", "ms"), ("p99_ms", "ms"), ("samples", "count"))
    ]
    + [(f"simulation.replay_self_s.{policy}", "s") for policy in POLICIES]
    + [
        ("simulation.queries", "count"),
        ("metrics.summarize_s", "s"),
        ("metrics.hit_rate", "ratio"),
        ("metrics.relative_cost", "ratio"),
    ]
    + [(f"{layer}.self_s", "s") for layer in ITERATION_LAYERS]
    + [(f"engine.batched.{counter}", "count") for counter in ENGINE_COUNTERS]
    + [
        ("trace.wall_s", "s"),
        ("trace.overhead_s", "s"),
        ("trace.layer_coverage", "ratio"),
        ("trace.spans", "count"),
    ]
)


class SpanProbe:
    """Probe of the traced iteration: spans plus the counts taken at each boundary."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.fits = 0
        self.converged_fits = 0
        self.admm_iterations = 0
        self.drawn_samples = 0
        self.solved_samples = 0
        self.actions = 0

    def span(self, name: str):
        return self.tracer.span(name)

    def planner(self, label: str, scaler: Any) -> None:
        for attr in ("initialize", "on_planning_tick"):
            setattr(scaler, attr, self.wrap_round(getattr(scaler, attr), f"scaling.plan.{label}"))

    def wrap_round(self, method: Callable, name: str) -> Callable:
        def planned(context):
            with self.tracer.span(name):
                response = method(context)
            self.actions += len(response.actions)
            return response

        return planned

    def wrap_fit(self, fit: Callable) -> Callable:
        def fitted(model, *args, **kwargs):
            with self.tracer.span("nhpp.fit"):
                result = fit(model, *args, **kwargs)
            admm = model.fit_result.admm
            self.fits += 1
            self.converged_fits += int(admm.converged)
            self.admm_iterations += admm.n_iterations
            return result

        return fitted

    def wrap_reference_replay(self, replay: Callable) -> Callable:
        # prepare_workload and PreparedWorkload.replay share this function;
        # only the call made while preparing is the reference replay.
        def replayed(*args, **kwargs):
            if self.tracer.current != "nhpp.prepare":
                return replay(*args, **kwargs)
            with self.tracer.span("nhpp.prepare_reference_replay"):
                return replay(*args, **kwargs)

        return replayed

    def wrap_scenarios(self, generate: Callable) -> Callable:
        def generated(*args, **kwargs):
            with self.tracer.span("optimization.scenarios"):
                scenarios = generate(*args, **kwargs)
            self.drawn_samples += scenarios.arrival_times.size
            return scenarios

        return generated

    def wrap_solve(self, solve: Callable, variant: str) -> Callable:
        name = f"optimization.solve.{variant}"

        def solved(xi, *args, **kwargs):
            with self.tracer.span(name):
                decision = solve(xi, *args, **kwargs)
            self.solved_samples += len(xi)
            return decision

        return solved


@contextmanager
def traced(recorder: telemetry.Recorder) -> Iterator[SpanProbe]:
    """Patch the layer entry points with spans and activate ``recorder``."""
    probe = SpanProbe(Tracer())
    solvers = {
        "hp": "solve_hp_constrained",
        "rt": "solve_rt_constrained",
        "cost": "solve_cost_constrained",
    }
    with ExitStack() as stack:

        def patch(target: Any, attr: str, replacement: Callable) -> None:
            stack.enter_context(mock.patch.object(target, attr, replacement))

        patch(
            PeriodicityDetector,
            "detect",
            probe.tracer.wrap(PeriodicityDetector.detect, "periodicity.detect"),
        )
        patch(nhpp_model.NHPPModel, "fit", probe.wrap_fit(nhpp_model.NHPPModel.fit))
        patch(runtime_workload, "replay", probe.wrap_reference_replay(runtime_workload.replay))
        scenarios = probe.wrap_scenarios(robustscaler.generate_scenarios)
        patch(robustscaler, "generate_scenarios", scenarios)
        for variant, solver in solvers.items():
            patch(robustscaler, solver, probe.wrap_solve(getattr(robustscaler, solver), variant))
        stack.enter_context(telemetry.use(recorder))
        yield probe


def per_layer_metrics(
    probe: SpanProbe,
    recorder: telemetry.Recorder,
    iteration: Iteration,
    traced_wall: float,
    untraced_wall: float,
    rounds: dict[str, list[float]],
    setup_samples: list[tuple[float, float, float]],
) -> dict[str, float]:
    """Every metric of :data:`PER_LAYER`, zero where the workload lacks the layer."""
    by_name = probe.tracer.totals()
    by_layer = probe.tracer.totals(key=lambda name: layer_of(name) if "." in name else None)

    def own(name: str) -> float:
        return by_name.get(name, (0.0, 0.0, 0))[0]

    def calls(prefix: str) -> int:
        return sum(count for name, (_, _, count) in by_name.items() if name.startswith(prefix))

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    metrics: dict[str, float] = {
        "setup.import_s": statistics.median(sample[1] for sample in setup_samples),
        "workloads.build_trace_s": statistics.median(sample[2] for sample in setup_samples),
        "periodicity.detect_s": own("periodicity.detect"),
        "nhpp.fit_s": own("nhpp.fit"),
        "nhpp.admm_iterations": probe.admm_iterations,
        "nhpp.admm_converged_ratio": ratio(probe.converged_fits, probe.fits),
        "nhpp.prepare_reference_replay_s": own("nhpp.prepare_reference_replay"),
        "optimization.scenarios_s": own("optimization.scenarios"),
        "optimization.scenario_columns": probe.drawn_samples,
        "optimization.scenario_use_ratio": ratio(probe.solved_samples, probe.drawn_samples),
        "optimization.solve_calls": calls("optimization.solve."),
        "scaling.plan_self_s": sum(
            (spent for name, (spent, _, _) in by_name.items() if name.startswith("scaling.plan.")),
            0.0,
        ),
        "scaling.plan_rounds": calls("scaling.plan."),
        "scaling.actions_per_round": ratio(probe.actions, calls("scaling.plan.")),
        "simulation.queries": iteration.queries,
        "metrics.summarize_s": own("metrics.summarize"),
        "metrics.hit_rate": iteration.hit_rate,
        "metrics.relative_cost": iteration.relative_cost,
    }
    for variant in RS_VARIANTS:
        metrics[f"optimization.solve_s.{variant}"] = own(f"optimization.solve.{variant}")
        samples = rounds.get(variant, [])
        p50, p99 = (percentile(samples, q)[0] * 1e3 if samples else 0.0 for q in (50, 99))
        metrics[f"scaling.plan_p50_ms.{variant}"] = p50
        metrics[f"scaling.plan_p99_ms.{variant}"] = p99
        metrics[f"scaling.plan_samples.{variant}"] = len(samples)
    for policy in POLICIES:
        metrics[f"simulation.replay_self_s.{policy}"] = own(f"simulation.replay.{policy}")
    for layer in ITERATION_LAYERS:
        metrics[f"{layer}.self_s"] = by_layer.get(layer, (0.0, 0.0, 0))[0]
    counters = recorder.snapshot()["counters"]
    for counter in ENGINE_COUNTERS:
        metrics[f"engine.batched.{counter}"] = counters.get(f"engine.batched.{counter}", 0)
    named = sum(metrics[f"{layer}.self_s"] for layer in ITERATION_LAYERS)
    metrics.update(
        {
            "trace.wall_s": traced_wall,
            "trace.overhead_s": traced_wall - untraced_wall,
            "trace.layer_coverage": ratio(named, traced_wall),
            "trace.spans": len(probe.tracer.spans),
        }
    )
    return metrics
