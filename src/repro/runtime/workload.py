"""Workload preparation: split a trace, fit the model, package the result.

This module hosts :class:`PreparedWorkload` and :func:`prepare_workload`,
the single place where a raw :class:`~repro.types.ArrivalTrace` becomes the
bundle every evaluation consumes — train/test split, fitted NHPP model,
forecast intensity, pending-time model, simulator configuration and the
reactive reference cost.

:func:`evaluate_prepared` is the one evaluation code path: the declarative
task executor (:mod:`repro.runtime.executor`) turns every
:class:`~repro.runtime.EvalTask` into its report row through it.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from ..config import SimulationConfig
from ..exceptions import ValidationError, WorkloadError
from ..metrics.report import summarize_result
from ..nhpp.intensity import PiecewiseConstantIntensity
from ..nhpp.model import NHPPModel
from ..pending import DeterministicPendingTime, PendingTimeModel
from ..scaling.backup_pool import ReactiveScaler
from ..scaling.base import Autoscaler
from ..simulation.runner import DEFAULT_ENGINE, replay
from ..telemetry import get_recorder
from ..types import ArrivalTrace, SimulationResult

__all__ = ["EXTRA_METRICS", "PreparedWorkload", "prepare_workload", "evaluate_prepared"]


def _waiting_avg(result: SimulationResult) -> float:
    waiting = result.waiting_times
    return float(waiting.mean()) if waiting.size else float("nan")


def _idle_avg(result: SimulationResult) -> float:
    idle = result.idle_times
    return float(idle.mean()) if idle.size else float("nan")


#: Named extra metric columns tasks can request (``EvalTask.metrics``).
EXTRA_METRICS = {
    "waiting_avg": _waiting_avg,
    "idle_avg": _idle_avg,
}


@dataclass
class PreparedWorkload:
    """A trace split into train/test together with the fitted workload model.

    Attributes
    ----------
    name:
        Trace name (used in report rows).
    train, test:
        The training and test sub-traces; the test trace is rebased to start
        at time 0 and the forecast's origin coincides with it.
    model:
        The NHPP model fitted on the training window.
    forecast:
        The extrapolated intensity used by the RobustScaler variants.
    pending_model:
        The pending-time model the planner plans with; its mean equals
        ``simulation.pending_time``.
    simulation:
        Simulator configuration used for the replays.
    reference_cost:
        Total cost of the purely reactive baseline on the test trace, the
        denominator of the ``relative cost`` metric.
    """

    name: str
    train: ArrivalTrace
    test: ArrivalTrace
    model: NHPPModel
    forecast: PiecewiseConstantIntensity
    pending_model: PendingTimeModel
    simulation: SimulationConfig
    reference_cost: float

    def replay(self, scaler: Autoscaler) -> SimulationResult:
        """Replay the test trace under ``scaler``."""
        return replay(self.test, scaler, self.simulation)


def prepare_workload(
    trace: ArrivalTrace,
    *,
    train_fraction: float = 0.75,
    bin_seconds: float = 60.0,
    pending_time: float = 13.0,
    engine: str = DEFAULT_ENGINE,
) -> PreparedWorkload:
    """Split, fit, and package a trace for evaluation.

    Parameters
    ----------
    trace:
        The full trace (training + test).
    train_fraction:
        Fraction of the horizon used for training; both splits must hold
        at least one query, else :class:`~repro.exceptions.WorkloadError`.
    bin_seconds:
        Bin width for the QPS series the NHPP is fitted on.
    pending_time:
        Deterministic instance startup latency (seconds), the one value
        both the planner and the replays use.
    engine:
        Replay engine of :attr:`repro.config.SimulationConfig.engine`; only
        the performance benchmark passes it.
    """
    recorder = get_recorder()
    train, test = trace.split(train_fraction)
    for split in (train, test):
        if split.n_queries == 0:
            raise WorkloadError(
                f"trace {trace.name!r} leaves no queries in {split.name!r} "
                f"at train_fraction={train_fraction:g}"
            )
    model = NHPPModel(bin_seconds=bin_seconds)
    with recorder.span("prepare.fit"):
        model.fit(train)
    forecast = model.forecast()
    pending_model = DeterministicPendingTime(pending_time)
    sim_config = SimulationConfig(pending_time=pending_time, engine=engine)
    with recorder.span("prepare.reference_replay"):
        reference = replay(test, ReactiveScaler(), sim_config)
    return PreparedWorkload(
        name=trace.name,
        train=train,
        test=test,
        model=model,
        forecast=forecast,
        pending_model=pending_model,
        simulation=sim_config,
        reference_cost=reference.total_cost,
    )


def evaluate_prepared(
    workload: PreparedWorkload,
    scaler: Autoscaler,
    *,
    extra: Mapping[str, Any] | None = None,
    variance_window: int | None = None,
    metrics: Sequence[str] | None = None,
) -> dict:
    """Replay ``scaler`` on ``workload`` and build one report row.

    The row carries the trace and scaler names, any ``extra`` annotations
    (sweep parameters, scenario labels, ...), and the summary metrics of
    :func:`repro.metrics.report.summarize_result`.  ``variance_window`` sets
    the block length of the summary's windowed QoS variances (Fig. 5);
    ``None`` keeps the summary's own default.  ``metrics`` names extra
    columns from :data:`EXTRA_METRICS` (``waiting_avg``, ``idle_avg``) used
    by the nominal-vs-actual drivers.
    """
    result = workload.replay(scaler)
    row: dict = {"trace": workload.name, "scaler": scaler.name}
    if extra:
        row.update(extra)
    window = {} if variance_window is None else {"variance_window": variance_window}
    row.update(
        summarize_result(result, reference_cost=workload.reference_cost, **window)
    )
    for name in metrics or ():
        try:
            compute = EXTRA_METRICS[name]
        except KeyError:
            raise ValidationError(
                f"unknown extra metric {name!r}; expected one of "
                f"{sorted(EXTRA_METRICS)}"
            ) from None
        row[name] = compute(result)
    return row
