"""The scaling-per-query discrete-event simulator.

The simulator replays an :class:`~repro.types.ArrivalTrace` against an
:class:`~repro.scaling.base.Autoscaler` policy and records, for every query,
whether it hit a warm instance, how long it waited, and how long the serving
instance lived — exactly the dynamics of Algorithm 1 in the paper:

* if an unassigned instance exists at arrival time, the query takes the one
  that becomes ready earliest: it is a **hit** when the instance is already
  ready, otherwise the query waits until startup finishes;
* if no instance exists, one is created **reactively** (cold start) and the
  earliest not-yet-executed scheduled creation, which was intended for this
  query, is cancelled;
* the instance is deleted as soon as it finishes processing its query.

The simulator optionally charges the wall-clock time the policy spends
computing decisions ("real environment" mode, Table IV): actions then cannot
take effect before the decision computation would have finished.
"""

from __future__ import annotations

import heapq
import itertools
import time as _time
from bisect import bisect_right, insort
from typing import Callable

import numpy as np

from ..config import SimulationConfig
from ..exceptions import SimulationError
from ..pending import PendingTimeModel, default_pending_model
from ..rng import ensure_rng
from ..scaling.base import Autoscaler, PlanningContext, ScalingResponse
from ..telemetry import get_recorder
from ..types import ArrivalTrace, ScalingAction, SimulationResult

__all__ = ["ScalingPerQuerySimulator"]

#: When True, every planning context additionally recomputes the ready count
#: with a brute-force scan of the pool and asserts it matches the
#: incrementally tracked value.  Enabled by the regression tests only.
_AUDIT_READY_COUNT = False


class _PendingInstance:
    """A created-but-unassigned instance tracked by the simulator."""

    __slots__ = ("creation_time", "ready_time", "pending_time", "proactive")

    def __init__(
        self, creation_time: float, ready_time: float, pending_time: float, proactive: bool
    ) -> None:
        self.creation_time = creation_time
        self.ready_time = ready_time
        self.pending_time = pending_time
        self.proactive = proactive


class ScalingPerQuerySimulator:
    """Replays traces against autoscaling policies.

    Parameters
    ----------
    config:
        Simulator configuration (pending-time model, latency charging, seed).
    pending_model:
        Optional explicit pending-time model; overrides the one derived from
        ``config.pending_time`` / ``config.pending_time_jitter``.

    Prefer :func:`repro.simulation.create_simulator` (or
    :class:`repro.api.Session`), where the engine choice is explicit: the
    default is the bit-identical batched engine, and
    ``engine="reference"`` selects this per-query event loop.
    """

    def __init__(
        self,
        config: SimulationConfig | None = None,
        *,
        pending_model: PendingTimeModel | None = None,
    ) -> None:
        self.config = config or SimulationConfig()
        if pending_model is not None:
            self.pending_model = pending_model
        else:
            self.pending_model = default_pending_model(
                self.config.pending_time, self.config.pending_time_jitter
            )

    # ------------------------------------------------------------------ API

    # repro: hot-loop
    def replay(self, trace: ArrivalTrace, scaler: Autoscaler) -> SimulationResult:
        """Replay ``trace`` under ``scaler`` and return the per-query outcomes."""
        scaler.reset()
        # Telemetry contract (enforced by `repro lint` RPR004 via the
        # hot-loop marker above): no recorder calls inside the per-query
        # loop — tick counts accumulate in a local and everything is emitted
        # once after the replay (the no-op recorder path stays free).
        recorder = get_recorder()
        # repro: allow[RPR002] telemetry replay timer only, never touches simulated time
        replay_started = _time.perf_counter()
        n_ticks = 0
        rng = ensure_rng(self.config.seed)
        arrivals = np.asarray(trace.arrival_times, dtype=float)
        processing_times = np.asarray(trace.processing_times, dtype=float)

        available: list[tuple[float, int, _PendingInstance]] = []  # heap by ready_time
        scheduled: list[tuple[float, int, ScalingAction]] = []  # heap by creation_time
        # Sorted mirror of the pool members' ready times, so planning contexts
        # can count ready instances with one binary search instead of a full
        # scan (the pool mutations below all map to O(log n) / tail edits).
        ready_sorted: list[float] = []
        tiebreak = itertools.count()
        n = arrivals.size
        hit_col = np.zeros(n, dtype=bool)
        waiting_col = np.zeros(n, dtype=float)
        creation_col = np.zeros(n, dtype=float)
        ready_col = np.zeros(n, dtype=float)
        start_col = np.zeros(n, dtype=float)
        pending_col = np.zeros(n, dtype=float)
        proactive_col = np.zeros(n, dtype=bool)
        planning_times: list[float] = []
        unused_cost = 0.0

        def draw_pending() -> float:
            return float(self.pending_model.sample(1, rng)[0])

        def make_context(now: float, n_arrivals: int) -> PlanningContext:
            ready = bisect_right(ready_sorted, now)
            if _AUDIT_READY_COUNT:
                brute = sum(1 for ready_time, _, _ in available if ready_time <= now)
                if ready != brute:
                    raise SimulationError(
                        f"incremental ready count {ready} diverged from "
                        f"brute-force recount {brute} at t={now}"
                    )
            return PlanningContext(
                time=now,
                n_arrivals=n_arrivals,
                arrival_history=arrivals[:n_arrivals],
                created_unassigned=len(available),
                ready_unassigned=ready,
                scheduled_creations=len(scheduled),
            )

        def materialize_scheduled(now: float) -> None:
            """Turn scheduled creations whose time has come into real instances."""
            while scheduled and scheduled[0][0] <= now:
                creation_time, _, _action = heapq.heappop(scheduled)
                pending = draw_pending()
                ready = creation_time + self.config.scheduling_latency + pending
                heapq.heappush(
                    available,
                    (
                        ready,
                        next(tiebreak),
                        _PendingInstance(creation_time, ready, pending, proactive=True),
                    ),
                )
                insort(ready_sorted, ready)

        def call_policy(
            hook: Callable[[PlanningContext], ScalingResponse], context: PlanningContext
        ) -> tuple[ScalingResponse, float]:
            # repro: allow[RPR002] measures real decision latency — the input to
            # the charge_decision_latency semantics, not a hidden clock
            started = _time.perf_counter()
            response = hook(context)
            # repro: allow[RPR002] second half of the decision-latency measurement
            elapsed = _time.perf_counter() - started
            planning_times.append(elapsed)
            if response is None:
                response = ScalingResponse.empty()
            return response, elapsed

        def apply_response(response: ScalingResponse, now: float, latency: float) -> None:
            nonlocal unused_cost
            effective_now = now
            if self.config.charge_decision_latency:
                effective_now = now + latency
            for _ in range(min(response.cancel_scheduled, len(scheduled))):
                heapq.heappop(scheduled)
            if response.scale_in > 0 and available:
                # Remove the instances that became (or will become) ready last:
                # they are the "youngest" members of the pool.
                survivors = sorted(available)
                to_remove = survivors[len(survivors) - min(response.scale_in, len(survivors)):]
                del survivors[len(survivors) - len(to_remove):]
                available[:] = survivors
                heapq.heapify(available)
                del ready_sorted[len(ready_sorted) - len(to_remove):]
                for _, _, instance in to_remove:
                    unused_cost += max(0.0, now - instance.creation_time)
            for action in response.actions:
                creation_time = max(float(action.creation_time), effective_now)
                if creation_time <= now:
                    pending = draw_pending()
                    ready = creation_time + self.config.scheduling_latency + pending
                    heapq.heappush(
                        available,
                        (
                            ready,
                            next(tiebreak),
                            _PendingInstance(creation_time, ready, pending, proactive=True),
                        ),
                    )
                    insort(ready_sorted, ready)
                else:
                    heapq.heappush(scheduled, (creation_time, next(tiebreak), action))

        # -------------------------------------------------------- main loop
        response, latency = call_policy(scaler.initialize, make_context(0.0, 0))
        apply_response(response, 0.0, latency)

        interval = scaler.planning_interval
        next_tick = interval if interval else None

        for index in range(n):
            arrival_time = float(arrivals[index])

            # Planning ticks strictly before this arrival.
            if next_tick is not None:
                while next_tick <= arrival_time:
                    materialize_scheduled(next_tick)
                    response, latency = call_policy(
                        scaler.on_planning_tick, make_context(next_tick, index)
                    )
                    apply_response(response, next_tick, latency)
                    next_tick += interval
                    n_ticks += 1

            materialize_scheduled(arrival_time)

            (
                hit_col[index],
                waiting_col[index],
                creation_col[index],
                ready_col[index],
                start_col[index],
                pending_col[index],
                proactive_col[index],
            ) = self._serve_query(
                index, arrival_time, available, scheduled, draw_pending, ready_sorted
            )

            response, latency = call_policy(
                scaler.on_query_arrival, make_context(arrival_time, index + 1)
            )
            apply_response(response, arrival_time, latency)

        # Instances created but never consumed cost until the end of the trace.
        # The sweep iterates the pool in (ready_time, tiebreak) order so the
        # floating-point accumulation order is well-defined and matches the
        # batched engine's flat sorted pool exactly.
        horizon = max(trace.horizon, arrivals[-1] if n else 0.0)
        for _, _, instance in sorted(available):
            unused_cost += max(0.0, horizon - instance.creation_time)

        if recorder.enabled:
            recorder.inc("engine.reference.replays")
            recorder.inc("engine.reference.queries", n)
            recorder.inc("engine.reference.planning_ticks", n_ticks)
            # The reference engine dispatches the arrival hook per query,
            # whatever the arrival target — that is exactly what makes it slow.
            recorder.inc("engine.reference.hook_arrivals", n)
            recorder.observe(
                "engine.reference.replay_seconds",
                # repro: allow[RPR002] telemetry replay timer only, not simulated time
                _time.perf_counter() - replay_started,
            )

        return SimulationResult(
            scaler.name,
            trace.name,
            arrival_times=arrivals,
            processing_times=processing_times,
            hits=hit_col,
            waiting_times=waiting_col,
            creation_times=creation_col,
            ready_times=ready_col,
            start_times=start_col,
            pending_times=pending_col,
            proactive=proactive_col,
            unused_instance_cost=unused_cost,
            planning_times=planning_times,
            n_unused_instances=len(available),
        )

    # ------------------------------------------------------------- internal

    def _serve_query(
        self,
        index: int,
        arrival: float,
        available: list[tuple[float, int, _PendingInstance]],
        scheduled: list[tuple[float, int, ScalingAction]],
        draw_pending: Callable[[], float],
        ready_sorted: list[float],
    ) -> tuple[bool, float, float, float, float, float, bool]:
        """Match a freshly arrived query to an instance per Algorithm 1.

        Returns the query's ``(hit, waiting, creation, ready, start, pending,
        proactive)`` values, in the order of the result columns.
        """
        if available:
            ready_time, _, instance = heapq.heappop(available)
            # The popped instance minimizes (ready_time, tiebreak), so its
            # ready time is the smallest in the sorted mirror.
            ready_sorted.pop(0)
            hit = ready_time <= arrival
            start = max(ready_time, arrival)
            creation = instance.creation_time
            pending = instance.pending_time
            proactive = instance.proactive
        else:
            # Reactive cold start; the originally scheduled creation for this
            # query (the earliest outstanding one) is cancelled.
            if scheduled:
                heapq.heappop(scheduled)
            pending = draw_pending()
            ready_time = arrival + self.config.scheduling_latency + pending
            start = ready_time
            hit = False
            creation = arrival
            proactive = False
        waiting = start - arrival
        if waiting < -1e-9:
            raise SimulationError(f"negative waiting time {waiting} for query {index}")
        return hit, max(waiting, 0.0), creation, ready_time, start, pending, proactive
