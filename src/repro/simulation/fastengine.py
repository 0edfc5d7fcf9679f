"""Batched event-kernel simulator: a drop-in fast engine for Algorithm 1.

:class:`BatchedEventSimulator` replays traces with the exact semantics of the
reference :class:`~repro.simulation.engine.ScalingPerQuerySimulator` — the
differential harness in ``tests/test_engine_parity.py`` asserts
bit-for-bit identical :class:`~repro.types.SimulationResult` rows — while
restructuring the work so million-query traces are feasible:

* **one arrival rule** — a policy that keeps the base arrival hook
  states its per-arrival behaviour as
  :attr:`~repro.scaling.base.Autoscaler.arrival_target`, read once per
  chunk of arrivals (everything between two planning ticks).  A target of
  0 means the hook does nothing, so the chunk is served as one numpy batch:
  hit/miss classification, waiting times and instance lifecycles come from
  vectorized array expressions instead of a Python loop.  A positive
  target (BP, AdapBP) is served by the top-up functions of
  :mod:`repro.simulation.kernels`, which update the engine's pool list in
  place (numpy slicing when pending times are deterministic, a per-arrival
  loop otherwise); pending-time draws are bulk-sampled with the exact
  count the reference engine would consume, so rows stay bit-identical.
  Arrivals a top-up chunk cannot take (scheduled creations in flight,
  charged decision latency, a chunk of a single arrival) and every
  arrival of a policy that overrides the hook go through the per-query
  hook path;
* **flat sorted pools** — the unassigned-instance pool and the scheduled
  creations are flat lists kept sorted by ``(ready_time, tiebreak)`` /
  ``(creation_time, tiebreak)``, so pop-min is a head slice, scale-in is a
  tail slice, and the ready count in a planning context is one bisection —
  no per-query heap churn;
* **bulk pending-time draws** — runs of consecutive startup-latency draws
  (chunked reactive creations, batch materializations) are sampled with one
  ``pending_model.sample(count, rng)`` call.  numpy generators fill arrays
  sequentially from the bit stream, so ``sample(k)`` equals ``k`` calls of
  ``sample(1)`` element-wise and the draw order matches the reference
  engine exactly;
* **columnar results** — per-query outcomes are accumulated in flat arrays
  and handed to :class:`~repro.types.SimulationResult` as its columns, the
  one result shape both engines share.  Planning times are a column too:
  the replay counts entries, records ``(entry, seconds)`` only for the
  policy calls that run, and scatters those into a zero column once at the
  end, so an arrival served without a call costs no per-entry work.

Parity notes.  The tiebreak counter is advanced in exactly the reference
order (scheduled pushes consume ids too, materialization assigns fresh ids
in pop order, top-up chunks advance it by their exact creation count),
floating-point expressions reproduce the reference's operation order
(e.g. ``(arrival + latency) + pending``), and cost accumulation follows
the same element order, so results match bitwise, not just approximately.
"""

from __future__ import annotations

import math
import time as _time
from bisect import bisect_right, insort
from typing import Callable

import numpy as np

from ..config import SimulationConfig
from ..pending import DeterministicPendingTime, PendingTimeModel, default_pending_model
from ..rng import ensure_rng
from ..scaling.base import Autoscaler, PlanningContext, ScalingResponse
from ..telemetry import get_recorder
from ..types import ArrivalTrace, SimulationResult
from .kernels import plan_pool_topup, serve_topup_fifo, serve_topup_loop

__all__ = ["BatchedEventSimulator"]

_INF = math.inf

#: Histogram buckets for per-chunk query counts (powers of ten).
_CHUNK_BUCKETS = (1.0, 10.0, 100.0, 1_000.0, 10_000.0, 100_000.0, 1_000_000.0)

#: Shared zero-length draw array for top-up chunks that sample nothing.
_EMPTY_DRAWS = np.empty(0, dtype=float)

#: Smallest top-up chunk: setting one up (draw plan, bulk sample, column
#: writes) costs more than one hook call.
_MIN_TOPUP_CHUNK = 2


def _observe_chunk_sizes(recorder, name: str, sizes: list[int]) -> None:
    """Fold one replay's collected chunk sizes into a histogram."""
    histogram = recorder.histogram(name, _CHUNK_BUCKETS)
    for size in sizes:
        histogram.observe(size)


class BatchedEventSimulator:
    """Chunk-vectorized replay engine, bit-compatible with the reference.

    Parameters
    ----------
    config:
        Simulator configuration (pending-time model, latency charging, seed).
    pending_model:
        Optional explicit pending-time model; overrides the one derived from
        ``config.pending_time`` / ``config.pending_time_jitter``.  The model's
        ``sample`` must be *stream-prefix-stable*: ``sample(k)`` must produce
        the same values as ``k`` successive ``sample(1)`` calls (true for all
        built-in models, which draw through numpy generators).
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
        # hot-loop marker above): with the no-op recorder active, this
        # method performs no recorder calls inside the per-query/per-chunk
        # loops — counters accumulate in locals and are emitted once at the
        # end (chunk sizes are gathered only when a real recorder is active).
        recorder = get_recorder()
        # repro: allow[RPR002] telemetry replay timer only, never touches simulated time
        replay_started = _time.perf_counter()
        passive_sizes: list[int] | None = [] if recorder.enabled else None
        topup_sizes: list[int] | None = [] if recorder.enabled else None
        n_ticks = 0
        rng = ensure_rng(self.config.seed)
        sample = self.pending_model.sample
        latency_const = self.config.scheduling_latency
        charge = self.config.charge_decision_latency

        arrivals = np.asarray(trace.arrival_times, dtype=float)
        processing = np.asarray(trace.processing_times, dtype=float)
        n = arrivals.size

        # Instance pool: flat list of (ready, tie, creation, pending) tuples
        # sorted ascending; pop-min is the head, scale-in trims the tail.
        pool: list[tuple[float, int, float, float]] = []
        # Scheduled creations: flat sorted list of (creation, tie).
        sched: list[tuple[float, int]] = []
        # Next tiebreak id; a plain int so top-up chunks can advance it by
        # their whole creation count in one step.
        tiebreak = 0
        # Planning-time entries: one per policy call, plus a 0.0 for every
        # arrival served without one.  Only the calls are recorded; the
        # column is built once at the end.
        n_entries = 0
        call_entries: list[int] = []
        call_seconds: list[float] = []
        unused_cost = 0.0

        # Columnar outcome accumulators.
        hit_col = np.zeros(n, dtype=bool)
        waiting_col = np.zeros(n, dtype=float)
        creation_col = np.zeros(n, dtype=float)
        ready_col = np.zeros(n, dtype=float)
        start_col = np.zeros(n, dtype=float)
        pending_col = np.zeros(n, dtype=float)
        proactive_col = np.zeros(n, dtype=bool)

        # ------------------------------------------------------- primitives

        def make_context(now: float, n_arrivals: int) -> PlanningContext:
            return PlanningContext(
                time=now,
                n_arrivals=n_arrivals,
                arrival_history=arrivals[:n_arrivals],
                created_unassigned=len(pool),
                ready_unassigned=bisect_right(pool, (now, _INF)),
                scheduled_creations=len(sched),
            )

        def call_policy(
            hook: Callable[[PlanningContext], ScalingResponse],
            context: PlanningContext,
        ) -> tuple[ScalingResponse, float]:
            nonlocal n_entries
            # repro: allow[RPR002] measures real decision latency — the input to
            # the charge_decision_latency semantics, not a hidden clock
            started = _time.perf_counter()
            response = hook(context)
            # repro: allow[RPR002] second half of the decision-latency measurement
            elapsed = _time.perf_counter() - started
            call_entries.append(n_entries)
            call_seconds.append(elapsed)
            n_entries += 1
            if response is None:
                response = ScalingResponse.empty()
            return response, elapsed

        def materialize(now: float) -> None:
            """Turn due scheduled creations into pool instances (batched draws)."""
            nonlocal tiebreak
            count = bisect_right(sched, (now, _INF))
            if not count:
                return
            due = sched[:count]
            del sched[:count]
            draws = sample(count, rng)
            for (creation_time, _), pending in zip(due, draws):
                pending = float(pending)
                ready = creation_time + latency_const + pending
                insort(pool, (ready, tiebreak, creation_time, pending))
                tiebreak += 1

        def apply_response(response: ScalingResponse, now: float, latency: float) -> None:
            nonlocal unused_cost, tiebreak
            effective_now = now + latency if charge else now
            cancels = min(response.cancel_scheduled, len(sched))
            if cancels > 0:
                del sched[:cancels]
            if response.scale_in > 0 and pool:
                keep = len(pool) - min(response.scale_in, len(pool))
                removed = pool[keep:]
                del pool[keep:]
                for entry in removed:
                    unused_cost += max(0.0, now - entry[2])
            for action in response.actions:
                creation_time = max(float(action.creation_time), effective_now)
                if creation_time <= now:
                    pending = float(sample(1, rng)[0])
                    ready = creation_time + latency_const + pending
                    insort(pool, (ready, tiebreak, creation_time, pending))
                else:
                    insort(sched, (creation_time, tiebreak))
                tiebreak += 1

        def serve_one(index: int, arrival: float) -> None:
            """Serve a single query (the reference's ``_serve_query``)."""
            if pool:
                ready, _, creation_time, pending = pool.pop(0)
                start = ready if ready > arrival else arrival
                hit_col[index] = ready <= arrival
                proactive_col[index] = True
            else:
                if sched:
                    sched.pop(0)
                pending = float(sample(1, rng)[0])
                ready = arrival + latency_const + pending
                creation_time = arrival
                start = ready
            creation_col[index] = creation_time
            ready_col[index] = ready
            pending_col[index] = pending
            start_col[index] = start
            waiting_col[index] = start - arrival

        def assign_pool_batch(pos: int, count: int) -> None:
            """Vectorized: the next ``count`` arrivals take the pool head in order."""
            taken = pool[:count]
            del pool[:count]
            ready = np.array([entry[0] for entry in taken], dtype=float)
            batch = arrivals[pos : pos + count]
            start = np.maximum(ready, batch)
            hit_col[pos : pos + count] = ready <= batch
            waiting_col[pos : pos + count] = start - batch
            creation_col[pos : pos + count] = [entry[2] for entry in taken]
            ready_col[pos : pos + count] = ready
            start_col[pos : pos + count] = start
            pending_col[pos : pos + count] = [entry[3] for entry in taken]
            proactive_col[pos : pos + count] = True

        def reactive_batch(pos: int, end: int) -> None:
            """Vectorized cold starts for arrivals[pos:end] (empty pool, no sched)."""
            count = end - pos
            draws = np.asarray(sample(count, rng), dtype=float)
            batch = arrivals[pos:end]
            ready = (batch + latency_const) + draws
            waiting_col[pos:end] = ready - batch
            creation_col[pos:end] = batch
            ready_col[pos:end] = ready
            start_col[pos:end] = ready
            pending_col[pos:end] = draws
            # hit_col / proactive_col stay False.

        def serve_chunk(begin: int, end: int) -> None:
            """Serve arrivals[begin:end] with no policy hooks in between."""
            pos = begin
            while pos < end:
                if not sched:
                    take = min(len(pool), end - pos)
                    if take:
                        assign_pool_batch(pos, take)
                        pos += take
                    if pos < end:
                        reactive_batch(pos, end)
                        pos = end
                    continue
                due_time = sched[0][0]
                # Arrivals strictly before the earliest scheduled creation
                # cannot trigger a materialization under the current head.
                split = pos + int(
                    np.searchsorted(arrivals[pos:end], due_time, side="left")
                )
                if split > pos:
                    take = min(split - pos, len(pool))
                    if take:
                        assign_pool_batch(pos, take)
                        pos += take
                    if pos < split:
                        # Pool drained: this arrival cold-starts and cancels
                        # the scheduled head, which moves ``due_time`` — fall
                        # through to re-derive the split.
                        serve_one(pos, float(arrivals[pos]))
                        pos += 1
                else:
                    # This arrival is at/after the scheduled head: due
                    # creations materialize first, then it is served normally.
                    arrival = float(arrivals[pos])
                    materialize(arrival)
                    serve_one(pos, arrival)
                    pos += 1

        # The per-arrival hook path reuses one mutable context snapshot
        # instead of allocating a frozen dataclass per arrival (hooks read
        # it synchronously and may not stash it; ticks and initialize keep
        # fresh contexts, which policies may legitimately retain).
        arrival_context = make_context(0.0, 0)
        _ctx_set = object.__setattr__

        def update_context(now: float, n_arrivals: int) -> PlanningContext:
            _ctx_set(arrival_context, "time", now)
            _ctx_set(arrival_context, "n_arrivals", n_arrivals)
            _ctx_set(arrival_context, "arrival_history", arrivals[:n_arrivals])
            _ctx_set(arrival_context, "created_unassigned", len(pool))
            _ctx_set(arrival_context, "ready_unassigned", bisect_right(pool, (now, _INF)))
            _ctx_set(arrival_context, "scheduled_creations", len(sched))
            return arrival_context

        def serve_topup_chunk(begin: int, end: int, target: int) -> None:
            """Serve arrivals[begin:end] under the arrival rule with ``target >= 1``.

            The chunk's exact pending-draw count follows from the pool
            *size* alone, the draws are bulk-sampled (stream-prefix
            stability keeps them bitwise equal to the reference engine's
            one-at-a-time draws), and the server advances the tiebreak
            counter by the exact creation count, so the surviving pool is
            indistinguishable from one produced by per-query hook dispatch.
            """
            nonlocal tiebreak
            n_draws, _ = plan_pool_topup(len(pool), end - begin, target)
            if n_draws:
                draws = np.asarray(sample(n_draws, rng), dtype=float)
            else:
                draws = _EMPTY_DRAWS
            tiebreak = serve_topup(
                arrivals[begin:end], draws, target, latency_const, pool, tiebreak, columns, begin
            )

        # -------------------------------------------------------- main loop

        response, latency = call_policy(scaler.initialize, make_context(0.0, 0))
        apply_response(response, 0.0, latency)

        interval = scaler.planning_interval
        next_tick = interval if interval else None

        # Policies that keep the base arrival hook are served from their
        # ``arrival_target``; the others dispatch their hook per query.
        keeps_rule = type(scaler).on_query_arrival is Autoscaler.on_query_arrival
        # With deterministic pending times the pool is FIFO (see kernels).
        if isinstance(self.pending_model, DeterministicPendingTime):
            serve_topup = serve_topup_fifo
        else:
            serve_topup = serve_topup_loop
        columns = (
            hit_col,
            waiting_col,
            creation_col,
            ready_col,
            start_col,
            pending_col,
            proactive_col,
        )
        n_hook = 0

        index = 0
        # First arrival at or after ``next_tick``: the end of the current
        # tick interval, computed once per interval and shared by the paths.
        chunk_end = 0
        while index < n:
            arrival = float(arrivals[index])

            if next_tick is not None:
                while next_tick <= arrival:
                    materialize(next_tick)
                    response, latency = call_policy(
                        scaler.on_planning_tick, make_context(next_tick, index)
                    )
                    apply_response(response, next_tick, latency)
                    next_tick += interval
                    n_ticks += 1

            if index >= chunk_end:
                if next_tick is None:
                    chunk_end = n
                else:
                    chunk_end = index + int(
                        np.searchsorted(arrivals[index:], next_tick, side="left")
                    )

            # The target only moves at planning ticks, so one read covers
            # the rest of the chunk.
            target = scaler.arrival_target if keeps_rule else None
            if target is not None and target <= 0:
                serve_chunk(index, chunk_end)
                if passive_sizes is not None:
                    passive_sizes.append(chunk_end - index)
            elif (
                target is not None
                # Charged latency turns "create now" into a scheduled
                # creation, which top-up chunks do not model.
                and not charge
                and not sched
                and chunk_end - index >= _MIN_TOPUP_CHUNK
            ):
                serve_topup_chunk(index, chunk_end, target)
                if topup_sizes is not None:
                    topup_sizes.append(chunk_end - index)
            else:
                # Per-query hook; a top-up chunk is offered the remaining
                # arrivals again at the next one.
                materialize(arrival)
                serve_one(index, arrival)
                response, latency = call_policy(
                    scaler.on_query_arrival, update_context(arrival, index + 1)
                )
                apply_response(response, arrival, latency)
                n_hook += 1
                index += 1
                continue
            # The reference engine still times the arrival hook it calls for
            # every chunk-served arrival; keep the planning-time counts aligned.
            n_entries += chunk_end - index
            index = chunk_end

        # Instances created but never consumed cost until the end of the
        # trace; the pool is already sorted, so the accumulation order equals
        # the reference engine's sorted sweep.
        horizon = max(trace.horizon, arrivals[-1] if n else 0.0)
        for entry in pool:
            unused_cost += max(0.0, horizon - entry[2])
        planning_col = np.zeros(n_entries, dtype=float)
        planning_col[call_entries] = call_seconds

        if recorder.enabled:
            recorder.inc("engine.batched.replays")
            recorder.inc("engine.batched.queries", n)
            recorder.inc("engine.batched.planning_ticks", n_ticks)
            # Every arrival is served exactly one way: in a passive chunk,
            # in a top-up chunk, or by the per-query hook.
            recorder.inc("engine.batched.passive_arrivals", sum(passive_sizes))
            recorder.inc("engine.batched.chunks", len(passive_sizes))
            recorder.inc("engine.kernel.arrivals", sum(topup_sizes))
            recorder.inc("engine.kernel.chunks", len(topup_sizes))
            recorder.inc("engine.batched.hook_arrivals", n_hook)
            _observe_chunk_sizes(recorder, "engine.batched.chunk_queries", passive_sizes)
            _observe_chunk_sizes(recorder, "engine.kernel.chunk_size", topup_sizes)
            recorder.observe(
                "engine.batched.replay_seconds",
                # repro: allow[RPR002] telemetry replay timer only, not simulated time
                _time.perf_counter() - replay_started,
            )

        return SimulationResult(
            scaler.name,
            trace.name,
            arrival_times=arrivals,
            processing_times=processing,
            hits=hit_col,
            waiting_times=waiting_col,
            creation_times=creation_col,
            ready_times=ready_col,
            start_times=start_col,
            pending_times=pending_col,
            proactive=proactive_col,
            unused_instance_cost=unused_cost,
            planning_times=planning_col,
            n_unused_instances=len(pool),
        )

