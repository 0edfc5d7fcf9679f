"""Kernelized per-arrival policy path: vectorized hook kernels over flat arrays.

The batched engine (:mod:`repro.simulation.fastengine`) serves
*passive*-arrival policies as whole numpy chunks; BP/AdapBP-style scalers
make a decision on every arrival and would otherwise need per-query
:class:`~repro.scaling.base.PlanningContext` construction and Python hook
dispatch.  This module provides the batched engine's kernel tier, between
the passive chunk and the per-query hook:

* :class:`KernelState` — a flat, array-based snapshot of the simulator
  state a kernel operates on: the instance-pool columns (ready / creation /
  pending times, sorted ascending), the scheduling-latency constant, and
  views of the engine's columnar outcome accumulators;
* the **arrival-kernel protocol** — a policy may return an
  :class:`ArrivalKernel` from
  :meth:`~repro.scaling.base.Autoscaler.arrival_kernel`, promising that its
  per-arrival hook is equivalent to the kernel's array program.  The engine
  then serves whole chunks of arrivals (everything between two planning
  ticks) through the kernel instead of dispatching the hook per query;
* :class:`PoolTopUpKernel` — the kernel of the *top-up family* shared by
  Backup Pool, Adaptive Backup Pool and the reactive baseline: on each
  arrival, take the earliest-ready pool instance (or cold-start), then
  immediately create instances until ``target`` are outstanding.

**Exact parity.**  Kernels must reproduce the reference engine bit for bit
(same hit flags, waiting times, pending-time draws, RNG consumption order
and pool tiebreaks).  Two facts make this tractable for the top-up family:

1. *Draw counts depend only on pool sizes*, never on drawn values: the
   pool size after each arrival is ``max(size - 1, target)`` regardless of
   which instance was taken.  :func:`plan_pool_topup` therefore derives the
   chunk's exact number of pending-time draws in closed form, the engine
   samples them in one stream-prefix-stable bulk call, and the kernel
   consumes them with a cursor — the RNG ends the chunk in exactly the
   state the reference engine would leave it in.
2. *Deterministic pending times make the pool FIFO*: every new instance's
   ready time ``creation + latency + pending`` is >= every existing one's,
   so pop-min equals pop-head and the whole chunk collapses to pure numpy
   slicing (:func:`PoolTopUpKernel.run_chunk`'s vectorized branch).  With
   jittered/exponential pending models the pool order is data-dependent and
   a scalar flat-array core (:func:`_serve_topup_chunk`) maintains the
   sorted pool explicitly — the same source is compiled with ``numba.njit``
   when the optional ``jit`` extra is installed (``pip install
   robustscaler-repro[jit]``) and runs as plain Python otherwise; both
   backends produce identical results (the JIT compiles the very same
   function).
"""

from __future__ import annotations

import abc
from typing import Callable

import numpy as np

from ..exceptions import SimulationError

__all__ = [
    "NUMBA_AVAILABLE",
    "JIT_BACKEND",
    "ArrivalKernel",
    "KernelState",
    "PoolTopUpKernel",
    "plan_pool_topup",
    "scalar_backend",
]

try:
    import numba as _numba
# repro: allow[RPR005] numba is an optional extra — any import/ABI
# failure means "no JIT backend", not an error
except Exception:  # pragma: no cover - exercised only without the extra
    _numba = None

#: True when the optional numba JIT backend is importable.
NUMBA_AVAILABLE = _numba is not None

#: Human-readable name of the scalar-kernel backend in use.
JIT_BACKEND = "numba" if NUMBA_AVAILABLE else "numpy"

_EMPTY_F = np.empty(0, dtype=float)
_EMPTY_I = np.empty(0, dtype=np.int64)


def scalar_backend() -> str:
    """The backend executing scalar (non-FIFO) kernel chunks."""
    return JIT_BACKEND


class KernelState:
    """Flat array-based simulator state handed to an arrival kernel.

    The pool columns are parallel arrays sorted by ``(ready, tiebreak)``
    ascending — index ``i`` across ``pool_ready`` / ``pool_creation`` /
    ``pool_pending`` is one created-but-unassigned instance.  The outcome
    arrays are the engine's full columnar accumulators; a kernel writes the
    slice ``[begin, begin + len(chunk))`` and nothing else.

    ``fifo_pool`` is True when the engine's pending-time model is
    deterministic: every future instance's ready time is then >= every
    pooled one's, pop-min equals pop-head, and kernels may use their
    vectorized branches.
    """

    __slots__ = (
        "pool_ready",
        "pool_creation",
        "pool_pending",
        "latency",
        "fifo_pool",
        "begin",
        "hit",
        "waiting",
        "creation",
        "ready",
        "start",
        "pending",
        "proactive",
    )

    def __init__(
        self,
        *,
        pool_ready: np.ndarray,
        pool_creation: np.ndarray,
        pool_pending: np.ndarray,
        latency: float,
        fifo_pool: bool,
        begin: int,
        hit: np.ndarray,
        waiting: np.ndarray,
        creation: np.ndarray,
        ready: np.ndarray,
        start: np.ndarray,
        pending: np.ndarray,
        proactive: np.ndarray,
    ) -> None:
        self.pool_ready = pool_ready
        self.pool_creation = pool_creation
        self.pool_pending = pool_pending
        self.latency = latency
        self.fifo_pool = fifo_pool
        self.begin = begin
        self.hit = hit
        self.waiting = waiting
        self.creation = creation
        self.ready = ready
        self.start = start
        self.pending = pending
        self.proactive = proactive


class ArrivalKernel(abc.ABC):
    """A policy's per-arrival decision, expressed over flat arrays.

    A policy returning one from
    :meth:`~repro.scaling.base.Autoscaler.arrival_kernel` promises that for
    every arrival its ``on_query_arrival`` hook

    * only creates instances *immediately* (``creation_time <= now``) —
      never schedules future creations, cancels scheduled ones, or scales
      idle instances in, and
    * depends only on state that changes at planning ticks (the engine
      re-reads :meth:`begin_chunk` at every chunk boundary).

    The engine verifies the environmental preconditions itself (empty
    scheduled-creation queue, decision latency not charged, more than one
    arrival left before the next tick) and silently falls back to
    per-query hook dispatch when they do not hold, so a
    kernel never changes results — only the speed of obtaining them.
    """

    @abc.abstractmethod
    def begin_chunk(self):
        """Snapshot the policy parameters for the next chunk.

        Returns an opaque ``params`` value passed to :meth:`plan` and
        :meth:`run_chunk`, or ``None`` to decline the chunk (the engine
        then serves the next arrival through the regular hook path and
        asks again at the following one).
        """

    @abc.abstractmethod
    def plan(self, pool_size: int, n_arrivals: int, params) -> tuple[int, int]:
        """``(n_draws, n_created)`` the chunk will consume and create.

        Must be exact: the engine bulk-samples precisely ``n_draws``
        pending times before running the chunk so the RNG stream stays
        aligned with the reference engine, and advances the pool tiebreak
        counter by precisely ``n_created``.
        """

    @abc.abstractmethod
    def run_chunk(
        self, state: KernelState, arrivals: np.ndarray, draws: np.ndarray, params
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Serve ``arrivals`` (one chunk), writing the outcome slice.

        Returns the surviving pool as ``(ready, creation, pending, order)``
        arrays sorted by ``(ready, tiebreak)``; ``order`` keys each
        survivor: values ``< len(state.pool_ready)`` index the pre-chunk
        pool (the engine reuses the original entry, preserving its
        tiebreak), larger values are ``pool_size + creation_index`` for
        instances created during the chunk (the engine assigns them fresh
        tiebreaks in creation order).
        """


def plan_pool_topup(pool_size: int, n_arrivals: int, target: int) -> tuple[int, int]:
    """Exact ``(n_draws, n_created)`` of a top-up chunk, in closed form.

    Per arrival the reference engine pops the earliest-ready instance (a
    cold start — one draw — when the pool is empty), then creates
    ``max(0, target - size)`` instances (one draw each).  Sizes evolve as
    ``size -> max(size - 1, target)`` independent of the drawn values, so:

    * ``target == 0``: no creations; arrivals beyond the first
      ``pool_size`` all cold-start.
    * ``target >= 1``: only the first arrival can cold-start (afterwards
      the pool is topped up before the next arrival); the pool drains by
      one per arrival until it reaches ``target`` and then stays there,
      creating one instance per arrival.
    """
    s0 = int(pool_size)
    m = int(n_arrivals)
    t = int(target)
    if m <= 0:
        return 0, 0
    if t <= 0:
        return max(0, m - s0), 0
    cold = 1 if s0 == 0 else 0
    first = t if s0 == 0 else max(0, t - (s0 - 1))
    # Arrivals before ``jstart`` only drain the oversized pool; from
    # ``jstart`` on, every arrival replaces the instance it consumed.
    jstart = min(max(s0 - t, 1), m)
    n_created = first + (m - jstart)
    return cold + n_created, n_created


def _serve_topup_chunk(
    arrivals,
    latency,
    target,
    draws,
    q_ready,
    q_creation,
    q_pending,
    q_order,
    size0,
    hit,
    waiting,
    creation,
    ready,
    start,
    pending,
    proactive,
    begin,
):
    """Scalar top-up chunk over a sorted flat-array pool (numba-compilable).

    The pool lives in ``q_*[head:tail]`` sorted by ready time (ties in
    insertion order, which matches the reference tiebreak because fresh
    tiebreaks always exceed existing ones).  Pop-min is a head increment;
    creations insert at their ``bisect_right`` position with an explicit
    shift.  Returns ``(head, tail, n_created, n_draws_consumed)``.
    """
    head = 0
    tail = size0
    cursor = 0
    created = 0
    m = arrivals.shape[0]
    for j in range(m):
        arrival = arrivals[j]
        out = begin + j
        if tail > head:
            r = q_ready[head]
            c = q_creation[head]
            p = q_pending[head]
            head += 1
            s = r if r > arrival else arrival
            hit[out] = r <= arrival
            creation[out] = c
            ready[out] = r
            start[out] = s
            waiting[out] = s - arrival
            pending[out] = p
            proactive[out] = True
        else:
            p = draws[cursor]
            cursor += 1
            r = (arrival + latency) + p
            creation[out] = arrival
            ready[out] = r
            start[out] = r
            waiting[out] = r - arrival
            pending[out] = p
            # hit / proactive stay False (cold start).
        deficit = target - (tail - head)
        for _ in range(deficit):
            p = draws[cursor]
            cursor += 1
            r = (arrival + latency) + p
            pos = tail
            while pos > head and q_ready[pos - 1] > r:
                pos -= 1
            i = tail
            while i > pos:
                q_ready[i] = q_ready[i - 1]
                q_creation[i] = q_creation[i - 1]
                q_pending[i] = q_pending[i - 1]
                q_order[i] = q_order[i - 1]
                i -= 1
            q_ready[pos] = r
            q_creation[pos] = arrival
            q_pending[pos] = p
            q_order[pos] = size0 + created
            created += 1
            tail += 1
    return head, tail, created, cursor


if NUMBA_AVAILABLE:
    #: The scalar core, JIT-compiled; same source, same results.
    _serve_topup_chunk_impl = _numba.njit(cache=False)(_serve_topup_chunk)
else:
    _serve_topup_chunk_impl = _serve_topup_chunk


class PoolTopUpKernel(ArrivalKernel):
    """Arrival kernel of the pool-top-up family (Reactive / BP / AdapBP).

    Parameters
    ----------
    target_fn:
        Zero-argument callable returning the policy's *current* pool
        target; read once per chunk (targets only change at planning
        ticks for this family).  A negative or ``None`` target declines
        the chunk.
    """

    def __init__(self, target_fn: Callable[[], int | None]) -> None:
        self._target_fn = target_fn

    # ------------------------------------------------------------ protocol

    def begin_chunk(self):
        target = self._target_fn()
        if target is None:
            return None
        target = int(target)
        return target if target >= 0 else None

    def plan(self, pool_size: int, n_arrivals: int, params) -> tuple[int, int]:
        return plan_pool_topup(pool_size, n_arrivals, int(params))

    def run_chunk(self, state, arrivals, draws, params):
        target = int(params)
        if state.fifo_pool:
            return self._run_fifo(state, arrivals, draws, target)
        return self._run_scalar(state, arrivals, draws, target)

    # ---------------------------------------------------- vectorized (FIFO)

    def _run_fifo(self, state, a, draws, target):
        """Pure-numpy chunk when the pool order is provably FIFO.

        Every query is matched to a *queue position*: the initial pool
        entries followed by created instances in creation order.  Query
        ``j`` (except a leading cold start) consumes queue position ``j``,
        so hits, waits and lifecycles come from array expressions over the
        concatenated queue.
        """
        b = state.begin
        m = a.size
        latency = state.latency
        pool_ready = state.pool_ready
        s0 = pool_ready.size
        hit = state.hit
        waiting = state.waiting
        creation = state.creation
        ready = state.ready
        start = state.start
        pending = state.pending
        proactive = state.proactive

        if target == 0:
            served = min(s0, m)
            if served:
                r = pool_ready[:served]
                arr = a[:served]
                s = np.maximum(r, arr)
                hit[b : b + served] = r <= arr
                waiting[b : b + served] = s - arr
                creation[b : b + served] = state.pool_creation[:served]
                ready[b : b + served] = r
                start[b : b + served] = s
                pending[b : b + served] = state.pool_pending[:served]
                proactive[b : b + served] = True
            if m > served:
                arr = a[served:]
                r = (arr + latency) + draws
                waiting[b + served : b + m] = r - arr
                creation[b + served : b + m] = arr
                ready[b + served : b + m] = r
                start[b + served : b + m] = r
                pending[b + served : b + m] = draws
                # hit / proactive stay False (cold starts).
            order = np.arange(served, s0, dtype=np.int64)
            return (
                pool_ready[served:],
                state.pool_creation[served:],
                state.pool_pending[served:],
                order,
            )

        cold = 1 if s0 == 0 else 0
        if cold:
            # Only the first arrival of a chunk can cold-start when the
            # target is positive: the top-up refills the pool before the
            # next arrival is served.
            draw0 = draws[0]
            ready0 = (a[0] + latency) + draw0
            creation[b] = a[0]
            ready[b] = ready0
            start[b] = ready0
            waiting[b] = ready0 - a[0]
            pending[b] = draw0

        first = target if s0 == 0 else max(0, target - (s0 - 1))
        jstart = min(max(s0 - target, 1), m)
        n_created = first + (m - jstart)
        created_creation = np.empty(n_created, dtype=float)
        created_creation[:first] = a[0]
        created_creation[first:] = a[jstart:]
        created_pending = draws[cold:]
        created_ready = (created_creation + latency) + created_pending

        if s0:
            queue_ready = np.concatenate((pool_ready, created_ready))
            queue_creation = np.concatenate((state.pool_creation, created_creation))
            queue_pending = np.concatenate((state.pool_pending, created_pending))
        else:
            queue_ready = created_ready
            queue_creation = created_creation
            queue_pending = created_pending

        n_served = m - cold
        arr = a[cold:]
        r = queue_ready[:n_served]
        s = np.maximum(r, arr)
        hit[b + cold : b + m] = r <= arr
        waiting[b + cold : b + m] = s - arr
        creation[b + cold : b + m] = queue_creation[:n_served]
        ready[b + cold : b + m] = r
        start[b + cold : b + m] = s
        pending[b + cold : b + m] = queue_pending[:n_served]
        proactive[b + cold : b + m] = True

        order = np.arange(n_served, s0 + n_created, dtype=np.int64)
        return (
            queue_ready[n_served:],
            queue_creation[n_served:],
            queue_pending[n_served:],
            order,
        )

    # ------------------------------------------------------ scalar (sorted)

    def _run_scalar(self, state, a, draws, target):
        """Sorted flat-array loop for jittered pending models (JIT-able)."""
        s0 = state.pool_ready.size
        capacity = s0 + draws.size + 1
        q_ready = np.empty(capacity, dtype=float)
        q_creation = np.empty(capacity, dtype=float)
        q_pending = np.empty(capacity, dtype=float)
        q_order = np.empty(capacity, dtype=np.int64)
        q_ready[:s0] = state.pool_ready
        q_creation[:s0] = state.pool_creation
        q_pending[:s0] = state.pool_pending
        q_order[:s0] = np.arange(s0, dtype=np.int64)
        head, tail, created, consumed = _serve_topup_chunk_impl(
            a,
            state.latency,
            target,
            draws,
            q_ready,
            q_creation,
            q_pending,
            q_order,
            s0,
            state.hit,
            state.waiting,
            state.creation,
            state.ready,
            state.start,
            state.pending,
            state.proactive,
            state.begin,
        )
        if consumed != draws.size:  # pragma: no cover - plan/run invariant
            raise SimulationError(
                f"kernel consumed {consumed} pending draws but the chunk plan "
                f"sampled {draws.size}; the RNG stream would diverge"
            )
        return (
            q_ready[head:tail].copy(),
            q_creation[head:tail].copy(),
            q_pending[head:tail].copy(),
            q_order[head:tail].copy(),
        )
