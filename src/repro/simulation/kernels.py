"""Pool top-up chunks over flat arrays: the batched engine's arrival rule.

Every policy states its per-arrival behaviour as one number,
:attr:`~repro.scaling.base.Autoscaler.arrival_target`: after each query the
base hook creates instances right away until ``target`` are outstanding
(Backup Pool, Adaptive Backup Pool; Reactive is the target-0 case).  The
batched engine (:mod:`repro.simulation.fastengine`) serves a target of 0 as
a passive chunk and a positive target through the functions here, which
serve every arrival between two planning ticks in one call: on each
arrival, take the earliest-ready pool instance (or cold-start), then create
instances until ``target`` are outstanding.

**Exact parity.**  A chunk must reproduce the reference engine bit for bit
(same hit flags, waiting times, pending-time draws, RNG consumption order
and pool tiebreaks).  Two facts make this tractable:

1. *Draw counts depend only on pool sizes*, never on drawn values: the
   pool size after each arrival is ``max(size - 1, target)`` regardless of
   which instance was taken.  :func:`plan_pool_topup` therefore derives the
   chunk's exact number of pending-time draws in closed form, the engine
   samples them in one stream-prefix-stable bulk call, and the chunk
   consumes them with a cursor — the RNG ends the chunk in exactly the
   state the reference engine would leave it in.
2. *Deterministic pending times make the pool FIFO*: every new instance's
   ready time ``creation + latency + pending`` is >= every existing one's,
   so pop-min equals pop-head and the whole chunk collapses to pure numpy
   slicing (:func:`serve_topup_fifo`).  With jittered/exponential pending
   models the pool order is data-dependent and a scalar flat-array core
   (:func:`serve_topup_sorted`) maintains the sorted pool explicitly in
   plain Python.

Both servers share one signature: ``(arrivals, draws, target, latency,
pool, out, begin)``, where ``pool`` is the ``(ready, creation, pending)``
columns of the pre-chunk pool sorted by ``(ready, tiebreak)``, ``out`` is
the engine's ``(hit, waiting, creation, ready, start, pending, proactive)``
outcome columns (the chunk writes ``[begin, begin + len(arrivals))`` and
nothing else), and the return value is the surviving pool as ``(ready,
creation, pending, order)`` sorted by ``(ready, tiebreak)``.  ``order``
keys each survivor: values ``< len(pool[0])`` index the pre-chunk pool,
larger values are ``len(pool[0]) + creation_index`` for instances created
during the chunk.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import SimulationError

__all__ = [
    "NUMBA_AVAILABLE",
    "plan_pool_topup",
    "scalar_backend",
    "serve_topup_fifo",
    "serve_topup_sorted",
]

#: The scalar core has no JIT backend; only perfbench's run fingerprint
#: still reads this flag (it was ``True`` when numba compiled the core).
NUMBA_AVAILABLE = False


def scalar_backend() -> str:
    """Always ``"numpy"``; only perfbench's run fingerprint still reads it."""
    return "numpy"


def plan_pool_topup(pool_size: int, n_arrivals: int, target: int) -> tuple[int, int]:
    """Exact ``(n_draws, n_created)`` of a top-up chunk, in closed form.

    Per arrival the reference engine pops the earliest-ready instance (a
    cold start — one draw — when the pool is empty), then creates
    ``max(0, target - size)`` instances (one draw each).  Sizes evolve as
    ``size -> max(size - 1, target)`` independent of the drawn values.  With
    ``target >= 1`` only the first arrival can cold-start (afterwards the
    pool is topped up before the next arrival); the pool drains by one per
    arrival until it reaches ``target`` and then stays there, creating one
    instance per arrival.  A target of 0 is a passive chunk, not a top-up.
    """
    s0 = int(pool_size)
    m = int(n_arrivals)
    t = int(target)
    if t < 1:
        raise SimulationError(f"a top-up chunk needs a target >= 1, got {t}")
    if m <= 0:
        return 0, 0
    cold = 1 if s0 == 0 else 0
    first = t if s0 == 0 else max(0, t - (s0 - 1))
    # Arrivals before ``jstart`` only drain the oversized pool; from
    # ``jstart`` on, every arrival replaces the instance it consumed.
    jstart = min(max(s0 - t, 1), m)
    n_created = first + (m - jstart)
    return cold + n_created, n_created


def serve_topup_fifo(a, draws, target, latency, pool, out, begin):
    """Pure-numpy top-up chunk when the pool order is provably FIFO.

    Every query is matched to a *queue position*: the initial pool entries
    followed by created instances in creation order.  Query ``j`` (except a
    leading cold start) consumes queue position ``j``, so hits, waits and
    lifecycles come from array expressions over the concatenated queue.
    """
    pool_ready, pool_creation, pool_pending = pool
    hit, waiting, creation, ready, start, pending, proactive = out
    b = begin
    m = a.size
    s0 = pool_ready.size

    cold = 1 if s0 == 0 else 0
    if cold:
        # Only the first arrival of a chunk can cold-start when the target
        # is positive: the top-up refills the pool before the next arrival.
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
        queue_creation = np.concatenate((pool_creation, created_creation))
        queue_pending = np.concatenate((pool_pending, created_pending))
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
    """Scalar top-up chunk over a sorted flat-array pool.

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


def serve_topup_sorted(a, draws, target, latency, pool, out, begin):
    """Top-up chunk over an explicitly sorted pool, for jittered pending models."""
    pool_ready, pool_creation, pool_pending = pool
    s0 = pool_ready.size
    capacity = s0 + draws.size + 1
    q_ready = np.empty(capacity, dtype=float)
    q_creation = np.empty(capacity, dtype=float)
    q_pending = np.empty(capacity, dtype=float)
    q_order = np.empty(capacity, dtype=np.int64)
    q_ready[:s0] = pool_ready
    q_creation[:s0] = pool_creation
    q_pending[:s0] = pool_pending
    q_order[:s0] = np.arange(s0, dtype=np.int64)
    head, tail, _, consumed = _serve_topup_chunk(
        a,
        latency,
        target,
        draws,
        q_ready,
        q_creation,
        q_pending,
        q_order,
        s0,
        *out,
        begin,
    )
    if consumed != draws.size:  # pragma: no cover - plan/serve invariant
        raise SimulationError(
            f"top-up chunk consumed {consumed} pending draws but the chunk plan "
            f"sampled {draws.size}; the RNG stream would diverge"
        )
    return (
        q_ready[head:tail].copy(),
        q_creation[head:tail].copy(),
        q_pending[head:tail].copy(),
        q_order[head:tail].copy(),
    )
