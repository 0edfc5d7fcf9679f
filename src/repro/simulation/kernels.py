"""Pool top-up chunks: the batched engine's arrival rule.

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
   models the pool order is data-dependent, and :func:`serve_topup_loop`
   replays the chunk one arrival at a time on the sorted pool itself.

Both servers share one signature: ``(arrivals, draws, target, latency,
pool, tiebreak, out, begin) -> tiebreak``.  ``pool`` is the engine's own
pool, a list of ``(ready, tiebreak, creation, pending)`` tuples sorted
ascending, which the chunk updates in place; instances created during the
chunk take the ids ``tiebreak, tiebreak + 1, ...`` in creation order, and
the next free id is returned.  ``out`` is the engine's five stored outcome
columns ``(hit, creation, start, pending, proactive)``; the chunk writes
``[begin, begin + len(arrivals))`` and nothing else.  A result derives
ready times as ``(creation + latency) + pending`` and waiting times as
``start - arrival``, the expressions the servers compute them with.
"""

from __future__ import annotations

from bisect import insort

import numpy as np

from ..exceptions import SimulationError

__all__ = [
    "NUMBA_AVAILABLE",
    "plan_pool_topup",
    "scalar_backend",
    "serve_topup_fifo",
    "serve_topup_loop",
]

#: The top-up servers have no JIT backend; only perfbench's run fingerprint
#: still reads this flag (it was ``True`` when numba compiled the old core).
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


def serve_topup_fifo(a, draws, target, latency, pool, tiebreak, out, begin):
    """Pure-numpy top-up chunk when the pool order is provably FIFO.

    Every query is matched to a *queue position*: the initial pool entries
    followed by created instances in creation order.  Query ``j`` (except a
    leading cold start) consumes queue position ``j``, so hits, waits and
    lifecycles come from array expressions over the concatenated queue.
    """
    hit, creation, start, pending, proactive = out
    b = begin
    m = a.size
    s0 = len(pool)
    _, n_created = plan_pool_topup(s0, m, target)

    cold = 1 if s0 == 0 else 0
    if cold:
        # Only the first arrival of a chunk can cold-start when the target
        # is positive: the top-up refills the pool before the next arrival.
        creation[b] = a[0]
        start[b] = (a[0] + latency) + draws[0]
        pending[b] = draws[0]

    # The last ``tail`` arrivals create one instance each; the first
    # arrival creates the rest of the plan's count.
    tail = min(n_created, m - 1)
    created_creation = np.empty(n_created, dtype=float)
    created_creation[: n_created - tail] = a[0]
    created_creation[n_created - tail :] = a[m - tail :]
    created_pending = draws[cold:]
    created_ready = (created_creation + latency) + created_pending

    if s0:
        queue_ready = np.concatenate(([e[0] for e in pool], created_ready))
        queue_creation = np.concatenate(([e[2] for e in pool], created_creation))
        queue_pending = np.concatenate(([e[3] for e in pool], created_pending))
    else:
        queue_ready = created_ready
        queue_creation = created_creation
        queue_pending = created_pending

    n_served = m - cold
    arr = a[cold:]
    r = queue_ready[:n_served]
    hit[b + cold : b + m] = r <= arr
    creation[b + cold : b + m] = queue_creation[:n_served]
    start[b + cold : b + m] = np.maximum(r, arr)
    pending[b + cold : b + m] = queue_pending[:n_served]
    proactive[b + cold : b + m] = True

    # Survivors: the unserved tail of the old pool keeps its tuples, then
    # the unserved created instances follow with fresh ids.
    kept = max(0, n_served - s0)
    del pool[:n_served]
    pool.extend(
        zip(
            created_ready[kept:].tolist(),
            range(tiebreak + kept, tiebreak + n_created),
            created_creation[kept:].tolist(),
            created_pending[kept:].tolist(),
        )
    )
    return tiebreak + n_created


def serve_topup_loop(a, draws, target, latency, pool, tiebreak, out, begin):
    """Top-up chunk for any pending model: one arrival at a time on the pool.

    Each arrival pops the pool head (or cold-starts on the next draw), then
    ``insort``s new instances until ``target`` are outstanding.  Fresh ids
    exceed every id in the pool, so ``insort`` breaks ready-time ties
    exactly like the reference engine's heap.
    """
    draws = draws.tolist()
    cursor = 0
    # One (ready, tiebreak, creation, pending) row per arrival; a cold
    # start is marked by the tiebreak -1.
    rows = []
    for arrival in a.tolist():
        if pool:
            rows.append(pool.pop(0))
        else:
            p = draws[cursor]
            cursor += 1
            rows.append(((arrival + latency) + p, -1, arrival, p))
        for _ in range(target - len(pool)):
            p = draws[cursor]
            cursor += 1
            insort(pool, ((arrival + latency) + p, tiebreak, arrival, p))
            tiebreak += 1
    if cursor != len(draws):  # pragma: no cover - plan/serve invariant
        raise SimulationError(
            f"top-up chunk consumed {cursor} pending draws but the chunk plan "
            f"sampled {len(draws)}; the RNG stream would diverge"
        )

    rows = np.array(rows, dtype=float)
    r = rows[:, 0]
    warm = rows[:, 1] >= 0
    end = begin + a.size
    hit, creation, start, pending, proactive = out
    hit[begin:end] = warm & (r <= a)
    creation[begin:end] = rows[:, 2]
    start[begin:end] = np.where(warm, np.maximum(r, a), r)
    pending[begin:end] = rows[:, 3]
    proactive[begin:end] = warm
    return tiebreak
