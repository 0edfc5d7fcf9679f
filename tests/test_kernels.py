"""Unit tests for the pool top-up functions (repro.simulation.kernels).

The differential suites (``test_engine_parity.py`` /
``test_engine_properties.py``) prove the top-up chunks end to end; these
tests pin the module's internals directly — the closed-form draw plan, the
equivalence of the vectorized FIFO server and the per-arrival loop, and the
loop's pool invariants under jittered draws.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import SimulationError
from repro.simulation.kernels import (
    NUMBA_AVAILABLE,
    plan_pool_topup,
    scalar_backend,
    serve_topup_fifo,
    serve_topup_loop,
)


def _brute_force_plan(pool_size: int, n_arrivals: int, target: int):
    """Replay the reference engine's size recurrence one arrival at a time."""
    draws = created = 0
    size = pool_size
    for _ in range(n_arrivals):
        if size > 0:
            size -= 1
        else:
            draws += 1  # cold start
        deficit = target - size
        if deficit > 0:
            draws += deficit
            created += deficit
            size += deficit
    return draws, created


class TestPlanPoolTopUp:
    def test_matches_brute_force_on_full_grid(self):
        for s0 in range(7):
            for m in range(9):
                for target in range(1, 6):
                    assert plan_pool_topup(s0, m, target) == _brute_force_plan(
                        s0, m, target
                    ), f"plan diverged at s0={s0}, m={m}, target={target}"

    def test_empty_chunk_plans_nothing(self):
        assert plan_pool_topup(5, 0, 3) == (0, 0)

    @pytest.mark.parametrize("target", [0, -1])
    def test_non_positive_target_is_not_a_top_up(self, target):
        # A target of 0 is served as a passive chunk, never planned here.
        with pytest.raises(SimulationError):
            plan_pool_topup(2, 10, target)


def _make_chunk(pool_creation, latency, pending_value, m):
    """A deterministic-pending pool (tiebreaks ``0, 1, ...``) plus blank
    outcome columns."""
    pool = [
        ((c + latency) + pending_value, k, c, pending_value)
        for k, c in enumerate(float(c) for c in pool_creation)
    ]
    out = (
        np.zeros(m, dtype=bool),
        np.zeros(m, dtype=float),
        np.zeros(m, dtype=float),
        np.zeros(m, dtype=float),
        np.zeros(m, dtype=bool),
    )
    return pool, out


def _with_derived(out, arrivals, latency):
    """The stored columns plus ``ready`` and ``waiting``, derived as a result does."""
    hit, creation, start, pending, proactive = out
    ready = (creation + latency) + pending
    return hit, start - arrivals, creation, ready, start, pending, proactive


_OUTPUT_FIELDS = ("hit", "waiting", "creation", "ready", "start", "pending", "proactive")


class TestFifoScalarEquivalence:
    """With deterministic pending the FIFO server and the per-arrival loop
    must produce identical outputs, identical surviving pools and the same
    next tiebreak."""

    @pytest.mark.parametrize("s0", [0, 1, 3, 6])
    @pytest.mark.parametrize("target", [1, 2, 5])
    @pytest.mark.parametrize("m", [1, 4, 17])
    def test_servers_agree(self, s0, target, m):
        rng = np.random.default_rng(100 * s0 + 10 * target + m)
        latency, pending_value = 0.25, 2.0
        arrivals = np.cumsum(rng.exponential(1.0, m)) + 5.0
        pool_creation = np.sort(rng.uniform(0.0, 4.0, s0))
        n_draws, n_created = plan_pool_topup(s0, m, target)
        draws = np.full(n_draws, pending_value)

        fifo_pool, fifo_out = _make_chunk(pool_creation, latency, pending_value, m)
        fifo_next = serve_topup_fifo(
            arrivals, draws, target, latency, fifo_pool, s0, fifo_out, 0
        )
        loop_pool, loop_out = _make_chunk(pool_creation, latency, pending_value, m)
        loop_next = serve_topup_loop(
            arrivals, draws, target, latency, loop_pool, s0, loop_out, 0
        )

        for field, fifo_col, loop_col in zip(
            _OUTPUT_FIELDS,
            _with_derived(fifo_out, arrivals, latency),
            _with_derived(loop_out, arrivals, latency),
        ):
            np.testing.assert_array_equal(
                fifo_col, loop_col, err_msg=f"output column {field!r} diverged"
            )
        assert fifo_pool == loop_pool
        assert fifo_next == loop_next == s0 + n_created

    def test_servers_write_only_their_slice(self):
        """A chunk starting at ``begin`` leaves the other rows untouched."""
        arrivals = np.array([10.0, 11.0, 12.5])
        n_draws, _ = plan_pool_topup(1, 3, 2)
        draws = np.full(n_draws, 2.0)
        for serve in (serve_topup_fifo, serve_topup_loop):
            pool, out = _make_chunk([0.5], 0.0, 2.0, 8)
            serve(arrivals, draws, 2, 0.0, pool, 1, out, 4)
            for column in out:
                assert not np.any(column[:4]) and not np.any(column[7:])
            hit, creation, start, pending, proactive = out
            assert np.all(((creation + 0.0) + pending)[4:7] > 0.0)
            assert np.all(start[4:7] > 0.0)


class TestTopUpLoop:
    def test_jittered_draws_keep_the_pool_consistent(self):
        """Under non-FIFO draws the loop keeps the pool sorted with unique ids."""
        rng = np.random.default_rng(9)
        m, target, s0 = 25, 3, 2
        arrivals = np.cumsum(rng.exponential(1.0, m))
        n_draws, n_created = plan_pool_topup(s0, m, target)
        draws = rng.uniform(0.5, 6.0, n_draws)  # jitter breaks FIFO ordering
        pool, out = _make_chunk([0.1, 0.2], 0.0, 1.0, m)
        next_id = serve_topup_loop(arrivals, draws, target, 0.0, pool, s0, out, 0)
        assert next_id == s0 + n_created
        assert len(pool) == target
        assert pool == sorted(pool)
        ids = [entry[1] for entry in pool]
        assert len(set(ids)) == len(ids) and all(0 <= i < next_id for i in ids)
        # Every served query got a consistent lifecycle.
        hit, waiting, creation, ready, start, pending, proactive = _with_derived(
            out, arrivals, 0.0
        )
        assert np.all(start >= ready) and np.all(start >= arrivals)
        np.testing.assert_array_equal(waiting, start - arrivals)
        np.testing.assert_array_equal(hit, proactive & (ready <= arrivals))
        assert np.all(creation <= arrivals)

    def test_cold_start_takes_the_first_draw(self):
        """An empty pool cold-starts the first arrival on the first draw."""
        arrivals = np.array([3.0, 4.0])
        n_draws, _ = plan_pool_topup(0, 2, 1)
        draws = np.array([5.0, 0.25, 0.5])[:n_draws]
        pool, out = _make_chunk([], 0.5, 0.0, 2)
        next_id = serve_topup_loop(arrivals, draws, 1, 0.5, pool, 0, out, 0)
        hit, waiting, creation, ready, start, pending, proactive = _with_derived(
            out, arrivals, 0.5
        )
        assert not proactive[0] and not hit[0]
        assert (creation[0], ready[0], pending[0]) == (3.0, 8.5, 5.0)
        assert waiting[0] == 5.5
        # The second arrival takes the instance the first one created.
        assert proactive[1] and hit[1] and ready[1] == 3.75
        assert next_id == 2 and pool == [(5.0, 1, 4.0, 0.5)]


@pytest.mark.parametrize("serve", [serve_topup_fifo, serve_topup_loop])
def test_cold_start_starts_at_its_derived_ready_time(serve):
    """A result derives ready as ``(creation + latency) + pending``; a cold
    start must start at exactly that sum, whose rounding here differs from
    ``creation + (latency + pending)``."""
    arrivals = np.array([0.1, 5.0])
    n_draws, _ = plan_pool_topup(0, 2, 1)
    pool, out = _make_chunk([], 0.2, 0.3, 2)
    serve(arrivals, np.full(n_draws, 0.3), 1, 0.2, pool, 0, out, 0)
    hit, waiting, creation, ready, start, pending, proactive = _with_derived(
        out, arrivals, 0.2
    )
    assert not proactive[0] and (creation[0], pending[0]) == (0.1, 0.3)
    assert start[0] == ready[0] == (0.1 + 0.2) + 0.3 != 0.1 + (0.2 + 0.3)
    assert waiting[0] == start[0] - 0.1


class TestFingerprintConstants:
    def test_servers_are_plain_numpy(self):
        """The top-up servers have one backend; the benchmark fingerprint reads it."""
        assert NUMBA_AVAILABLE is False
        assert scalar_backend() == "numpy"
