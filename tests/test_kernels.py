"""Unit tests for the pool top-up functions (repro.simulation.kernels).

The differential suites (``test_engine_parity.py`` /
``test_engine_properties.py``) prove the top-up chunks end to end; these
tests pin the module's internals directly — the closed-form draw plan, the
equivalence of the vectorized FIFO server and the scalar sorted-pool core,
and the backend gating.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import SimulationError
from repro.simulation.kernels import (
    JIT_BACKEND,
    NUMBA_AVAILABLE,
    plan_pool_topup,
    scalar_backend,
    serve_topup_fifo,
    serve_topup_sorted,
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
    """A deterministic-pending pool plus blank outcome columns."""
    pool_creation = np.asarray(pool_creation, dtype=float)
    pool_pending = np.full(pool_creation.size, float(pending_value))
    pool_ready = pool_creation + latency + pool_pending
    out = (
        np.zeros(m, dtype=bool),
        np.zeros(m, dtype=float),
        np.zeros(m, dtype=float),
        np.zeros(m, dtype=float),
        np.zeros(m, dtype=float),
        np.zeros(m, dtype=float),
        np.zeros(m, dtype=bool),
    )
    return (pool_ready, pool_creation, pool_pending), out


_OUTPUT_FIELDS = ("hit", "waiting", "creation", "ready", "start", "pending", "proactive")


class TestFifoScalarEquivalence:
    """With deterministic pending the FIFO server and the scalar core must
    produce identical outputs and identical surviving pools."""

    @pytest.mark.parametrize("s0", [0, 1, 3, 6])
    @pytest.mark.parametrize("target", [1, 2, 5])
    @pytest.mark.parametrize("m", [1, 4, 17])
    def test_servers_agree(self, s0, target, m):
        rng = np.random.default_rng(100 * s0 + 10 * target + m)
        latency, pending_value = 0.25, 2.0
        arrivals = np.cumsum(rng.exponential(1.0, m)) + 5.0
        pool_creation = np.sort(rng.uniform(0.0, 4.0, s0))
        n_draws, _ = plan_pool_topup(s0, m, target)
        draws = np.full(n_draws, pending_value)

        pool, fifo_out = _make_chunk(pool_creation, latency, pending_value, m)
        fifo = serve_topup_fifo(arrivals, draws, target, latency, pool, fifo_out, 0)
        pool, sorted_out = _make_chunk(pool_creation, latency, pending_value, m)
        scalar = serve_topup_sorted(arrivals, draws, target, latency, pool, sorted_out, 0)

        for field, fifo_col, sorted_col in zip(_OUTPUT_FIELDS, fifo_out, sorted_out):
            np.testing.assert_array_equal(
                fifo_col, sorted_col, err_msg=f"output column {field!r} diverged"
            )
        for fifo_arr, scalar_arr, label in zip(
            fifo, scalar, ("ready", "creation", "pending", "order")
        ):
            np.testing.assert_array_equal(
                fifo_arr, scalar_arr, err_msg=f"survivor column {label!r} diverged"
            )

    def test_servers_write_only_their_slice(self):
        """A chunk starting at ``begin`` leaves the other rows untouched."""
        arrivals = np.array([10.0, 11.0, 12.5])
        n_draws, _ = plan_pool_topup(1, 3, 2)
        draws = np.full(n_draws, 2.0)
        for serve in (serve_topup_fifo, serve_topup_sorted):
            pool, out = _make_chunk([0.5], 0.0, 2.0, 8)
            serve(arrivals, draws, 2, 0.0, pool, out, 4)
            for column in out:
                assert not np.any(column[:4]) and not np.any(column[7:])
            assert np.all(out[3][4:7] > 0.0)

    def test_scalar_core_handles_jittered_draws(self):
        """The scalar core must keep the pool sorted under non-FIFO draws."""
        rng = np.random.default_rng(9)
        m, target, s0 = 25, 3, 2
        arrivals = np.cumsum(rng.exponential(1.0, m))
        n_draws, _ = plan_pool_topup(s0, m, target)
        draws = rng.uniform(0.5, 6.0, n_draws)  # jitter breaks FIFO ordering
        pool, out = _make_chunk([0.1, 0.2], 0.0, 1.0, m)
        surv_ready, _, _, surv_order = serve_topup_sorted(
            arrivals, draws, target, 0.0, pool, out, 0
        )
        _, waiting, _, ready, start, _, _ = out
        assert np.all(np.diff(surv_ready) >= 0.0)
        assert surv_ready.size == target
        assert len(set(surv_order.tolist())) == surv_order.size
        # Every served query got a consistent lifecycle.
        assert np.all(start >= ready - 1e-12)
        assert np.all(waiting >= 0.0)


class TestBackendGating:
    def test_backend_matches_availability(self):
        assert JIT_BACKEND in ("numba", "numpy")
        assert scalar_backend() == JIT_BACKEND
        assert (JIT_BACKEND == "numba") == NUMBA_AVAILABLE

    def test_numba_used_whenever_importable(self):
        try:
            import numba  # noqa: F401
        except Exception:
            importable = False
        else:
            importable = True
        assert NUMBA_AVAILABLE == importable
