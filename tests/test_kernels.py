"""Unit tests for the arrival-kernel machinery (repro.simulation.kernels).

The differential suites (``test_engine_parity.py`` /
``test_engine_properties.py``) prove the kernel engine end to end; these
tests pin the module's internals directly — the closed-form draw plan, the
equivalence of the vectorized FIFO branch and the scalar sorted-pool core,
the backend gating, and the policy declarations.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.scaling.adaptive_backup_pool import AdaptiveBackupPoolScaler
from repro.scaling.backup_pool import BackupPoolScaler, ReactiveScaler
from repro.scaling.base import Autoscaler
from repro.simulation.kernels import (
    JIT_BACKEND,
    NUMBA_AVAILABLE,
    KernelState,
    PoolTopUpKernel,
    plan_pool_topup,
    scalar_backend,
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
                for target in range(6):
                    assert plan_pool_topup(s0, m, target) == _brute_force_plan(
                        s0, m, target
                    ), f"plan diverged at s0={s0}, m={m}, target={target}"

    def test_empty_chunk_plans_nothing(self):
        assert plan_pool_topup(5, 0, 3) == (0, 0)

    def test_zero_target_only_cold_starts(self):
        n_draws, n_created = plan_pool_topup(2, 10, 0)
        assert (n_draws, n_created) == (8, 0)


def _make_state(pool_creation, latency, pending_value, m):
    """A KernelState over a deterministic-pending pool plus blank outputs."""
    pool_creation = np.asarray(pool_creation, dtype=float)
    pool_pending = np.full(pool_creation.size, float(pending_value))
    pool_ready = pool_creation + latency + pool_pending
    return KernelState(
        pool_ready=pool_ready,
        pool_creation=pool_creation,
        pool_pending=pool_pending,
        latency=latency,
        fifo_pool=True,
        begin=0,
        hit=np.zeros(m, dtype=bool),
        waiting=np.zeros(m, dtype=float),
        creation=np.zeros(m, dtype=float),
        ready=np.zeros(m, dtype=float),
        start=np.zeros(m, dtype=float),
        pending=np.zeros(m, dtype=float),
        proactive=np.zeros(m, dtype=bool),
    )


_OUTPUT_FIELDS = ("hit", "waiting", "creation", "ready", "start", "pending", "proactive")


class TestFifoScalarEquivalence:
    """With deterministic pending the FIFO branch and the scalar core must
    produce identical outputs and identical surviving pools."""

    @pytest.mark.parametrize("s0", [0, 1, 3, 6])
    @pytest.mark.parametrize("target", [0, 1, 2, 5])
    @pytest.mark.parametrize("m", [1, 4, 17])
    def test_branches_agree(self, s0, target, m):
        rng = np.random.default_rng(100 * s0 + 10 * target + m)
        latency, pending_value = 0.25, 2.0
        arrivals = np.cumsum(rng.exponential(1.0, m)) + 5.0
        pool_creation = np.sort(rng.uniform(0.0, 4.0, s0))
        n_draws, _ = plan_pool_topup(s0, m, target)
        draws = np.full(n_draws, pending_value)
        kernel = PoolTopUpKernel(lambda: target)

        fifo_state = _make_state(pool_creation, latency, pending_value, m)
        fifo = kernel._run_fifo(fifo_state, arrivals, draws, target)
        scalar_state = _make_state(pool_creation, latency, pending_value, m)
        scalar = kernel._run_scalar(scalar_state, arrivals, draws, target)

        for field in _OUTPUT_FIELDS:
            np.testing.assert_array_equal(
                getattr(fifo_state, field),
                getattr(scalar_state, field),
                err_msg=f"output column {field!r} diverged",
            )
        for fifo_arr, scalar_arr, label in zip(
            fifo, scalar, ("ready", "creation", "pending", "order")
        ):
            np.testing.assert_array_equal(
                fifo_arr, scalar_arr, err_msg=f"survivor column {label!r} diverged"
            )

    def test_scalar_core_handles_jittered_draws(self):
        """The scalar core must keep the pool sorted under non-FIFO draws."""
        rng = np.random.default_rng(9)
        m, target, s0 = 25, 3, 2
        arrivals = np.cumsum(rng.exponential(1.0, m))
        pool_creation = np.array([0.1, 0.2])
        n_draws, _ = plan_pool_topup(s0, m, target)
        draws = rng.uniform(0.5, 6.0, n_draws)  # jitter breaks FIFO ordering
        kernel = PoolTopUpKernel(lambda: target)
        state = _make_state(pool_creation, 0.0, 1.0, m)
        surv_ready, _, _, surv_order = kernel._run_scalar(
            state, arrivals, draws, target
        )
        assert np.all(np.diff(surv_ready) >= 0.0)
        assert surv_ready.size == target
        assert len(set(surv_order.tolist())) == surv_order.size
        # Every served query got a consistent lifecycle.
        assert np.all(state.start >= state.ready - 1e-12)
        assert np.all(state.waiting >= 0.0)


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


class TestPolicyDeclarations:
    def test_base_policy_has_no_kernel(self):
        class Plain(Autoscaler):
            pass

        assert Plain().arrival_kernel() is None

    @pytest.mark.parametrize(
        "factory",
        [lambda: BackupPoolScaler(3), lambda: AdaptiveBackupPoolScaler(2.0)],
        ids=["bp", "adapbp"],
    )
    def test_top_up_policies_declare_the_kernel(self, factory):
        kernel = factory().arrival_kernel()
        assert isinstance(kernel, PoolTopUpKernel)

    def test_bp_kernel_reads_the_pool_size(self):
        scaler = BackupPoolScaler(4)
        assert scaler.arrival_kernel().begin_chunk() == 4

    def test_adapbp_kernel_tracks_the_live_target(self):
        scaler = AdaptiveBackupPoolScaler(2.0)
        kernel = scaler.arrival_kernel()
        assert kernel.begin_chunk() == 0
        scaler._target = 7
        assert kernel.begin_chunk() == 7

    def test_reactive_inherits_but_stays_passive(self):
        scaler = ReactiveScaler()
        assert isinstance(scaler.arrival_kernel(), PoolTopUpKernel)
        assert scaler.arrival_hook_is_passive

    def test_negative_target_declines_the_chunk(self):
        assert PoolTopUpKernel(lambda: -1).begin_chunk() is None
        assert PoolTopUpKernel(lambda: None).begin_chunk() is None
