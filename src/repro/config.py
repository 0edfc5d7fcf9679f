"""Configuration objects for the RobustScaler pipeline.

The configuration is split by subsystem so that each module can be used in
isolation (e.g. fit an NHPP without ever touching the simulator).  All
configurations are immutable dataclasses validated at construction time.
Only settings that callers change live here; fixed model and solver
internals are named constants next to the code that reads them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ._validation import check_integer, check_non_negative, check_positive
from .exceptions import ConfigurationError

__all__ = [
    "ADMMConfig",
    "NHPPConfig",
    "PlannerConfig",
    "SimulationConfig",
]


@dataclass(frozen=True)
class ADMMConfig:
    """Hyper-parameters of the linearized ADMM solver (Algorithm 2).

    Attributes
    ----------
    max_iterations:
        Upper bound on the number of ADMM iterations.
    tolerance:
        Relative convergence tolerance ``eps_rel`` used in the standard
        primal/dual residual stopping criterion (Boyd et al., 2011); the
        absolute component is ``tolerance / 100``.
    """

    max_iterations: int = 300
    tolerance: float = 1e-3

    def __post_init__(self) -> None:
        check_integer(self.max_iterations, "max_iterations", minimum=1)
        check_positive(self.tolerance, "tolerance")


@dataclass(frozen=True)
class NHPPConfig:
    """Hyper-parameters of the regularized NHPP intensity model (eq. 1).

    Attributes
    ----------
    beta_smooth:
        ``beta_1`` — weight of the L1 penalty on the second-order difference
        of the log-intensity (piecewise-linear trend filtering).
    beta_period:
        ``beta_2`` — weight of the squared L2 penalty on the L-step forward
        difference, activated only when a period has been detected.
    admm:
        Solver configuration.
    """

    beta_smooth: float = 50.0
    beta_period: float = 10.0
    admm: ADMMConfig = field(default_factory=ADMMConfig)

    def __post_init__(self) -> None:
        check_non_negative(self.beta_smooth, "beta_smooth")
        check_non_negative(self.beta_period, "beta_period")


@dataclass(frozen=True)
class PlannerConfig:
    """Configuration of the scaling-decision module (module 4).

    Attributes
    ----------
    planning_interval:
        ``Delta`` — wall-clock seconds between planning rounds in the
        time-based variant of Algorithm 4 used in the experiments.
    monte_carlo_samples:
        ``R`` — number of Monte Carlo samples used by the sort-and-search
        solvers.
    """

    planning_interval: float = 1.0
    monte_carlo_samples: int = 1000

    def __post_init__(self) -> None:
        check_positive(self.planning_interval, "planning_interval")
        check_integer(self.monte_carlo_samples, "monte_carlo_samples", minimum=1)


@dataclass(frozen=True)
class SimulationConfig:
    """Configuration of the scaling-per-query simulator.

    Attributes
    ----------
    pending_time:
        Mean instance startup time ``mu_tau`` in seconds.
    pending_time_jitter:
        Half-width of the uniform jitter added to the pending time; 0 gives
        the deterministic pending time used in most of the paper's runs.
    charge_decision_latency:
        When ``True`` (the "real environment" of Table IV) planner wall-clock
        time delays the execution of scaling actions.
    scheduling_latency:
        Additional constant latency (seconds) between requesting an instance
        from the cluster and the start of its pending period; models the
        Kubernetes control-plane round trip.
    seed:
        Seed of the simulator's own random stream (pending-time jitter).
    engine:
        Which replay engine executes Algorithm 1: ``"reference"`` is the
        per-query event loop whose semantics define the model,
        ``"batched"`` is the vectorized engine of
        :mod:`repro.simulation.fastengine` that produces identical results
        (same RNG draw order, same tiebreaks) at a fraction of the cost,
        policies with a positive arrival target (BP, AdapBP) included.
        ``None`` (the default) leaves the choice to the consuming layer,
        and every layer — :mod:`repro.api`, the CLI and
        :func:`repro.simulation.create_simulator` — resolves it to
        :data:`repro.simulation.runner.DEFAULT_ENGINE` (``"batched"``).
    """

    pending_time: float = 13.0
    pending_time_jitter: float = 0.0
    charge_decision_latency: bool = False
    scheduling_latency: float = 0.0
    seed: int = 0
    engine: Optional[str] = None

    #: Recognized values of :attr:`engine` (besides ``None`` = unspecified).
    ENGINES = ("reference", "batched")

    def __post_init__(self) -> None:
        if self.engine is not None and self.engine not in self.ENGINES:
            raise ConfigurationError(
                f"engine must be one of {self.ENGINES}, got {self.engine!r}"
            )
        check_non_negative(self.pending_time, "pending_time")
        check_non_negative(self.pending_time_jitter, "pending_time_jitter")
        if self.pending_time_jitter > self.pending_time:
            raise ConfigurationError(
                "pending_time_jitter must not exceed pending_time "
                f"({self.pending_time_jitter} > {self.pending_time})"
            )
        check_non_negative(self.scheduling_latency, "scheduling_latency")
        check_integer(self.seed, "seed", minimum=0)
