"""Configuration objects for the RobustScaler pipeline.

The configuration is split by subsystem so that each module can be used in
isolation (e.g. fit an NHPP without ever touching the simulator).  All
configurations are immutable dataclasses validated at construction time.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from ._validation import (
    check_in_range,
    check_integer,
    check_non_negative,
    check_positive,
    check_probability,
)
from .exceptions import ConfigurationError

__all__ = [
    "ADMMConfig",
    "NHPPConfig",
    "PeriodicityConfig",
    "WorkloadModelConfig",
    "PlannerConfig",
    "SimulationConfig",
    "RobustScalerConfig",
]


@dataclass(frozen=True)
class ADMMConfig:
    """Hyper-parameters of the linearized ADMM solver (Algorithm 2).

    Attributes
    ----------
    rho:
        Augmented-Lagrangian penalty parameter ``rho > 0``.
    max_iterations:
        Upper bound on the number of ADMM iterations.
    tolerance:
        Relative convergence tolerance ``eps_rel`` used in the standard
        primal/dual residual stopping criterion (Boyd et al., 2011); the
        absolute component is ``tolerance / 100``.
    verbose:
        When ``True``, the solver records per-iteration diagnostics.
    """

    rho: float = 10.0
    max_iterations: int = 300
    tolerance: float = 1e-3
    verbose: bool = False

    def __post_init__(self) -> None:
        check_positive(self.rho, "rho")
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
    min_intensity:
        Numerical floor applied to fitted intensities (queries per second).
    """

    beta_smooth: float = 50.0
    beta_period: float = 10.0
    admm: ADMMConfig = field(default_factory=ADMMConfig)
    min_intensity: float = 1e-8

    def __post_init__(self) -> None:
        check_non_negative(self.beta_smooth, "beta_smooth")
        check_non_negative(self.beta_period, "beta_period")
        check_positive(self.min_intensity, "min_intensity")


@dataclass(frozen=True)
class PeriodicityConfig:
    """Parameters of the robust periodicity detector.

    Attributes
    ----------
    aggregation_factor:
        Number of base bins merged before detection, reducing the stochastic
        component of low-traffic series (Section IV of the paper).
    max_period_fraction:
        A period candidate longer than this fraction of the series is
        rejected as unverifiable.
    acf_threshold:
        Minimum autocorrelation at the candidate lag for it to be accepted.
    power_threshold:
        Minimum periodogram power (as a multiple of the median power) for a
        frequency to be considered a candidate.
    detrend:
        Whether to remove a robust trend estimate before detection.
    max_candidates:
        Maximum number of periodogram candidates examined.
    """

    aggregation_factor: int = 5
    max_period_fraction: float = 0.5
    acf_threshold: float = 0.2
    power_threshold: float = 4.0
    detrend: bool = True
    max_candidates: int = 10

    def __post_init__(self) -> None:
        check_integer(self.aggregation_factor, "aggregation_factor", minimum=1)
        check_in_range(self.max_period_fraction, "max_period_fraction", 0.0, 1.0)
        check_in_range(self.acf_threshold, "acf_threshold", -1.0, 1.0)
        check_positive(self.power_threshold, "power_threshold")
        check_integer(self.max_candidates, "max_candidates", minimum=1)


@dataclass(frozen=True)
class WorkloadModelConfig:
    """End-to-end configuration of modules 1-3 (detection, modeling, prediction)."""

    bin_seconds: float = 60.0
    nhpp: NHPPConfig = field(default_factory=NHPPConfig)
    periodicity: PeriodicityConfig = field(default_factory=PeriodicityConfig)

    def __post_init__(self) -> None:
        check_positive(self.bin_seconds, "bin_seconds")


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
    lookahead_margin:
        Extra seconds of look-ahead beyond the planning interval, covering
        decision latency (the "Delta + delay" extension in Section VII-B2).
    max_plan_horizon:
        Hard cap (seconds) on how far into the future instances are planned.
    kappa_cap:
        Upper bound on the look-ahead threshold ``kappa`` of eq. (8); guards
        against pathological intensity upper bounds.
    """

    planning_interval: float = 1.0
    monte_carlo_samples: int = 1000
    lookahead_margin: float = 0.0
    max_plan_horizon: float = 3600.0
    kappa_cap: int = 10_000

    def __post_init__(self) -> None:
        check_positive(self.planning_interval, "planning_interval")
        check_integer(self.monte_carlo_samples, "monte_carlo_samples", minimum=1)
        check_non_negative(self.lookahead_margin, "lookahead_margin")
        check_positive(self.max_plan_horizon, "max_plan_horizon")
        check_integer(self.kappa_cap, "kappa_cap", minimum=1)


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
    default_processing_time:
        Mean processing time ``mu_s`` used when a trace does not carry
        per-query processing times.
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
        and ``"kernel"`` is the batched engine with the kernelized
        per-arrival dispatch tier that additionally vectorizes hook
        policies declaring an arrival kernel (BP, AdapBP) — still
        bit-identical.
        ``None`` (the default) leaves the choice to the consuming layer,
        and every layer — :mod:`repro.api`, the CLI and
        :func:`repro.simulation.create_simulator` — resolves it to
        :data:`repro.simulation.runner.DEFAULT_ENGINE` (``"batched"``).
    """

    pending_time: float = 13.0
    pending_time_jitter: float = 0.0
    default_processing_time: float = 20.0
    charge_decision_latency: bool = False
    scheduling_latency: float = 0.0
    seed: int = 0
    engine: Optional[str] = None

    #: Recognized values of :attr:`engine` (besides ``None`` = unspecified).
    ENGINES = ("reference", "batched", "kernel")

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
        check_non_negative(self.default_processing_time, "default_processing_time")
        check_non_negative(self.scheduling_latency, "scheduling_latency")
        check_integer(self.seed, "seed", minimum=0)


@dataclass(frozen=True)
class RobustScalerConfig:
    """Top-level configuration bundling every stage of the pipeline.

    Attributes
    ----------
    workload:
        Configuration of periodicity detection, NHPP fitting and prediction.
    planner:
        Configuration of the scaling-decision module.
    target_hit_probability:
        QoS target ``1 - alpha`` for the HP-constrained variant.
    target_response_time:
        QoS target ``d - mu_s`` (waiting-time budget, seconds) for the
        RT-constrained variant.
    cost_budget:
        Per-instance idle-cost budget ``B - mu_tau - mu_s`` (seconds) for the
        cost-constrained variant.
    """

    workload: WorkloadModelConfig = field(default_factory=WorkloadModelConfig)
    planner: PlannerConfig = field(default_factory=PlannerConfig)
    target_hit_probability: float = 0.9
    target_response_time: Optional[float] = None
    cost_budget: Optional[float] = None

    def __post_init__(self) -> None:
        check_probability(self.target_hit_probability, "target_hit_probability")
        if self.target_response_time is not None:
            check_non_negative(self.target_response_time, "target_response_time")
        if self.cost_budget is not None:
            check_non_negative(self.cost_budget, "cost_budget")

    def with_target_hit_probability(self, value: float) -> "RobustScalerConfig":
        """Return a copy with a different HP target."""
        return replace(self, target_hit_probability=value)

    def with_target_response_time(self, value: float) -> "RobustScalerConfig":
        """Return a copy with a different waiting-time budget."""
        return replace(self, target_response_time=value)

    def with_cost_budget(self, value: float) -> "RobustScalerConfig":
        """Return a copy with a different idle-cost budget."""
        return replace(self, cost_budget=value)
