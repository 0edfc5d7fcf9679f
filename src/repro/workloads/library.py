"""The built-in scenario library.

Importing this module populates :data:`repro.workloads.registry.DEFAULT_REGISTRY`
with named scenarios covering the situations an autoscaler meets in
production — steady load, strong seasonality, weekend dips, launches,
flash crowds, heavy-tailed Pareto bursts, sale events, batch bursts,
multi-tenant mixes, cold-start-dominated serving tiers, outages and
recoveries — plus registry aliases for the three paper traces (``crs``,
``google``, ``alibaba``) so every workload in the repository can be looked
up through one interface.

All intensity scenarios are built from the composable primitives in
:mod:`repro.workloads.primitives` and sampled as exact NHPPs; every one is
deterministic given a seed.  Event placements are expressed relative to the
horizon so scenarios stay well-formed when generated at reduced ``scale``,
and late-horizon events (flash crowds, outages) land inside the *test*
window of the train/test split.
"""

from __future__ import annotations

from ..traces.synthetic import (
    generate_alibaba_like_trace,
    generate_crs_like_trace,
    generate_google_like_trace,
)
from ..types import ArrivalTrace
from .primitives import (
    Constant,
    FlashCrowd,
    GammaNoise,
    IntensityPrimitive,
    ParetoBursts,
    Pulse,
    Ramp,
    RegimeSwitching,
    SeasonalBump,
    Sinusoid,
    WeeklyProfile,
)
from .registry import DEFAULT_REGISTRY, register_scenario
from .scenarios import Scenario

__all__ = ["register_builtin_scenarios"]

_DAY = 86_400.0
_HOUR = 3_600.0
_WEEK = 7 * _DAY


# --------------------------------------------------------------------------
# Intensity builders (each receives the scaled horizon in seconds)


def _steady_state(horizon: float) -> IntensityPrimitive:
    return Constant(0.35) * GammaNoise(0.2, correlation_bins=10)


def _diurnal_heavy(horizon: float) -> IntensityPrimitive:
    daily = SeasonalBump(_DAY, 1.1, sharpness=6.0, base=0.06)
    return daily * GammaNoise(0.25, correlation_bins=10)


def _weekend_dip(horizon: float) -> IntensityPrimitive:
    daily = SeasonalBump(_DAY, 0.5, sharpness=4.0, base=0.08)
    week = WeeklyProfile((1.0, 1.05, 1.0, 0.95, 0.9, 0.4, 0.3))
    return daily * week * GammaNoise(0.3, correlation_bins=8)


def _ramp_launch(horizon: float) -> IntensityPrimitive:
    growth = Ramp(0.05, 0.9, start_seconds=0.0, end_seconds=0.65 * horizon)
    daily = Sinusoid(_DAY, 1.0, 0.35)
    return growth * daily.clip(lower=0.0) * GammaNoise(0.25, correlation_bins=10)


def _exp_growth(horizon: float) -> IntensityPrimitive:
    growth = Ramp(
        0.04, 1.0, start_seconds=0.0, end_seconds=horizon, shape="exponential"
    )
    return growth * GammaNoise(0.2, correlation_bins=10)


def _flash_crowd(horizon: float) -> IntensityPrimitive:
    base = Constant(0.25) * GammaNoise(0.2, correlation_bins=10)
    spike = FlashCrowd(
        0.8 * horizon, 3.0, rise_seconds=0.01 * horizon, decay_seconds=0.04 * horizon
    )
    return base + spike


def _black_friday(horizon: float) -> IntensityPrimitive:
    daily = SeasonalBump(_DAY, 0.55, sharpness=5.0, base=0.1)
    # The sale day: amplitude jumps 4x over a sustained window late in the
    # horizon, with an extra door-buster spike when the sale opens.
    sale_boost = Constant(1.0) + Pulse(0.78 * horizon, 0.92 * horizon, 3.0)
    doorbuster = FlashCrowd(
        0.78 * horizon, 2.0, rise_seconds=0.005 * horizon, decay_seconds=0.02 * horizon
    )
    return daily * sale_boost * GammaNoise(0.25, correlation_bins=8) + doorbuster


def _bursty_batch(horizon: float) -> IntensityPrimitive:
    floor = Constant(0.04)
    bursts = RegimeSwitching((0.02, 0.9), 2.0 * _HOUR, start_regime=0)
    return (floor + bursts) * GammaNoise(0.25, correlation_bins=5)


def _multi_tenant(horizon: float) -> IntensityPrimitive:
    tenant_a = SeasonalBump(_DAY, 0.4, sharpness=6.0, base=0.03)
    tenant_b = SeasonalBump(_DAY, 0.3, sharpness=6.0, base=0.02, phase_fraction=0.35)
    tenant_c = RegimeSwitching((0.02, 0.35), _HOUR, start_regime=0)
    floor = Constant(0.05)
    return (tenant_a + tenant_b + tenant_c + floor) * GammaNoise(
        0.2, correlation_bins=10
    )


def _outage_recovery(horizon: float) -> IntensityPrimitive:
    base = SeasonalBump(_DAY, 0.7, sharpness=5.0, base=0.15)
    # Traffic vanishes during the outage, then a recovery spike flushes the
    # backlog the moment service returns.
    outage = Constant(1.0) - Pulse(0.75 * horizon, 0.8 * horizon, 1.0)
    recovery = FlashCrowd(
        0.8 * horizon, 2.5, rise_seconds=0.004 * horizon, decay_seconds=0.02 * horizon
    )
    return base * outage * GammaNoise(0.2, correlation_bins=10) + recovery


def _pareto_bursts(horizon: float) -> IntensityPrimitive:
    # Heavy-tailed flash crowds on top of a modest steady base: several
    # bursts a day whose peaks follow a Pareto law with finite mean but
    # infinite variance (alpha = 1.6).
    base = Constant(0.2) * GammaNoise(0.2, correlation_bins=10)
    bursts = ParetoBursts(
        8.0,
        1.6,
        0.6,
        rise_seconds=0.003 * horizon,
        decay_seconds=0.015 * horizon,
    )
    return base + bursts


def _pareto_bursts_extreme(horizon: float) -> IntensityPrimitive:
    # The ruinous tail: rare bursts with alpha = 1.1, barely integrable —
    # a single event can dwarf a day of regular traffic.
    base = Constant(0.15) * GammaNoise(0.25, correlation_bins=8)
    bursts = ParetoBursts(
        3.0,
        1.1,
        0.8,
        rise_seconds=0.002 * horizon,
        decay_seconds=0.025 * horizon,
    )
    return base + bursts


def _cold_start_services(horizon: float) -> IntensityPrimitive:
    # Ordinary diurnal serving traffic; what makes the scenario hard is the
    # processing-time model, not the arrivals: queries draw from the bimodal
    # cold/warm family, so a minority of requests occupies an instance ~8x
    # longer than the warm majority (container pull, model load).
    daily = SeasonalBump(_DAY, 0.6, sharpness=5.0, base=0.08)
    return daily * GammaNoise(0.2, correlation_bins=10)


def _spiky_cron(horizon: float) -> IntensityPrimitive:
    return SeasonalBump(_HOUR, 1.4, sharpness=30.0, base=0.05) * GammaNoise(
        0.15, correlation_bins=3
    )


def _weekly_seasonal(horizon: float) -> IntensityPrimitive:
    weekly = SeasonalBump(_WEEK, 0.5, sharpness=3.0, base=0.1)
    daily = Sinusoid(_DAY, 1.0, 0.4)
    return weekly * daily.clip(lower=0.0) * GammaNoise(0.25, correlation_bins=8)


# --------------------------------------------------------------------------
# Paper-trace aliases.  ``scale = 1.0`` approximates the paper's trace sizes
# (weeks of data, hundreds of thousands of queries for Alibaba); smaller
# scales keep the same structure (periodicity, spikes, noise, the Alibaba
# burst) but replay in seconds rather than minutes.


def _paper_crs(*, seed: int, scale: float = 1.0) -> ArrivalTrace:
    # At least two weeks so the weekday/weekend alternation reaches the
    # training window.
    n_weeks = max(2, int(round(4 * scale)))
    return generate_crs_like_trace(n_weeks=n_weeks, seed=seed)


def _paper_google(*, seed: int, scale: float = 1.0) -> ArrivalTrace:
    n_hours = max(6, int(round(24 * scale * 2)))
    return generate_google_like_trace(n_hours=n_hours, seed=seed)


def _paper_alibaba(*, seed: int, scale: float = 1.0) -> ArrivalTrace:
    n_days = max(2, int(round(5 * scale)))
    mean_qps = 1.2 * min(1.0, max(scale, 0.2))
    return generate_alibaba_like_trace(n_days=n_days, mean_qps=mean_qps, seed=seed)


def register_builtin_scenarios(registry=DEFAULT_REGISTRY, *, overwrite: bool = False) -> None:
    """Register the built-in scenario library into ``registry``."""
    scenarios = [
        Scenario(
            name="steady-state",
            description="Flat baseline traffic with mild drifting noise",
            intensity=_steady_state,
            horizon_seconds=1 * _DAY,
            tags=("baseline",),
        ),
        Scenario(
            name="diurnal-heavy",
            description="Strong daily peak over a tiny overnight base",
            intensity=_diurnal_heavy,
            horizon_seconds=3 * _DAY,
            tags=("seasonal",),
        ),
        Scenario(
            name="weekend-dip",
            description="Weekday daily cycles with a pronounced weekend dip",
            intensity=_weekend_dip,
            horizon_seconds=1 * _WEEK,
            bin_seconds=300.0,
            tags=("seasonal", "weekly"),
        ),
        Scenario(
            name="ramp-launch",
            description="Product launch: linear adoption ramp times a daily cycle",
            intensity=_ramp_launch,
            horizon_seconds=2 * _DAY,
            train_fraction=0.6,
            tags=("growth",),
        ),
        Scenario(
            name="exp-growth",
            description="Hypergrowth: exponentially compounding traffic (25x over the horizon)",
            intensity=_exp_growth,
            horizon_seconds=2 * _DAY,
            train_fraction=0.6,
            tags=("growth",),
        ),
        Scenario(
            name="flash-crowd",
            description="Steady base with an unforecast 12x flash crowd in the test window",
            intensity=_flash_crowd,
            horizon_seconds=1 * _DAY,
            train_fraction=0.7,
            tags=("bursty", "adversarial"),
        ),
        Scenario(
            name="black-friday",
            description="Seasonal base with a sustained 4x sale window plus door-buster spike",
            intensity=_black_friday,
            horizon_seconds=5 * _DAY,
            train_fraction=0.7,
            tags=("seasonal", "bursty", "adversarial"),
        ),
        Scenario(
            name="bursty-batch",
            description="MMPP regime switching between idle and heavy batch submissions",
            intensity=_bursty_batch,
            horizon_seconds=2 * _DAY,
            tags=("bursty",),
        ),
        Scenario(
            name="multi-tenant-mix",
            description="Superposition of two phase-shifted diurnal tenants and one bursty tenant",
            intensity=_multi_tenant,
            horizon_seconds=3 * _DAY,
            tags=("seasonal", "bursty", "multi-tenant"),
        ),
        Scenario(
            name="outage-recovery",
            description=(
                "Diurnal traffic with an outage blackout and a backlog-flush recovery spike"
            ),
            intensity=_outage_recovery,
            horizon_seconds=2 * _DAY,
            train_fraction=0.7,
            tags=("adversarial",),
        ),
        Scenario(
            name="pareto-bursts",
            description="Heavy-tailed flash crowds: Pareto(1.6) burst peaks over a steady base",
            intensity=_pareto_bursts,
            horizon_seconds=2 * _DAY,
            train_fraction=0.7,
            tags=("bursty", "heavy-tail", "adversarial"),
        ),
        Scenario(
            name="pareto-bursts-extreme",
            description="Barely integrable Pareto(1.1) burst peaks: one event can dwarf a day",
            intensity=_pareto_bursts_extreme,
            horizon_seconds=2 * _DAY,
            train_fraction=0.7,
            tags=("bursty", "heavy-tail", "adversarial"),
        ),
        Scenario(
            name="cold-start-services",
            description=(
                "Diurnal serving tier with bimodal cold/warm processing times (15% pay ~8x)"
            ),
            intensity=_cold_start_services,
            horizon_seconds=2 * _DAY,
            processing_time_distribution="bimodal",
            tags=("seasonal", "bimodal-processing"),
        ),
        Scenario(
            name="spiky-cron",
            description="Sharp hourly cron-style spikes over a tiny base (Fig. 8 shape)",
            intensity=_spiky_cron,
            horizon_seconds=1 * _DAY,
            tags=("seasonal", "spiky"),
        ),
        Scenario(
            name="weekly-seasonal",
            description="Weekly envelope modulating a daily cosine cycle",
            intensity=_weekly_seasonal,
            horizon_seconds=2 * _WEEK,
            bin_seconds=300.0,
            tags=("seasonal", "weekly"),
        ),
    ]
    # Registry aliases for the paper's three traces: the paper's train/test
    # split, the simulator defaults that go with each trace, and how to
    # generate it.
    paper_extras = {
        "crs": {
            "description": "CRS-like container registry trace: 4 weeks, low QPS, weekly pattern",
            "generator": _paper_crs,
            "horizon_seconds": 4 * _WEEK,
            "bin_seconds": 300.0,
            "processing_time_mean": 178.0,
            "processing_time_distribution": "lognormal",
            "train_fraction": 0.75,  # first three of four weeks
            "pending_time": 13.0,
            "default_seed": 7,
        },
        "google": {
            "description": "Google-cluster-like trace: 24 hours with recurrent spikes",
            "generator": _paper_google,
            # _paper_google's scale rule is 24 * scale * 2 hours, so
            # the trace actually generated at scale 1.0 spans two days (the
            # paper's own trace is the scale-0.5 output).
            "horizon_seconds": 2 * _DAY,
            "bin_seconds": 60.0,
            "processing_time_mean": 30.0,
            "train_fraction": 0.75,  # first 18 of 24 hours
            "pending_time": 13.0,
            "default_seed": 11,
        },
        "alibaba": {
            "description": "Alibaba-cluster-like trace: 5 days, daily spikes plus one burst",
            "generator": _paper_alibaba,
            "horizon_seconds": 5 * _DAY,
            "bin_seconds": 60.0,
            "processing_time_mean": 25.0,
            "train_fraction": 0.8,  # first four of five days
            "pending_time": 13.0,
            "default_seed": 13,
        },
    }
    for name, extras in paper_extras.items():
        scenarios.append(Scenario(name=name, tags=("paper",), **extras))
    for scenario in scenarios:
        register_scenario(scenario, registry=registry, overwrite=overwrite)


register_builtin_scenarios()
