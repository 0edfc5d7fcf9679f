"""FaaS cold-start mitigation: accurate QoS control on a bursty workload.

Function-as-a-Service platforms pay a cold-start penalty whenever an
invocation cannot reuse a warm sandbox.  In the scaling-per-query setting the
same problem appears for every single query, so the operator has to choose a
point on the cost/QoS curve and *hit it accurately*.

This example shows the control accuracy of the three RobustScaler variants on
a bursty workload with a known ground-truth intensity (the paper's Table I
setting, scaled down):

* RobustScaler-HP   — "I want 90% of invocations to find a warm sandbox";
* RobustScaler-RT   — "the average extra latency must stay below 1 second";
* RobustScaler-cost — "each sandbox may idle for at most 2 seconds on average".

Run with::

    python examples/faas_cold_start.py
"""

from __future__ import annotations

from repro.api import run_experiment
from repro.metrics import format_table
from repro.scaling.calibration import calibrate_hit_probability
from repro.config import PlannerConfig, SimulationConfig
from repro.pending import DeterministicPendingTime
from repro.scaling import RobustScaler
from repro.traces import generate_trace_from_intensity


def main() -> None:
    # --- 1. Accuracy of each variant against its own target (Table I style).
    rows = run_experiment(
        "table1",
        {
            "peak_qps": 10.0,
            "period_seconds": 1800.0,
            "horizon_seconds": 4 * 1800.0,
            "target_hp": 0.9,
            "waiting_budget": 1.0,
            "idle_budget": 2.0,
            "seed": 0,
        },
    )
    print(
        format_table(
            rows,
            columns=["variant", "metric", "target_level", "achieved_level"],
            title="Requested vs delivered QoS/cost level on a bursty FaaS workload",
        )
    )

    # --- 2. Calibration: map nominal hitting probabilities to achieved ones
    #        on training data, then pick the nominal level that realizes a
    #        desired actual level (Section VI-C practical guideline).
    # The paper's calibration setting uses hourly bumps peaking near 1000 QPS
    # (Table I: ``repro experiment table1 --peak-qps 1000 --period-seconds
    # 3600``); a single 30-minute bump with a ~5 QPS peak keeps this example
    # fast while exercising the same code.
    forecast = _small_bump()
    train_trace = generate_trace_from_intensity(
        forecast,
        horizon_seconds=3600.0,
        processing_time_mean=20.0,
        name="faas-train",
        random_state=1,
    )
    pending = DeterministicPendingTime(13.0)

    def factory(nominal: float) -> RobustScaler:
        return RobustScaler(
            forecast,
            pending,
            target=nominal,
            planner=PlannerConfig(planning_interval=5.0, monte_carlo_samples=300),
            random_state=0,
        )

    calibration = calibrate_hit_probability(
        factory,
        train_trace,
        nominal_levels=(0.5, 0.7, 0.9, 0.97),
        simulation_config=SimulationConfig(pending_time=13.0),
    )
    print()
    print("Calibration curve (nominal -> achieved hit probability):")
    for nominal, achieved in zip(calibration.nominal_levels, calibration.achieved_levels):
        print(f"  nominal {nominal:.2f} -> achieved {achieved:.2f}")
    desired = 0.9
    print(
        f"\nTo actually deliver a {desired:.0%} hit probability, request a nominal "
        f"level of {calibration.nominal_for(desired):.2f}."
    )


def _small_bump():
    """A single-bump intensity (30-minute period, ~5 QPS peak) for fast runs."""
    from repro.traces import periodic_bump_intensity

    return periodic_bump_intensity(
        peak=5.0,
        period_seconds=1800.0,
        exponent=20.0,
        base=0.05,
        horizon_seconds=1800.0,
        bin_seconds=10.0,
    )


if __name__ == "__main__":
    main()
