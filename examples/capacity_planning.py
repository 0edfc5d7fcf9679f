"""Capacity planning: forecasting workload and exploring the QoS/cost trade-off.

Beyond driving live scaling decisions, the NHPP workload model is useful for
offline capacity planning: given the fitted intensity, an operator can ask
"what would it cost to promise a 95% warm-start rate next week?" before
committing to an SLA.

This example

1. fits the NHPP model on an Alibaba-cluster-like trace,
2. inspects the model (detected period, goodness of fit via time rescaling,
   expected query volume for the next planning horizon), and
3. sweeps the target hitting probability and reports the projected cost of
   each SLA level on the held-out test window.

Run with::

    python examples/capacity_planning.py
"""

from __future__ import annotations

import numpy as np

from repro import (
    DeterministicPendingTime,
    NHPPModel,
    PlannerConfig,
    ReactiveScaler,
    RobustScaler,
    SimulationConfig,
    generate_alibaba_like_trace,
    replay,
)
from repro.metrics import format_table
from repro.nhpp import ks_statistic_time_rescaling


def main() -> None:
    # 1. Fit the workload model on the first days of an Alibaba-like trace.
    trace = generate_alibaba_like_trace(n_days=3, mean_qps=0.3, seed=11)
    train, test = trace.split(2.0 / 3.0)
    model = NHPPModel(bin_seconds=60.0).fit(train)
    print(f"workload: {trace.n_queries} jobs over {trace.horizon / 86400:.0f} days")
    print(f"detected period: {model.period_seconds / 3600:.1f} hours")

    # 2. Model diagnostics: the time-rescaling KS statistic measures how well
    #    the fitted intensity explains the observed arrivals, and the
    #    integrated intensity forecasts the expected volume.
    statistic, p_value = ks_statistic_time_rescaling(
        np.asarray(train.arrival_times), model.fitted_intensity
    )
    print(f"goodness of fit (time-rescaling KS): statistic={statistic:.3f}, p={p_value:.3f}")
    forecast = model.forecast()
    next_day_volume = forecast.cumulative(86_400.0)
    print(f"expected queries over the next 24 h: {next_day_volume:,.0f}")

    # 3. What does each SLA level cost?  Replay the held-out day with
    #    RobustScaler-HP at several targets and compare against reactive
    #    scaling.
    pending = DeterministicPendingTime(13.0)
    sim_config = SimulationConfig(pending_time=13.0)
    reference = replay(test, ReactiveScaler(), sim_config)

    rows = []
    for target in (0.5, 0.7, 0.9, 0.95):
        scaler = RobustScaler.from_model(
            model,
            pending,
            target=target,
            planner=PlannerConfig(planning_interval=5.0, monte_carlo_samples=300),
            random_state=0,
        )
        result = replay(test, scaler, sim_config)
        rows.append(
            {
                "target_hit_probability": target,
                "achieved_hit_rate": result.hit_rate,
                "rt_avg": result.mean_response_time,
                "relative_cost": result.total_cost / reference.total_cost,
                "extra_cost_hours": (result.total_cost - reference.total_cost) / 3600.0,
            }
        )
    print()
    print(
        format_table(
            rows,
            title="Projected cost of each SLA level on the held-out day",
        )
    )
    print(
        "\nEach additional 'nine' of warm-start probability costs more idle "
        "instance time; the table quantifies that trade-off before any SLA is "
        "promised."
    )


if __name__ == "__main__":
    main()
