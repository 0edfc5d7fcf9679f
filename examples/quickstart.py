"""Quickstart: proactive autoscaling of a scaling-per-query workload.

This example walks through the whole RobustScaler pipeline on a small
synthetic workload:

1. generate a workload trace with a periodic pattern,
2. split it into a training window and a test window,
3. fit the regularized NHPP arrival model on the training window
   (periodicity detection + ADMM),
4. build the RobustScaler-HP policy with a target hitting probability,
5. replay the test window in the scaling-per-query simulator and compare the
   QoS/cost against the purely reactive baseline.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

from repro import (
    DeterministicPendingTime,
    NHPPModel,
    PlannerConfig,
    ReactiveScaler,
    RobustScaler,
    SimulationConfig,
    generate_google_like_trace,
    replay,
)
from repro.metrics import format_table, summarize_result


def main() -> None:
    # 1. A Google-cluster-like workload: recurrent spikes every two hours.
    trace = generate_google_like_trace(n_hours=12, mean_qps=0.2, seed=5)
    print(f"workload: {trace.n_queries} queries over {trace.horizon / 3600:.0f} hours")

    # 2. Train on the first 9 hours, evaluate on the last 3.
    train, test = trace.split(0.75)

    # 3. Fit the NHPP arrival model (detects the 2-hour period automatically).
    model = NHPPModel(bin_seconds=60.0).fit(train)
    print(
        f"detected period: {model.period_seconds / 3600:.1f} h, "
        f"ADMM iterations: {model.fit_result.admm.n_iterations}"
    )

    # 4. RobustScaler-HP with a 90% hitting-probability target.  Instances
    #    take 13 seconds to start, which is what makes proactive scaling
    #    worthwhile.
    pending = DeterministicPendingTime(13.0)
    scaler = RobustScaler.from_model(
        model,
        pending,
        target=0.9,
        planner=PlannerConfig(planning_interval=2.0, monte_carlo_samples=500),
        random_state=0,
    )

    # 5. Replay the test window with both policies and compare.
    sim_config = SimulationConfig(pending_time=13.0)
    reactive_result = replay(test, ReactiveScaler(), sim_config)
    robust_result = replay(test, scaler, sim_config)

    rows = [
        {"policy": "Reactive (cold start every query)"}
        | summarize_result(reactive_result, reference_cost=reactive_result.total_cost),
        {"policy": scaler.name}
        | summarize_result(robust_result, reference_cost=reactive_result.total_cost),
    ]
    print()
    print(
        format_table(
            rows,
            columns=["policy", "hit_rate", "rt_avg", "relative_cost"],
            title="QoS / cost comparison on the test window",
        )
    )
    print(
        "\nRobustScaler warms instances ahead of predicted arrivals: most queries "
        "hit a ready instance (higher hit_rate, lower rt_avg) at a modest cost "
        "overhead relative to purely reactive scaling."
    )
    print(
        "\nTip: the paper's full experiments are one call away via the "
        "declarative API, e.g.\n"
        '    repro.api.Session(workers=4).experiment("pareto")'
        '.scenario("google").run(scale=0.25)'
    )


if __name__ == "__main__":
    main()
