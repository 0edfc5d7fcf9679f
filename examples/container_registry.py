"""Container-registry scenario: comparing autoscalers on a CRS-like workload.

The paper's motivating application is a container registry service (CRS)
where each image-build query gets its own single-use instance.  The workload
is low-volume, noisy, and strongly periodic (working hours on weekdays).

This example reproduces a miniature version of the paper's Fig. 4 Pareto
study on that workload: it sweeps the trade-off parameter of each autoscaler
(Backup Pool, Adaptive Backup Pool, and the three RobustScaler variants) and
prints the resulting (relative cost, hit rate, response time) frontier.

Run with::

    python examples/container_registry.py
"""

from __future__ import annotations

from repro import get_scenario
from repro.api import run_experiment
from repro.metrics import ParetoPoint, format_table, pareto_frontier


def main() -> None:
    # The registry's CRS scenario at scale 0.5 is a two-week trace: it keeps
    # the run short while preserving the weekly/daily structure of the real
    # four-week trace.
    trace = get_scenario("crs").build_trace(scale=0.5, seed=7)
    print(f"CRS-like workload: {trace.n_queries} queries, mean QPS {trace.mean_qps:.4f}")

    rows = run_experiment(
        "pareto",
        {
            "trace_names": ("crs",),
            "scale": 0.5,
            "seed": 7,
            "planning_interval": 5.0,
            "monte_carlo_samples": 300,
            "hp_targets": (0.3, 0.6, 0.9),
            "pool_sizes": (0, 1, 2, 4),
            "adaptive_factors": (25.0, 50.0, 100.0),
            "include_rt_variant": True,
            "include_cost_variant": False,
        },
    )

    print()
    print(
        format_table(
            rows,
            columns=["scaler", "relative_cost", "hit_rate", "rt_avg"],
            title="Sweep of every autoscaler on the CRS-like test week",
        )
    )

    # Which configurations are Pareto-efficient in (cost, hit-rate) space?
    points = [
        ParetoPoint(cost=row["relative_cost"], qos=row["hit_rate"], label=row["scaler"])
        for row in rows
    ]
    frontier = pareto_frontier(points)
    print()
    print("Pareto-efficient configurations (low cost, high hit rate):")
    for point in frontier:
        print(f"  {point.label:<35} relative_cost={point.cost:.2f} hit_rate={point.qos:.2f}")


if __name__ == "__main__":
    main()
