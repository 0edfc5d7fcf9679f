"""Container-registry scenario: comparing autoscalers on a CRS-like workload.

The paper's motivating application is a container registry service (CRS)
where each image-build query gets its own single-use instance.  The workload
is low-volume, noisy, and strongly periodic (working hours on weekdays).

This example reproduces a miniature version of the paper's Fig. 4 Pareto
study on that workload: it sweeps the trade-off parameter of each autoscaler
(Backup Pool, Adaptive Backup Pool, and the three RobustScaler variants) and
prints every configuration's (relative cost, hit rate, response time) row,
cheapest first, so the cost/QoS trade-off reads top to bottom.

Run with::

    python examples/container_registry.py
"""

from __future__ import annotations

from repro import get_scenario
from repro.api import Session
from repro.metrics import format_table


def main() -> None:
    # The registry's CRS scenario at scale 0.5 is a two-week trace: it keeps
    # the run short while preserving the weekly/daily structure of the real
    # four-week trace.
    trace = get_scenario("crs").build_trace(scale=0.5, seed=7)
    print(f"CRS-like workload: {trace.n_queries} queries, mean QPS {trace.mean_qps:.4f}")

    rows = Session(store=None).run(
        "pareto",
        trace_names=("crs",),
        scale=0.5,
        seed=7,
        planning_interval=5.0,
        monte_carlo_samples=300,
        hp_targets=(0.3, 0.6, 0.9),
        pool_sizes=(0, 1, 2, 4),
        adaptive_factors=(25.0, 50.0, 100.0),
        include_rt_variant=True,
        include_cost_variant=False,
    ).rows

    print()
    print(
        format_table(
            sorted(rows, key=lambda row: row["relative_cost"]),
            columns=["scaler", "relative_cost", "hit_rate", "rt_avg"],
            title="Sweep of every autoscaler on the CRS-like test week, cheapest first",
        )
    )


if __name__ == "__main__":
    main()
