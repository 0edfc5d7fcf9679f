"""Online operation: rolling NHPP refits and terminal dashboards.

Production autoscalers do not fit their workload model once — they refit it
periodically (the paper suggests roughly every half hour) on a sliding window
of recent arrivals.  This example simulates that control loop:

1. arrivals stream in from a periodic workload;
2. a :class:`~repro.nhpp.online.RollingNHPPForecaster` refits the regularized
   NHPP every 30 simulated minutes;
3. at each refit the example prints the forecast for the next hour, and at
   the end a one-line sparkline of the recent traffic, which is what an
   operator dashboard would show;
4. at the end, the forecast quality is compared against the naive
   constant-rate (homogeneous Poisson) baseline using AIC.

Run with::

    python examples/online_forecasting.py
"""

from __future__ import annotations

import numpy as np

from repro.config import ADMMConfig, NHPPConfig
from repro.nhpp import (
    HomogeneousPoissonModel,
    RollingNHPPForecaster,
    compare_aic,
    NHPPModel,
)
from repro.nhpp.intensity import PiecewiseConstantIntensity
from repro.nhpp.sampling import sample_arrival_times
from repro.traces import periodic_bump_intensity
from repro.types import QPSSeries


def _workload_intensity() -> PiecewiseConstantIntensity:
    """Ground truth: a 30-minute cycle peaking around 0.8 queries/second."""
    return periodic_bump_intensity(
        peak=0.8,
        period_seconds=1800.0,
        exponent=8.0,
        base=0.05,
        horizon_seconds=3600.0,
        bin_seconds=30.0,
    )


def main() -> None:
    truth = _workload_intensity()
    horizon = 4 * 3600.0
    arrivals = sample_arrival_times(truth, horizon, random_state=3)
    print(f"simulated stream: {arrivals.size} arrivals over {horizon / 3600:.0f} hours")

    forecaster = RollingNHPPForecaster(
        bin_seconds=30.0,
        window_seconds=2.5 * 3600.0,
        refresh_seconds=1800.0,
        config=NHPPConfig(admm=ADMMConfig(max_iterations=120)),
        min_observations=50,
    )

    # Stream the arrivals and refit every 30 minutes of simulated time.
    refit_times = np.arange(1800.0, horizon + 1, 1800.0)
    consumed = 0
    for now in refit_times:
        newly_arrived = arrivals[(arrivals >= (now - 1800.0)) & (arrivals < now)]
        forecaster.observe(newly_arrived)
        consumed += newly_arrived.size
        if forecaster.maybe_refit(now) and forecaster.is_ready:
            expected_next_hour = forecaster.expected_arrivals(now, 3600.0)
            print(
                f"t = {now / 3600.0:4.1f} h | observed so far: {consumed:4d} | "
                f"forecast for the next hour: {expected_next_hour:6.1f} queries"
            )

    # Operator dashboard: recent traffic at one-minute resolution.
    recent = arrivals[arrivals >= horizon - 7200.0] - (horizon - 7200.0)
    counts, _ = np.histogram(recent, bins=np.arange(0, 7201, 60))
    levels = np.round(counts / max(counts.max(), 1) * 7).astype(int)
    print()
    print(
        "Queries per minute over the last two hours "
        f"(peak {counts.max()}, mean {counts.mean():.1f}):"
    )
    print("".join(" .:-=+*#"[level] for level in levels))

    # How much does the NHPP buy over a constant-rate model on this workload?
    series = QPSSeries(
        np.histogram(arrivals, bins=np.arange(0, horizon + 1, 60.0))[0], 60.0
    )
    nhpp = NHPPModel(NHPPConfig(admm=ADMMConfig(max_iterations=150)), bin_seconds=60.0).fit(
        series
    )
    constant = HomogeneousPoissonModel().fit(series)
    comparison = compare_aic(
        np.asarray(series.counts),
        60.0,
        nhpp.fit_result.intensity,
        np.full(series.n_bins, constant.rate),
        dof_b=1,
    )
    print()
    print("Model comparison on the full stream (lower AIC is better):")
    print(f"  regularized NHPP : AIC = {comparison.aic_a:10.1f}")
    print(f"  constant rate    : AIC = {comparison.aic_b:10.1f}")
    winner = "regularized NHPP" if comparison.preferred == "a" else "constant rate"
    print(f"  preferred model  : {winner}")


if __name__ == "__main__":
    main()
