"""Regenerate the golden fixtures: scenario traces, RobustScaler planning, baselines.

Run from the repository root whenever the RNG draw order of scenario
generation intentionally changes (e.g. a new sampler construction), or
when the fitted model or the planner's decisions are meant to change::

    PYTHONPATH=src python tests/golden/regen_golden.py

The fixtures pin the exact seeded realizations of every intensity-backed
registry scenario: query counts, first/last arrival times, and a content
digest of the full arrival/processing arrays.  ``tests/test_golden_scenarios.py``
fails loudly if a code change silently alters any seeded trace, which is the
re-baselining policy for the vectorized NHPP sampler adopted in scenario
generation: intentional changes re-run this script and commit the diff
alongside an explanation.

The planning fixture (``planning_google.json``) pins the fitted
log-intensity and the per-query outcome columns of RobustScaler-HP, -RT and
-cost on small seeded google traces; ``tests/test_golden_planning.py``
fails if a change to the fit or to the planning round moves a single bit.

The baseline fixture (``baselines.json``) pins the per-query outcome
columns of the arrival-driven baselines (Reactive, BP and AdapBP) on short
seeded alibaba and crs traces, with deterministic and jittered pending
times; ``tests/test_golden_baselines.py`` replays every cell on every
engine and fails if a change to the arrival rule or to an engine moves a
single bit.

The driver fixture (``drivers.json``) pins the deterministic row columns of
the paper-experiment drivers (Table I, Table III, the regularization and
Monte Carlo sample-size ablations, Fig. 4's sweep, Fig. 8's grid and
Table IV's simulated row) at small parameters; ``tests/test_golden_drivers.py`` fails if a
change to a driver moves a single bit of them.  Wall-clock columns and
Table IV's "real" row, which charges measured planner latency, are left
out.

Only fixture files whose content changed are rewritten; the script prints
which ones those were.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

#: (scale, seed) grid pinned per scenario; kept tiny so the check is fast.
CASES = ((0.05, 7), (0.05, 3))

GOLDEN_PATH = Path(__file__).parent / "scenario_traces.json"

#: Seeded google traces of the planning fixture: at scale 0.1 no period is
#: detected (a one-bin hold forecast), at scale 0.3 the forecast is periodic
#: and the fit stops at its iteration cap, as on the full trace.
PLANNING_CASES = (("google", 0.1, 7), ("google", 0.3, 7))

#: Planner settings shared by every planning case: 10 s rounds, R = 100.
PLANNING_INTERVAL = 10.0
PLANNING_MC_SAMPLES = 100

#: RobustScaler variants pinned by the planning fixture: objective value and target.
PLANNING_VARIANTS = {"hp": 0.9, "rt": 5.0, "cost": 5.0}

#: Outcome columns digested per variant, by ``SimulationResult`` attribute.
OUTCOME_COLUMNS = (
    "hits",
    "waiting_times",
    "creation_times",
    "ready_times",
    "deletion_times",
    "lifecycle_costs",
)

PLANNING_PATH = Path(__file__).parent / "planning_google.json"

#: Baseline traces: (scenario, scale, seed, seconds kept from the start).
#: Short prefixes keep the reference replays fast while spanning many
#: AdapBP ticks and both busy and idle stretches.
BASELINE_CASES = (("alibaba", 0.01, 7, 21_600.0), ("crs", 0.05, 3, 259_200.0))

#: Pending-time jitter (seconds) per pending model of the baseline fixture.
BASELINE_PENDING = {"deterministic": 0.0, "jittered": 2.0}

#: Baseline policies pinned by the fixture, by label.
BASELINE_POLICIES = ("reactive", "bp2", "adapbp2")

BASELINES_PATH = Path(__file__).parent / "baselines.json"

#: Paper-experiment drivers pinned by the driver fixture: small parameters
#: (one dict, or a tuple of dicts whose rows are concatenated) and the
#: deterministic columns digested, per registered experiment.
DRIVER_CASES = {
    "table1": (
        {
            "peak_qps": 5.0,
            "period_seconds": 900.0,
            "horizon_seconds": 3600.0,
            "planning_interval": 10.0,
            "monte_carlo_samples": 200,
        },
        ("variant", "metric", "target_level", "achieved_level", "n_queries"),
    ),
    "table3": (
        {"period_seconds": 3600.0, "n_periods": 5, "max_iterations": 150},
        ("model", "mse", "mae", "admm_iterations"),
    ),
    "regularization-sensitivity": (
        {
            "period_seconds": 1800.0,
            "n_periods": 4,
            "beta_smooth_values": (0.0, 50.0),
            "beta_period_values": (0.0, 10.0),
            "max_iterations": 100,
        },
        ("beta_smooth", "beta_period", "mse", "mae"),
    ),
    "mc-sample-ablation": (
        {"sample_sizes": (1, 50, 2000), "n_trials": 10},
        ("n_samples", "exact_decision", "mean_abs_error"),
    ),
    "scalability": (
        {"qps_levels": (1.0, 50.0), "monte_carlo_samples": 300, "repeats": 1},
        ("qps", "variant", "decisions_per_update"),
    ),
    "table4": (
        {"scale": 0.15, "monte_carlo_samples": 150, "planning_interval": 10.0},
        ("environment", "target_hp", "hit_rate", "rt_avg", "cost_per_query", "relative_cost"),
    ),
    # Fig. 4 runs twice: a paper trace with hand-tuned grids, then two library
    # scenarios whose grids come from their tags (flash-crowd is adversarial,
    # steady-state is not).
    "pareto": (
        (
            {
                "trace_names": ("google",),
                "scale": 0.13,
                "monte_carlo_samples": 60,
                "planning_interval": 20.0,
            },
            {
                "trace_names": ("flash-crowd", "steady-state"),
                "scale": 0.05,
                "monte_carlo_samples": 60,
                "planning_interval": 20.0,
            },
        ),
        (
            "trace",
            "scaler",
            "pool_size",
            "rate_factor",
            "target_hp",
            "waiting_budget",
            "idle_budget",
            "n_queries",
            "hit_rate",
            "rt_avg",
            "total_cost",
            "relative_cost",
            "hit_rate_window_variance",
            "rt_window_variance",
            "rt_p75",
            "rt_p95",
            "rt_p99",
            "rt_p99.9",
        ),
    ),
}

DRIVERS_PATH = Path(__file__).parent / "drivers.json"


def array_digest(array) -> str:
    """Content digest of an array's dtype, shape and bytes."""
    array = np.ascontiguousarray(array)
    digest = hashlib.blake2b(digest_size=16)
    digest.update(f"{array.dtype.str}{array.shape}".encode())
    digest.update(array.tobytes())
    return digest.hexdigest()


def fixture_key(name: str, scale: float, seed: int) -> str:
    return f"{name}|scale={scale:g}|seed={seed}"


def trace_fingerprint(trace) -> dict:
    """The comparable facts recorded for one seeded trace realization."""
    arrivals = np.ascontiguousarray(trace.arrival_times)
    processing = np.ascontiguousarray(trace.processing_times)
    digest = hashlib.blake2b(digest_size=16)
    digest.update(arrivals.tobytes())
    digest.update(processing.tobytes())
    record = {
        "n_queries": int(trace.n_queries),
        "horizon": float(trace.horizon),
        "digest": digest.hexdigest(),
    }
    if trace.n_queries:
        record["first_arrival"] = float(arrivals[0])
        record["last_arrival"] = float(arrivals[-1])
        record["processing_sum"] = float(processing.sum())
    return record


def build_fixtures() -> dict:
    from repro.workloads import list_scenarios

    fixtures: dict = {}
    for scenario in list_scenarios():
        if scenario.kind != "intensity":
            continue  # generator-backed paper traces keep the loop sampler
        for scale, seed in CASES:
            trace = scenario.build_trace(scale=scale, seed=seed)
            fixtures[fixture_key(scenario.name, scale, seed)] = trace_fingerprint(trace)
    return fixtures


def planning_fingerprint(name: str, scale: float, seed: int) -> dict:
    """Digests of the fit and of every RobustScaler variant's replay on one trace."""
    from repro.config import PlannerConfig
    from repro.runtime.workload import prepare_workload
    from repro.scaling.robustscaler import RobustScaler, RobustScalerObjective
    from repro.workloads import get_scenario

    scenario = get_scenario(name)
    trace = scenario.build_trace(scale=scale, seed=seed)
    prepared = prepare_workload(trace, **scenario.simulator_defaults)
    fit = prepared.model.fit_result
    record: dict = {
        "fit": {
            "log_intensity": array_digest(fit.log_intensity),
            "n_bins": int(fit.log_intensity.size),
            "period_bins": int(fit.period_bins),
        },
        "variants": {},
    }
    planner = PlannerConfig(
        planning_interval=PLANNING_INTERVAL, monte_carlo_samples=PLANNING_MC_SAMPLES
    )
    for label, target in PLANNING_VARIANTS.items():
        scaler = RobustScaler(
            prepared.forecast,
            prepared.pending_model,
            objective=RobustScalerObjective(label),
            target=target,
            planner=planner,
            random_state=seed,
        )
        result = prepared.replay(scaler)
        columns = {column: array_digest(getattr(result, column)) for column in OUTCOME_COLUMNS}
        record["variants"][label] = {
            "n_queries": int(result.n_queries),
            "hits": int(result.hits.sum()),
            "unused_instance_cost": float(result.unused_instance_cost),
            "columns": columns,
        }
    return record


def baseline_scaler(label: str):
    """A fresh baseline policy for one fixture label."""
    from repro.scaling.adaptive_backup_pool import AdaptiveBackupPoolScaler
    from repro.scaling.backup_pool import BackupPoolScaler, ReactiveScaler

    if label == "reactive":
        return ReactiveScaler()
    if label == "bp2":
        return BackupPoolScaler(2)
    if label == "adapbp2":
        return AdaptiveBackupPoolScaler(2.0, rate_window=60.0, update_interval=60.0)
    raise KeyError(label)


def baseline_fingerprint(
    name: str, scale: float, seed: int, keep_seconds: float, engine: str = "reference"
) -> dict:
    """Digests of every baseline policy's replay of one trace, per pending model."""
    from repro.config import SimulationConfig
    from repro.simulation import create_simulator
    from repro.workloads import get_scenario

    scenario = get_scenario(name)
    trace = scenario.build_trace(scale=scale, seed=seed).slice_time(0.0, keep_seconds)
    record: dict = {"n_queries": int(trace.n_queries)}
    for pending_label, jitter in BASELINE_PENDING.items():
        config = SimulationConfig(
            pending_time=scenario.pending_time,
            pending_time_jitter=jitter,
            seed=seed,
            engine=engine,
        )
        policies: dict = {}
        for label in BASELINE_POLICIES:
            result = create_simulator(config).replay(trace, baseline_scaler(label))
            columns = {column: array_digest(getattr(result, column)) for column in OUTCOME_COLUMNS}
            policies[label] = {
                "hits": int(result.hits.sum()),
                "unused_instance_cost": float(result.unused_instance_cost),
                "n_unused_instances": int(result.n_unused_instances),
                "planning_entries": int(result.planning_times.size),
                "columns": columns,
            }
        record[pending_label] = policies
    return record


def baseline_key(name: str, scale: float, seed: int, keep_seconds: float) -> str:
    return f"{fixture_key(name, scale, seed)}|keep={keep_seconds:g}"


def driver_fingerprint(name: str) -> dict:
    """Digest of one driver's deterministic columns at the fixture's parameters."""
    from repro.api import Session

    params, columns = DRIVER_CASES[name]
    runs = (params,) if isinstance(params, dict) else params
    rows = [
        # Sweep-parameter columns are set only on their own scaler's rows.
        {column: row.get(column) for column in columns}
        for run in runs
        for row in Session(store=None).run(name, **run)
        # Table IV's "real" row charges measured planner latency.
        if row.get("environment") != "real"
    ]
    digest = hashlib.blake2b(digest_size=16)
    # JSON writes every float as its shortest round-trip repr: one bit moved
    # in any value changes the digest.
    digest.update(json.dumps(rows, sort_keys=True).encode())
    return {"n_rows": len(rows), "columns": list(columns), "digest": digest.hexdigest()}


def write_fixture(path: Path, fixtures: dict) -> bool:
    """Write ``fixtures`` to ``path`` unless the file already holds them."""
    text = json.dumps(fixtures, indent=2, sort_keys=True) + "\n"
    if path.exists() and path.read_text() == text:
        return False
    path.write_text(text)
    return True


def main() -> None:
    fixtures = {
        GOLDEN_PATH: build_fixtures(),
        PLANNING_PATH: {fixture_key(*case): planning_fingerprint(*case) for case in PLANNING_CASES},
        BASELINES_PATH: {
            baseline_key(*case): baseline_fingerprint(*case) for case in BASELINE_CASES
        },
        DRIVERS_PATH: {name: driver_fingerprint(name) for name in DRIVER_CASES},
    }
    for path, content in fixtures.items():
        status = "rewrote" if write_fixture(path, content) else "unchanged"
        print(f"{status} {path.name} ({len(content)} fixtures)")


if __name__ == "__main__":
    main()
