"""Workload traces: synthetic generators, IO and perturbation.

The paper evaluates on a proprietary container-registry trace (CRS), the
Google cluster trace 2019 and the Alibaba cluster trace 2018.  None of those
can be bundled offline, so this subpackage provides seeded synthetic
generators that reproduce the structural features each experiment relies on
(listed per generator in :mod:`repro.traces.synthetic`; README "Workload
scenarios" covers their registry aliases), together with CSV/JSONL IO
for users who want to plug in their own traces, and the perturbation /
missing-data / anomaly utilities used by the robustness experiments.
"""

from .synthetic import (
    beta_bump_intensity,
    generate_alibaba_like_trace,
    generate_crs_like_trace,
    generate_google_like_trace,
    generate_trace_from_intensity,
    periodic_bump_intensity,
)
from .io import load_trace_csv, save_trace_csv, load_qps_csv, save_qps_csv
from .perturbation import (
    inject_missing_window,
    perturb_trace,
    remove_anomalous_bursts,
)

__all__ = [
    "beta_bump_intensity",
    "periodic_bump_intensity",
    "generate_crs_like_trace",
    "generate_google_like_trace",
    "generate_alibaba_like_trace",
    "generate_trace_from_intensity",
    "load_trace_csv",
    "save_trace_csv",
    "load_qps_csv",
    "save_qps_csv",
    "perturb_trace",
    "inject_missing_window",
    "remove_anomalous_bursts",
]
