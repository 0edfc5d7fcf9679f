"""Reading and writing traces as plain CSV files.

The on-disk format is intentionally simple so users can export traces from
their own systems: an optional ``# horizon,<seconds>,<name>`` comment, the
header ``arrival_time,processing_time``, then one row per query with times
in seconds (floats).

The loader validates what the downstream consumers assume instead of
trusting the file: the simulation engines require sorted, finite,
non-negative arrival times.  A file that violates that contract raises
:class:`~repro.exceptions.TraceFormatError` naming the offending row, rather
than silently corrupting every QoS number computed from it.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

from ..exceptions import TraceFormatError
from ..types import ArrivalTrace

__all__ = ["save_trace_csv", "load_trace_csv"]

def save_trace_csv(trace: ArrivalTrace, path: str | Path) -> Path:
    """Write ``trace`` to ``path`` in the trace CSV format and return the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["# horizon", f"{trace.horizon!r}", trace.name])
        writer.writerow(["arrival_time", "processing_time"])
        for arrival, processing in zip(trace.arrival_times, trace.processing_times):
            writer.writerow([f"{arrival:.6f}", f"{processing:.6f}"])
    return path


def load_trace_csv(path: str | Path, *, name: str | None = None) -> ArrivalTrace:
    """Read an :class:`~repro.types.ArrivalTrace` from a trace CSV file.

    Raises
    ------
    TraceFormatError
        If the file is missing, a row cannot be parsed, any arrival or
        processing time is non-finite or negative, or the arrivals are not
        sorted in ascending order.  The message names the first offending
        row so the file can be fixed rather than silently feeding garbage
        to engines that assume sorted arrivals.
    """
    path = Path(path)
    if not path.exists():
        raise TraceFormatError(f"trace file not found: {path}")
    arrivals: list[float] = []
    processing: list[float] = []
    horizon: float | None = None
    trace_name = name or path.stem
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        for row in reader:
            if not row:
                continue
            if row[0].startswith("#"):
                if len(row) >= 2 and row[0].strip() == "# horizon":
                    try:
                        horizon = float(row[1])
                    except ValueError as exc:
                        raise TraceFormatError(f"invalid horizon in {path}: {row[1]!r}") from exc
                    if not math.isfinite(horizon):
                        raise TraceFormatError(
                            f"invalid horizon in {path}: {horizon!r} (must be finite)"
                        )
                    if name is None and len(row) >= 3 and row[2]:
                        trace_name = row[2]
                continue
            if row[0] == "arrival_time":
                continue
            try:
                arrival = float(row[0])
                proc = float(row[1]) if len(row) > 1 else 0.0
            except (ValueError, IndexError) as exc:
                raise TraceFormatError(f"malformed row in {path}: {row!r}") from exc
            if not math.isfinite(arrival) or arrival < 0:
                raise TraceFormatError(
                    f"invalid arrival_time in {path}, row {len(arrivals) + 1}: "
                    f"{row!r} (must be finite and >= 0)"
                )
            if not math.isfinite(proc) or proc < 0:
                raise TraceFormatError(
                    f"invalid processing_time in {path}, row {len(arrivals) + 1}: "
                    f"{row!r} (must be finite and >= 0)"
                )
            if arrivals and arrival < arrivals[-1]:
                raise TraceFormatError(
                    f"unsorted arrival_time in {path}, row {len(arrivals) + 1}: "
                    f"{arrival!r} after {arrivals[-1]!r} (arrivals must be "
                    "sorted in ascending order)"
                )
            arrivals.append(arrival)
            processing.append(proc)
    if horizon is not None and arrivals and horizon < arrivals[-1]:
        raise TraceFormatError(
            f"invalid horizon in {path}: {horizon!r} is earlier than the "
            f"last arrival ({arrivals[-1]!r})"
        )
    return ArrivalTrace(arrivals, processing, name=trace_name, horizon=horizon)
