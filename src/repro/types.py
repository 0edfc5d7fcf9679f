"""Core data types shared across the RobustScaler reproduction.

The types mirror the formalism of Section III of the paper:

* a **query** arrives at a random time ``xi`` and needs processing time ``s``;
* an **instance** is created at a deterministic time ``x``, becomes ready
  after a pending/startup time ``tau``, processes exactly one query, and is
  deleted immediately afterwards;
* a **trace** is the arrival-time record replayed through the simulator;
* a **QPS series** is the per-interval query count used to fit the NHPP.

All time quantities are in seconds, measured on a single simulation clock
whose origin is the start of the trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ._validation import as_1d_float_array, check_positive
from .exceptions import TraceError, ValidationError

__all__ = [
    "ArrivalTrace",
    "QPSSeries",
    "ScalingAction",
    "SimulationResult",
]


class ArrivalTrace:
    """An ordered record of query arrivals and processing times.

    This is the event-level representation replayed through the simulator.
    It is immutable by convention: transformation helpers return new traces.

    Parameters
    ----------
    arrival_times:
        Ascending arrival times in seconds from the trace origin.
    processing_times:
        Per-query processing times; either one value per query or a scalar
        broadcast to every query.
    name:
        Human-readable identifier used in reports.
    horizon:
        Optional explicit end of the observation window in seconds; defaults
        to the last arrival time.
    """

    def __init__(
        self,
        arrival_times: Sequence[float],
        processing_times: Sequence[float] | float,
        *,
        name: str = "trace",
        horizon: Optional[float] = None,
    ) -> None:
        arrivals = as_1d_float_array(arrival_times, "arrival_times")
        if arrivals.size and np.any(np.diff(arrivals) < 0):
            raise TraceError("arrival_times must be sorted in ascending order")
        if arrivals.size and arrivals[0] < 0:
            raise TraceError("arrival_times must be non-negative")
        if np.isscalar(processing_times):
            processing = np.full(arrivals.size, float(processing_times))
        else:
            processing = as_1d_float_array(processing_times, "processing_times")
        if processing.size != arrivals.size:
            raise TraceError(
                "processing_times must have one entry per arrival, got "
                f"{processing.size} for {arrivals.size} arrivals"
            )
        if processing.size and np.any(processing < 0):
            raise TraceError("processing_times must be non-negative")
        self._arrivals = arrivals
        self._processing = processing
        self.name = str(name)
        if horizon is None:
            horizon = float(arrivals[-1]) if arrivals.size else 0.0
        horizon = float(horizon)
        if arrivals.size and horizon < arrivals[-1]:
            raise TraceError(
                f"horizon ({horizon}) must not be earlier than the last arrival "
                f"({arrivals[-1]})"
            )
        self.horizon = horizon

    @property
    def arrival_times(self) -> np.ndarray:
        """Read-only view of the arrival times."""
        view = self._arrivals.view()
        view.flags.writeable = False
        return view

    @property
    def processing_times(self) -> np.ndarray:
        """Read-only view of the processing times."""
        view = self._processing.view()
        view.flags.writeable = False
        return view

    @property
    def n_queries(self) -> int:
        """Number of queries in the trace."""
        return int(self._arrivals.size)

    @property
    def duration(self) -> float:
        """Length of the observation window in seconds."""
        return self.horizon

    @property
    def mean_qps(self) -> float:
        """Average queries-per-second over the observation window."""
        if self.horizon <= 0:
            return 0.0
        return self.n_queries / self.horizon

    def __len__(self) -> int:
        return self.n_queries

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"ArrivalTrace(name={self.name!r}, n_queries={self.n_queries}, "
            f"horizon={self.horizon:.1f}s, mean_qps={self.mean_qps:.4f})"
        )

    def slice_time(self, start: float, end: float, *, rebase: bool = True) -> "ArrivalTrace":
        """Return the sub-trace of queries arriving in ``[start, end)``.

        Parameters
        ----------
        start, end:
            Window boundaries in seconds.
        rebase:
            If ``True`` (default) arrival times in the returned trace are
            shifted so that ``start`` maps to 0.
        """
        if end < start:
            raise ValidationError(f"end ({end}) must be >= start ({start})")
        mask = (self._arrivals >= start) & (self._arrivals < end)
        arrivals = self._arrivals[mask]
        processing = self._processing[mask]
        offset = start if rebase else 0.0
        horizon = (end - offset) if rebase else end
        return ArrivalTrace(
            arrivals - offset,
            processing,
            name=f"{self.name}[{start:.0f}:{end:.0f}]",
            horizon=horizon,
        )

    def split(self, fraction: float) -> tuple["ArrivalTrace", "ArrivalTrace"]:
        """Split the trace into (train, test) at ``fraction`` of the horizon.

        The test trace is rebased so that its own origin is time 0, matching
        how the experiments in the paper train on the first weeks/days and
        test on the remainder.
        """
        fraction = float(fraction)
        if not 0.0 < fraction < 1.0:
            raise ValidationError(f"fraction must be in (0, 1), got {fraction}")
        cut = self.horizon * fraction
        train = self.slice_time(0.0, cut, rebase=False)
        train = ArrivalTrace(
            train.arrival_times, train.processing_times, name=f"{self.name}-train", horizon=cut
        )
        test = self.slice_time(cut, self.horizon, rebase=True)
        test = ArrivalTrace(
            test.arrival_times,
            test.processing_times,
            name=f"{self.name}-test",
            horizon=self.horizon - cut,
        )
        return train, test

    def to_qps_series(self, bin_seconds: float = 60.0) -> "QPSSeries":
        """Aggregate arrivals into a per-interval count series.

        Parameters
        ----------
        bin_seconds:
            Width ``delta_t`` of each counting interval in seconds.
        """
        bin_seconds = check_positive(bin_seconds, "bin_seconds")
        n_bins = max(1, int(math.ceil(self.horizon / bin_seconds)))
        if self.n_queries and self._arrivals[-1] >= n_bins * bin_seconds:
            n_bins += 1
        edges = np.arange(n_bins + 1) * bin_seconds
        counts, _ = np.histogram(self._arrivals, bins=edges)
        return QPSSeries(counts=counts, bin_seconds=bin_seconds, name=self.name)

    def with_processing_times(self, processing_times: Sequence[float] | float) -> "ArrivalTrace":
        """Return a copy of the trace with different processing times."""
        return ArrivalTrace(
            self._arrivals, processing_times, name=self.name, horizon=self.horizon
        )


class QPSSeries:
    """Per-interval query counts, the input representation for NHPP fitting.

    Attributes
    ----------
    counts:
        Integer query count ``Q_t`` in each interval of length ``bin_seconds``.
    bin_seconds:
        The interval width ``delta_t`` in seconds.
    name:
        Human-readable identifier.
    """

    def __init__(
        self,
        counts: Sequence[float],
        bin_seconds: float,
        *,
        name: str = "qps",
    ) -> None:
        counts_arr = as_1d_float_array(counts, "counts")
        if counts_arr.size == 0:
            raise ValidationError("counts must contain at least one interval")
        if np.any(counts_arr < 0):
            raise ValidationError("counts must be non-negative")
        self._counts = counts_arr
        self.bin_seconds = check_positive(bin_seconds, "bin_seconds")
        self.name = str(name)

    @property
    def counts(self) -> np.ndarray:
        """Read-only view of the interval counts."""
        view = self._counts.view()
        view.flags.writeable = False
        return view

    @property
    def qps(self) -> np.ndarray:
        """Queries-per-second in each interval (counts / bin_seconds)."""
        return self._counts / self.bin_seconds

    @property
    def n_bins(self) -> int:
        """Number of intervals in the series."""
        return int(self._counts.size)

    @property
    def duration(self) -> float:
        """Total covered duration in seconds."""
        return self.n_bins * self.bin_seconds

    @property
    def times(self) -> np.ndarray:
        """Left edge (seconds) of each interval."""
        return np.arange(self.n_bins) * self.bin_seconds

    def __len__(self) -> int:
        return self.n_bins

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"QPSSeries(name={self.name!r}, n_bins={self.n_bins}, "
            f"bin_seconds={self.bin_seconds}, total={self._counts.sum():.0f})"
        )

    def aggregate(self, factor: int) -> "QPSSeries":
        """Merge every ``factor`` consecutive bins (summing counts).

        Used by the periodicity-detection module to average out randomness
        before searching for cyclic patterns (Section IV of the paper).
        """
        if factor < 1:
            raise ValidationError(f"factor must be >= 1, got {factor}")
        factor = int(factor)
        n_full = (self.n_bins // factor) * factor
        if n_full == 0:
            raise ValidationError(
                f"series with {self.n_bins} bins is too short to aggregate by {factor}"
            )
        merged = self._counts[:n_full].reshape(-1, factor).sum(axis=1)
        return QPSSeries(merged, self.bin_seconds * factor, name=f"{self.name}@x{factor}")


@dataclass(frozen=True)
class ScalingAction:
    """A single planned instance creation.

    Attributes
    ----------
    creation_time:
        Absolute time (seconds) at which the instance should be created.
    planned_at:
        Time the decision was made; used by the real-environment simulator to
        charge decision latency.
    target_query_index:
        Index of the upcoming query this instance is intended for, if known.
    """

    creation_time: float
    planned_at: float = 0.0
    target_query_index: Optional[int] = None

    def __post_init__(self) -> None:
        if not math.isfinite(self.creation_time):
            raise ValidationError("creation_time must be finite")
        if not math.isfinite(self.planned_at):
            raise ValidationError("planned_at must be finite")


#: The per-query columns every result carries, compared by ``__eq__``.
_COLUMNS = (
    "arrival_times",
    "processing_times",
    "hits",
    "waiting_times",
    "creation_times",
    "ready_times",
    "start_times",
    "pending_times",
    "proactive_flags",
)


class SimulationResult:
    """Aggregate output of replaying a trace with an autoscaler.

    Per-query values are flat numpy columns, one entry per replayed query in
    arrival order: ``float64`` times and ``bool`` hit/proactive flags.  Both
    engines build their result through this one constructor, and the
    differential-testing harness in ``tests/test_engine_parity.py`` holds
    them to bit-identical columns.

    Parameters
    ----------
    arrival_times, processing_times:
        The replayed queries.
    hits:
        Whether an instance was ready at or before the arrival (the paper's
        hitting event ``xi_i >= x_i + tau_i``).
    waiting_times:
        Time each query waited for its instance to become ready (0 on a hit).
    creation_times, ready_times, start_times, pending_times:
        Lifecycle of the instance that served each query; the instance is
        deleted at ``start + processing``.
    proactive:
        ``True`` when the serving instance was created by the scaling plan,
        ``False`` for a reactive cold start.
    unused_instance_cost, n_unused_instances:
        Cost and count of instances created but never assigned a query.
    planning_times:
        Wall-clock seconds of each policy call as a ``float64`` column, one
        entry per call; the batched engine records ``0.0`` for each arrival
        it serves without one.  A list is accepted and converted once.
    """

    def __init__(
        self,
        scaler_name: str,
        trace_name: str,
        *,
        arrival_times: np.ndarray,
        processing_times: np.ndarray,
        hits: np.ndarray,
        waiting_times: np.ndarray,
        creation_times: np.ndarray,
        ready_times: np.ndarray,
        start_times: np.ndarray,
        pending_times: np.ndarray,
        proactive: np.ndarray,
        unused_instance_cost: float = 0.0,
        planning_times: Sequence[float] | np.ndarray | None = None,
        n_unused_instances: int = 0,
    ) -> None:
        self.scaler_name = scaler_name
        self.trace_name = trace_name
        self.arrival_times = np.asarray(arrival_times, dtype=float)
        self.processing_times = np.asarray(processing_times, dtype=float)
        self.hits = np.asarray(hits, dtype=bool)
        self.waiting_times = np.asarray(waiting_times, dtype=float)
        self.creation_times = np.asarray(creation_times, dtype=float)
        self.ready_times = np.asarray(ready_times, dtype=float)
        self.start_times = np.asarray(start_times, dtype=float)
        self.pending_times = np.asarray(pending_times, dtype=float)
        self.proactive_flags = np.asarray(proactive, dtype=bool)
        sizes = {column: getattr(self, column).shape[0] for column in _COLUMNS}
        if len(set(sizes.values())) > 1:
            raise ValidationError(f"column lengths disagree: {sizes}")
        self.unused_instance_cost = unused_instance_cost
        self.planning_times = np.asarray(
            planning_times if planning_times is not None else (), dtype=float
        )
        self.n_unused_instances = int(n_unused_instances)

    @property
    def n_queries(self) -> int:
        """Number of queries that were replayed."""
        return int(self.arrival_times.shape[0])

    @property
    def response_times(self) -> np.ndarray:
        """Per-query response times: waiting plus processing (seconds)."""
        return self.waiting_times + self.processing_times

    @property
    def deletion_times(self) -> np.ndarray:
        """Deletion time of the instance that served each query."""
        return self.start_times + self.processing_times

    @property
    def lifecycle_costs(self) -> np.ndarray:
        """Billed lifetime (deletion - creation) of each serving instance."""
        return self.deletion_times - self.creation_times

    @property
    def idle_times(self) -> np.ndarray:
        """Ready-to-start gap of each serving instance, floored at 0."""
        return np.maximum(0.0, self.start_times - self.ready_times)

    @property
    def total_cost(self) -> float:
        """Total cost: sum of all lifecycle lengths plus cost of unused instances."""
        return float(self.lifecycle_costs.sum()) + float(self.unused_instance_cost)

    @property
    def hit_rate(self) -> float:
        """Fraction of queries that were hits."""
        if not self.n_queries:
            return float("nan")
        return float(self.hits.mean())

    @property
    def mean_response_time(self) -> float:
        """Average response time across all queries."""
        if not self.n_queries:
            return float("nan")
        return float(self.response_times.mean())

    def __eq__(self, other: object) -> bool:
        """Value equality over names, per-query columns, unused cost and planning times."""
        if not isinstance(other, SimulationResult):
            return NotImplemented
        if (
            self.scaler_name != other.scaler_name
            or self.trace_name != other.trace_name
            or self.unused_instance_cost != other.unused_instance_cost
            or self.n_unused_instances != other.n_unused_instances
            or self.n_queries != other.n_queries
            or not np.array_equal(self.planning_times, other.planning_times)
        ):
            return False
        return all(
            np.array_equal(getattr(self, column), getattr(other, column))
            for column in _COLUMNS
        )

    __hash__ = None  # mutable container semantics

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"SimulationResult(scaler={self.scaler_name!r}, "
            f"trace={self.trace_name!r}, n_queries={self.n_queries})"
        )

