"""Measurement helpers of the benchmark: spans, percentiles, failure tallies.

Nothing here imports ``repro``.  The harness wraps the program's functions
with these helpers from outside, so the program itself carries no
benchmark-specific instrumentation.
"""

from __future__ import annotations

import json
import math
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

import numpy as np

#: Per-query outcome columns compared between replay engines: the same set
#: ``benchmarks/bench_engine.py`` compares in ``count_divergent_rows``.
OUTCOME_COLUMNS = (
    "hits",
    "waiting_times",
    "creation_times",
    "ready_times",
    "start_times",
    "pending_times",
    "proactive_flags",
)


def count_divergent_rows(reference: Any, other: Any) -> int:
    """Rows where any outcome column differs bit for bit (0 means parity).

    A differing query count makes every row divergent; a differing unused
    instance cost or planning-call count adds one.
    """
    if reference.n_queries != other.n_queries:
        return max(reference.n_queries, other.n_queries)
    divergent = np.zeros(reference.n_queries, dtype=bool)
    for column in OUTCOME_COLUMNS:
        divergent |= getattr(reference, column) != getattr(other, column)
    mismatch = int(divergent.sum())
    if reference.unused_instance_cost != other.unused_instance_cost:
        mismatch += 1
    if len(reference.planning_times) != len(other.planning_times):
        mismatch += 1
    return mismatch


def percentile(samples: list[float], q: float) -> tuple[float, int]:
    """Nearest-rank ``q``-th percentile and the number of samples above its rank.

    The second value says how many samples the percentile rests on: a tail
    percentile is only worth reporting when at least ten lie beyond it.
    """
    if not samples:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < q <= 100.0:
        raise ValueError(f"percentile must lie in (0, 100], got {q}")
    ordered = sorted(samples)
    # Rounding first keeps float error from lifting an exact rank (99% of 1000).
    rank = max(1, math.ceil(round(q * len(ordered) / 100.0, 9)))
    return ordered[rank - 1], len(ordered) - rank


class Tally:
    """Counts attempted and failed operations; a failure never stops the run.

    An operation fails when it raises or when its output check is false.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, label: str, count: int = 1) -> bool:
        """Record ``count`` operations that all passed or all failed."""
        self.attempted += count
        if not ok:
            self.failed += count
            self.failures.append(label)
        return ok

    def attempt(self, label: str, operation: Callable[[], Any], count: int = 1) -> Any:
        """Run ``operation``; a raised exception counts ``count`` failures.

        Returns the operation's value, or ``None`` when it raised.  Nothing is
        recorded on success: the caller checks the value and records it.
        """
        try:
            return operation()
        except Exception as exc:  # a failed operation is counted, the run goes on
            self.check(False, f"{label}: {type(exc).__name__}: {exc}", count)
            return None

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


class Tracer:
    """In-memory spans (id, name, start, end, parent) of one single-threaded run.

    A span's layer is its name up to the first dot.  Spans are kept as
    lists in memory and written out only when :meth:`write_jsonl` is called.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[list] = []
        self._stack: list[int] = []

    @property
    def current(self) -> str | None:
        """Name of the innermost open span, or ``None`` outside any span."""
        return self.spans[self._stack[-1]][1] if self._stack else None

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        parent = self._stack[-1] if self._stack else None
        record = [len(self.spans), name, self.clock(), None, parent]
        self.spans.append(record)
        self._stack.append(record[0])
        try:
            yield
        finally:
            self._stack.pop()
            record[3] = self.clock()

    def wrap(self, function: Callable, name: str) -> Callable:
        """``function`` with every call recorded as a span called ``name``."""

        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                return function(*args, **kwargs)

        return traced

    def self_times(self) -> list[float]:
        """Per span: its duration minus the durations of its direct children."""
        own = [end - start for _, _, start, end, _ in self.spans]
        for _, _, start, end, parent in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def totals(self, key: Callable[[str], str | None] = lambda name: name) -> dict:
        """Self time, total duration and count summed per ``key(name)``.

        Spans whose key is ``None`` are skipped.  Returns ``{key: (self_s,
        duration_s, count)}``.
        """
        sums: dict[str, list] = {}
        for record, own in zip(self.spans, self.self_times()):
            group = key(record[1])
            if group is None:
                continue
            entry = sums.setdefault(group, [0.0, 0.0, 0])
            entry[0] += own
            entry[1] += record[3] - record[2]
            entry[2] += 1
        return {group: tuple(entry) for group, entry in sums.items()}

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, name, start, end, parent in self.spans:
                handle.write(
                    json.dumps(
                        {"id": span_id, "name": name, "start": start, "end": end, "parent": parent}
                    )
                    + "\n"
                )


def layer_of(name: str) -> str:
    """The layer a span belongs to: its name up to the first dot."""
    return name.split(".", 1)[0]
