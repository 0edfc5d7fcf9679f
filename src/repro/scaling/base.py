"""The autoscaler interface shared by all policies.

The simulator drives a policy through three hooks:

* :meth:`Autoscaler.initialize` — once, at simulation time 0;
* :meth:`Autoscaler.on_query_arrival` — after every query arrival has been
  resolved (the policy sees the updated pool state).  The base hook is the
  one arrival rule the baselines share: create instances right away until
  :attr:`Autoscaler.arrival_target` are outstanding;
* :meth:`Autoscaler.on_planning_tick` — every ``planning_interval`` seconds,
  when the policy declares one.

Each hook receives a :class:`PlanningContext` snapshot of what the policy is
allowed to observe (time, arrival history, how many instances are created
and how many scheduled — never the future of the trace) and returns a
:class:`ScalingResponse` of instance creations and scale-ins of idle
instances.  A creation, once returned, is never revisited: the engine
executes it at its time unless a reactive cold start consumes it first.

A policy describes its per-arrival behaviour by overriding
:attr:`~Autoscaler.arrival_target` (Backup Pool returns its pool size,
Adaptive Backup Pool its current target, everything else keeps 0, which
does nothing), not by overriding the hook.  The batched engine then reads
the target once per chunk of arrivals and serves the chunk over arrays
instead of calling the hook per query; policies that do override the hook
are replayed one query at a time.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

import numpy as np

from ..types import ScalingAction

__all__ = ["PlanningContext", "ScalingResponse", "Autoscaler"]


@dataclass(frozen=True)
class PlanningContext:
    """What a policy observes when it is asked for a decision.

    Attributes
    ----------
    time:
        Current simulation time in seconds.
    n_arrivals:
        Number of queries that have arrived so far (including the one that
        triggered an arrival hook).
    arrival_history:
        Arrival times (seconds) of all queries seen so far, oldest first.
    created_unassigned:
        Instances that exist (created, possibly still pending) and have not
        been assigned to a query yet.
    scheduled_creations:
        Scaling actions accepted earlier whose creation time has not been
        reached yet.
    """

    time: float
    n_arrivals: int
    arrival_history: np.ndarray
    created_unassigned: int
    scheduled_creations: int

    @property
    def outstanding_instances(self) -> int:
        """Instances already committed to future queries (created + scheduled)."""
        return self.created_unassigned + self.scheduled_creations

    def recent_arrival_rate(self, window_seconds: float) -> float:
        """Average arrival rate (queries/second) over the trailing window.

        Returns 0 when the window is empty.  Used by the adaptive-backup-pool
        heuristic, which tracks the QPS of the most recent ten minutes.
        """
        if window_seconds <= 0:
            return 0.0
        start = self.time - window_seconds
        # The history is sorted by construction, so a binary search suffices.
        first = int(np.searchsorted(self.arrival_history, start, side="left"))
        count = self.arrival_history.size - first
        return count / window_seconds


@dataclass
class ScalingResponse:
    """A policy's answer to one hook invocation.

    Attributes
    ----------
    actions:
        New instance creations to schedule; creation times are absolute
        simulation times and may equal the current time ("create now").
    scale_in:
        Number of idle (created, unassigned) instances to delete immediately,
        latest-ready first.
    """

    actions: list[ScalingAction] = field(default_factory=list)
    scale_in: int = 0

    @classmethod
    def empty(cls) -> "ScalingResponse":
        """A response that does nothing."""
        return cls()

    @classmethod
    def create_now(cls, time: float, count: int = 1) -> "ScalingResponse":
        """A response that creates ``count`` instances immediately."""
        actions = [ScalingAction(creation_time=time) for _ in range(count)]
        return cls(actions=actions)


class Autoscaler(abc.ABC):
    """Base class for scaling-per-query autoscaling policies."""

    #: Human-readable policy name used in reports; subclasses override.
    name: str = "autoscaler"

    @property
    def arrival_target(self) -> int:
        """Instances the arrival rule keeps outstanding after every query.

        The default 0 makes the base :meth:`on_query_arrival` a no-op.  The
        value may change only in :meth:`initialize`,
        :meth:`on_planning_tick` and :meth:`reset`: the batched engine reads
        it once per chunk of arrivals between two planning ticks.
        """
        return 0

    @property
    def planning_interval(self) -> float | None:
        """Seconds between planning ticks, or ``None`` for no periodic ticks."""
        return None

    def initialize(self, context: PlanningContext) -> ScalingResponse:
        """Called once at simulation time 0 before any arrival."""
        return ScalingResponse.empty()

    def on_query_arrival(self, context: PlanningContext) -> ScalingResponse:
        """Called after each query arrival has been matched to an instance.

        The base hook is the arrival rule: create instances now until
        :attr:`arrival_target` are outstanding (created or scheduled).
        Override :attr:`arrival_target`, not this hook, to change the
        target; a subclass that overrides the hook is replayed per query.
        The context is only valid for the duration of the call: fast engines
        may reuse one mutable snapshot across arrivals, so policies must not
        stash it for later inspection (read what you need, then return).
        """
        deficit = self.arrival_target - context.outstanding_instances
        if deficit > 0:
            return ScalingResponse.create_now(context.time, deficit)
        return ScalingResponse.empty()

    def on_planning_tick(self, context: PlanningContext) -> ScalingResponse:
        """Called every :attr:`planning_interval` seconds (if not ``None``)."""
        return ScalingResponse.empty()

    def reset(self) -> None:
        """Clear any per-run state; called by the runner before each replay."""

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{type(self).__name__}(name={self.name!r})"
