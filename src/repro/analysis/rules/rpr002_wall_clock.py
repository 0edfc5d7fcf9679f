"""RPR002: no wall-clock reads inside the deterministic simulation paths.

Simulated time is the only clock the deterministic subsystems may consult:
a ``time.time()`` (or ``perf_counter``, ``datetime.now``, ...) call inside
the simulation/planning stack makes results depend on host speed and breaks
replay/parity guarantees.  Observability layers legitimately measure real
durations, so ``telemetry/``, ``store/``, ``runtime/executor.py`` and
``cli.py`` are configured exemptions; the engines' intentional
decision-latency measurements carry ``allow[RPR002]`` tags instead.
"""

from __future__ import annotations

from typing import Iterator

from ..core import Finding, ModuleContext, Rule, iter_calls, register_rule

#: Package-relative directories whose code must be wall-clock free.
DETERMINISTIC_DIRS = frozenset(
    {"simulation", "scaling", "optimization", "nhpp", "workloads"}
)

#: Package-relative prefixes exempt even if nested under a banned dir (and
#: documenting the layers that own real-time measurement).
EXEMPT_PREFIXES = ("telemetry/", "store/", "runtime/executor.py", "cli.py")

_BANNED_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.process_time",
        "time.process_time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)


@register_rule
class NoWallClockInDeterministicPath(Rule):
    id = "RPR002"
    name = "no-wall-clock-in-deterministic-path"
    description = (
        "Wall-clock reads (time.time/perf_counter/datetime.now) are banned in "
        "simulation/, scaling/, optimization/, nhpp/, workloads/ — "
        "deterministic code sees only simulated time."
    )

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        relative = module.relative_module_path()
        if any(relative.startswith(prefix) for prefix in EXEMPT_PREFIXES):
            return
        first_dir = relative.split("/", 1)[0]
        if first_dir not in DETERMINISTIC_DIRS:
            return
        for call in iter_calls(module.tree):
            qualified = module.qualified_name(call.func)
            if qualified in _BANNED_CALLS:
                yield self.finding(
                    module,
                    call,
                    f"wall-clock call '{qualified}' in deterministic path "
                    f"'{relative}' — results must depend only on simulated time",
                )
