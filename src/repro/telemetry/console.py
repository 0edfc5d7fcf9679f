"""The shared console emitter: one place ``--quiet`` is enforced.

Before this module, "quiet" meant different things to different commands:
the live progress line honored ``--quiet`` while the ``[store]`` stderr
summaries did not.  :class:`Console` is the single emitter both go through
now — the CLI builds one per invocation with its ``quiet`` flag, status
lines go through :meth:`Console.emit`, and the progress display is obtained
from :meth:`Console.progress` (which returns ``None`` when quiet, so
callers simply have no hook to feed).
"""

from __future__ import annotations

import sys
import time
from typing import TextIO

__all__ = ["Console", "ProgressLine"]


class Console:
    """Status-line emitter for one CLI invocation.

    Parameters
    ----------
    stream:
        Target stream; defaults to ``sys.stderr`` (status output must never
        pollute the result tables on stdout).
    quiet:
        When ``True``, :meth:`emit` swallows everything and
        :meth:`progress` returns ``None``.
    """

    def __init__(self, stream: TextIO | None = None, *, quiet: bool = False) -> None:
        self.stream = sys.stderr if stream is None else stream
        self.quiet = bool(quiet)

    def emit(self, message: str) -> None:
        """Print one status line (suppressed under ``quiet``)."""
        if not self.quiet:
            print(message, file=self.stream)

    def progress(self) -> "ProgressLine | None":
        """A live progress display bound to this console, or ``None`` if quiet."""
        return None if self.quiet else ProgressLine(self.stream)


class ProgressLine:
    """Live ``N/M tasks, ~Xs left`` line on a stream.

    Implements the :class:`repro.api.ProgressHook` protocol
    (``begin`` / ``update`` / ``finish``); ``update`` runs once per
    completed task.  On a terminal the line redraws
    in place; elsewhere (CI logs, pipes) it prints at most ~10
    newline-terminated snapshots so logs stay readable.  The ETA
    extrapolates from live completions only — journal-recovered tasks
    arrive instantly and would otherwise skew the rate.
    """

    def __init__(self, stream: TextIO) -> None:
        self.stream = stream
        self.total = 0
        self.done = 0
        self.live_done = 0
        self.started = time.perf_counter()
        self._live_started: float | None = None
        self._dirty = False
        self._isatty = bool(getattr(stream, "isatty", lambda: False)())

    def begin(self, total: int) -> None:
        self.total = total

    def _eta_text(self) -> str:
        remaining = max(self.total - self.done, 0)
        if remaining == 0:
            return "done"
        if self.live_done == 0 or self._live_started is None:
            return "estimating time left"
        rate = (time.perf_counter() - self._live_started) / self.live_done
        return f"~{max(rate * remaining, 0.0):.0f}s left"

    def update(self, result: object) -> None:
        self.done += 1
        if not getattr(result, "resumed", False):
            if self._live_started is None:
                # Rate starts at the first live completion's *start*, which
                # we approximate by the line's construction time; resumed
                # records recovered before it do not distort the estimate.
                self._live_started = self.started
            self.live_done += 1
        text = f"[progress] {self.done}/{self.total} tasks, {self._eta_text()}"
        if self._isatty:
            self.stream.write("\r" + text.ljust(48))
            self.stream.flush()
            self._dirty = True
        else:
            step = max(1, self.total // 10)
            if self.done % step == 0 or self.done == self.total:
                self.stream.write(text + "\n")

    def finish(self) -> None:
        if self._dirty:
            self.stream.write("\n")
            self.stream.flush()
            self._dirty = False
