"""Wall-clock and virtual-clock timing primitives.

The same code paths run under two notions of time: real wall time (thread
executor, science benches) and a simulated clock (discrete-event cluster).
:class:`WallClock` is the minimal interface both satisfy; the simulated
clock lives with the event loop in :mod:`repro.rct.cluster`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

__all__ = ["WallClock", "Timer"]


class WallClock:
    """Real time source. ``now()`` returns seconds as a float."""

    def now(self) -> float:
        """Current time in seconds."""
        return time.perf_counter()

    def sleep(self, seconds: float) -> None:
        """Idle forward; virtual clocks advance instead of sleeping."""
        if seconds > 0:
            time.sleep(seconds)


@dataclass
class Timer:
    """Accumulating stopwatch usable as a context manager.

    >>> t = Timer()
    >>> with t:
    ...     pass
    >>> t.elapsed >= 0.0
    True
    """

    clock: WallClock = field(default_factory=WallClock)
    elapsed: float = 0.0
    _start: float | None = None

    def start(self) -> None:
        """Begin executing a placed task."""
        if self._start is not None:
            raise RuntimeError("Timer already running")
        self._start = self.clock.now()

    def stop(self) -> float:
        """Stop the stopwatch; returns the last interval."""
        if self._start is None:
            raise RuntimeError("Timer not running")
        delta = self.clock.now() - self._start
        self.elapsed += delta
        self._start = None
        return delta

    def __enter__(self) -> "Timer":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()
