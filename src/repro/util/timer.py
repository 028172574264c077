"""Wall-clock and virtual-clock timing primitives.

The same code paths run under two notions of time: real wall time (thread
executor, science benches) and a simulated clock (discrete-event cluster).
:class:`WallClock` is the minimal interface both satisfy; the simulated
clock lives with the event loop in :mod:`repro.rct.cluster`.
"""

from __future__ import annotations

import time

__all__ = ["WallClock"]


class WallClock:
    """Real time source. ``now()`` returns seconds as a float."""

    def now(self) -> float:
        """Current time in seconds."""
        return time.perf_counter()

    def sleep(self, seconds: float) -> None:
        """Idle forward; virtual clocks advance instead of sleeping."""
        if seconds > 0:
            time.sleep(seconds)
