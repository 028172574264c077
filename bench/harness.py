"""Pieces every workload shares: the pass loop, checks, the result shape."""

from __future__ import annotations

import gc
import os
import resource
import signal
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

__all__ = [
    "OVERHEAD", "CheckFailed", "Outcome", "check", "median", "peak_rss_mb",
    "quartile_spread", "reap_children", "run_passes", "timed", "trace_overhead",
]

median = statistics.median
#: reported by every workload's traced run, not owned by one layer
OVERHEAD = "bench.trace_overhead_frac"


class CheckFailed(Exception):
    """A workload's output was wrong; the run prints no result."""


def check(ok: bool, message: str) -> None:
    """Output check that survives ``python -O``."""
    if not ok:
        raise CheckFailed(message)


@dataclass
class Outcome:
    """What one workload run reports."""

    attempted: int
    failed: int
    e2e: dict[str, float]
    layers: dict[str, float] = field(default_factory=dict)
    #: digests, sizes and counts that are compared exactly between runs
    info: dict = field(default_factory=dict)


def timed(fn: Callable, *args, **kwargs):
    """``(seconds, result)`` of one call."""
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return time.perf_counter() - t0, out


def run_passes(
    one_pass: Callable, seconds: float, min_passes: int, rec
) -> tuple[list, list]:
    """Repeat whole passes until ``seconds`` of measuring have gone by.

    Work per pass is fixed (closed loop), so ``--seconds`` buys more
    samples for the median, never a different workload.  ``one_pass(rec)``
    runs the timed region once, with spans iff ``rec`` is given.  In a
    traced run every other pass gets the recorder, so both kinds see the
    same host conditions; returns ``(untraced, traced)`` results.
    Garbage from the previous pass is collected outside the pass's timers.
    """
    out: tuple[list, list] = ([], [])
    if rec is not None:
        min_passes += 1
    n, t0 = 0, time.perf_counter()
    while n < min_passes or time.perf_counter() - t0 < seconds:
        traced = rec is not None and n % 2 == 1
        gc.collect()
        out[traced].append(one_pass(rec if traced else None))
        n += 1
    return out


def trace_overhead(plain: list[dict], traced: list[dict]) -> float:
    """Share by which the bench's own spans lengthen the timed region."""
    return median(p["wall"] for p in traced) / median(p["wall"] for p in plain) - 1.0


def quartile_spread(values: list[float]) -> float:
    """(Q3 - Q1) / median, the driver's measure of run-to-run spread."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _child_pids() -> list[int]:
    """Live or zombie processes whose parent is this one (from ``/proc``)."""
    me, found = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text(encoding="ascii", errors="replace")
        except OSError:
            continue  # ended while we looked
        # "pid (comm) state ppid ...": comm may hold spaces and parentheses
        if int(stat[stat.rindex(")") + 2:].split()[1]) == me:
            found.append(int(entry))
    return found


def reap_children(grace: float = 5.0) -> int:
    """Wait until every child process has ended; kill what outlives ``grace``.

    Called on every path out of a run: the benchmark may leave no process
    behind, whatever the workload or a failed check did.  Returns the
    number it had to kill (0 on a healthy run).
    """
    killed, deadline = 0, time.monotonic() + grace
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return killed  # no child left
        if pid:
            continue
        if time.monotonic() > deadline:
            for child in _child_pids():
                try:
                    os.kill(child, signal.SIGKILL)
                    killed += 1
                except ProcessLookupError:
                    pass
            deadline = float("inf")
        time.sleep(0.01)

