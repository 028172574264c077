"""Fault injection at the campaign's replica tasks.

S3 replicas run in worker processes, so a failure pattern must be a pure
function of the task's arguments — keyed on (unit, replica) — and not of a
call counter: a counter bumped in a worker never reaches the parent.  The
campaign forks its workers lazily, at the first S3 unit, so workers
inherit whatever :func:`install` set before the campaign ran.  The task
functions live at module level because the process backend pickles them
by reference.
"""

import os
import signal
import zlib

from repro.core import campaign as campaign_module
from repro.esmacs.protocol import run_replica

#: ``flaky_replica`` fails where ``crc32("{unit}/{replica}") % FAIL_EVERY == 0``
FAIL_EVERY = 1


def fails(unit: str, replica: int) -> bool:
    """Whether :func:`flaky_replica` fails this (unit, replica)."""
    return zlib.crc32(f"{unit}/{replica}".encode()) % FAIL_EVERY == 0


def flaky_replica(*args):
    """``run_replica`` that raises on a fixed set of (unit, replica) keys."""
    unit, replica = args[5], args[6]
    if fails(unit, replica):
        raise RuntimeError("simulated node failure")
    return run_replica(*args)


def killing_replica(*args):
    """``run_replica`` whose worker SIGKILLs itself on an S3-FG replica.

    FG unit labels read ``{compound}/r{replica}f{frame}``; S3-CG runs clean,
    so the pool is already resident when one of its workers dies.
    """
    unit, replica = args[5], args[6]
    if "/r" in unit and replica == 1:
        os.kill(os.getpid(), signal.SIGKILL)
    return run_replica(*args)


def install(monkeypatch, fn, fail_every: int = 1) -> None:
    """Route the campaign's replica tasks through ``fn``."""
    monkeypatch.setattr(f"{__name__}.FAIL_EVERY", fail_every)
    monkeypatch.setattr(campaign_module, "run_replica", fn)
