"""Executor backend protocol.

Every execution backend — simulated clock, thread pool, process pool —
drives the same protocol the pilot's
scheduling loop (and the backend conformance suite) exercises:

* ``start(record, timeout=None)`` — begin executing a placed task,
* ``next_completion()`` — block (real backends) or advance virtual time
  (simulated) until some running task finishes, and return its record,
* ``wait_until(t)`` — idle the clock forward (retry backoff),
* ``now`` / ``n_running`` — the backend's clock and in-flight count,
* ``shutdown()`` + context-manager entry/exit — release pool resources.

Keeping the protocol identical means the scheduler, utilization tracker
and every workflow layer above run unchanged on any backend — the
design move that lets one codebase both *really run* the science tasks
(threads for I/O-ish payloads, processes for CPU-bound docking shards
that must scale past the GIL) and *simulate* Summit-scale campaigns.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

from repro.rct.task import TaskRecord

__all__ = ["ExecutorBackend"]


@runtime_checkable
class ExecutorBackend(Protocol):
    """Structural protocol every execution backend satisfies."""

    @property
    def now(self) -> float:
        """Current time in clock seconds (virtual or wall)."""
        ...

    @property
    def n_running(self) -> int:
        """Number of tasks currently executing."""
        ...

    def start(self, record: TaskRecord, timeout: float | None = None) -> None:
        """Begin executing a placed task."""
        ...

    def next_completion(self) -> TaskRecord:
        """Block/advance until a running task finishes; return it."""
        ...

    def wait_until(self, t: float) -> None:
        """Idle the clock forward to ``t`` (retry backoff)."""
        ...

    def shutdown(self) -> None:
        """Release pool resources (if any)."""
        ...

