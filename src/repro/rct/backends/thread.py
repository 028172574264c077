"""Thread-pool execution backend.

Real execution on a thread pool; time comes from the injected clock
(default :class:`~repro.util.timer.WallClock`; tests and deterministic
traces may substitute any object with ``now()`` and ``sleep(seconds)``).

With a per-attempt ``timeout``, an attempt still running at the
deadline is *abandoned*: marked failed and reported immediately, while
the worker thread is left to finish and its late result discarded
(Python threads cannot be killed; RADICAL-Pilot likewise reaps by
deadline).  Delivery is claim-once (see
:mod:`repro.rct.backends.pool`), so a worker completing just as the
timer fires can neither double-count in the busy ledger nor attach its
result to the already-published FAILED record.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

from repro.rct.backends.pool import PoolBackend
from repro.rct.task import TaskRecord, TaskState
from repro.util.timer import WallClock

__all__ = ["ThreadExecutor"]


class ThreadExecutor(PoolBackend):
    """Real execution on a thread pool (I/O-ish and small payloads)."""

    def __init__(self, max_workers: int = 8, clock: WallClock | None = None) -> None:
        if max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        super().__init__(clock)
        self._pool = ThreadPoolExecutor(max_workers=max_workers)

    def start(self, record: TaskRecord, timeout: float | None = None) -> None:
        """Begin executing a placed task on a worker thread."""
        if record.spec.fn is None:
            raise ValueError(
                f"task {record.spec.name} has no fn; ThreadExecutor needs one"
            )
        delivery = self._begin(record)

        def runner() -> None:
            try:
                result = record.spec.fn(*record.spec.args, **record.spec.kwargs)
            except Exception as exc:  # noqa: BLE001 - task isolation
                if not delivery.deliver(
                    TaskState.FAILED, f"{type(exc).__name__}: {exc}", False
                ):
                    delivery.finished_late()
            else:
                if not delivery.deliver(TaskState.DONE, None, False, result):
                    # abandoned at the timeout: the result is discarded
                    # here, never attached to the published record
                    delivery.finished_late()

        if timeout is not None:
            self._arm_timeout(
                delivery,
                timeout,
                lambda: delivery.deliver(
                    TaskState.FAILED,
                    f"timeout after {timeout}s (attempt {record.attempt})",
                    True,
                ),
            )
        try:
            self._pool.submit(runner)
        except BaseException:  # pool already shut down: caller misuse
            delivery.abort()
            raise

    def shutdown(self) -> None:
        """Stop the worker pool.

        Waits for in-flight tasks — unless some were abandoned at a
        timeout, in which case waiting would block on threads already
        declared dead; those are left to drain on their own.
        """
        self._pool.shutdown(wait=self.n_abandoned == 0)
