"""Process-pool execution backend: CPU-bound scaling past the GIL.

A docking shard is pure Python + NumPy arithmetic; on the thread
backend, N workers contend for one interpreter lock and CPU-bound
throughput flatlines.  This backend runs task functions in worker
*processes* (one interpreter each), which is how the real campaign
shape — many independent, CPU-hungry function calls — actually scales
on a multicore node.

Constraints inherited from pickling across the process boundary:

* ``spec.fn``, ``args``, ``kwargs`` and the return value must be
  picklable (module-level functions, not lambdas/closures);
* the task function cannot mutate caller state — only its return value
  crosses back.

Workers are *resident*: each runs ``initializer(*initargs)`` once when it
starts and then executes many tasks, so state every task needs (a
receptor's grids, say) is installed once per worker rather than pickled
into every task — the RAPTOR worker model.  An initializer that raises
breaks the pool: in-flight and later attempts are delivered as FAILED
records (``BrokenProcessPool``), and submitting to a pool already known
to be broken raises.

Per-attempt timeouts use **abandon-and-reap**: at the deadline the
attempt is delivered as a timeout failure immediately.  A queued
attempt is cancelled outright; a running one is left executing with its
eventual result discarded, and :meth:`ProcessExecutor.shutdown`
*reaps* — terminates — worker processes still burning on abandoned
attempts, so a hung payload cannot wedge interpreter exit.
"""

from __future__ import annotations

from concurrent.futures import Future, ProcessPoolExecutor
from typing import Callable

from repro.rct.backends.pool import PoolBackend
from repro.rct.task import TaskRecord, TaskState
from repro.util.timer import WallClock

__all__ = ["ProcessExecutor"]


class ProcessExecutor(PoolBackend):
    """Real execution on a process pool (CPU-bound payloads)."""

    def __init__(
        self,
        max_workers: int | None = None,
        clock: WallClock | None = None,
        mp_context=None,
        initializer: Callable | None = None,
        initargs: tuple = (),
    ) -> None:
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        super().__init__(clock)
        self._pool = ProcessPoolExecutor(
            max_workers=max_workers,
            mp_context=mp_context,
            initializer=initializer,
            initargs=initargs,
        )

    def start(self, record: TaskRecord, timeout: float | None = None) -> None:
        """Begin executing a placed task in a worker process."""
        if record.spec.fn is None:
            raise ValueError(
                f"task {record.spec.name} has no fn; ProcessExecutor needs one"
            )
        delivery = self._begin(record)
        try:
            future = self._pool.submit(
                record.spec.fn, *record.spec.args, **record.spec.kwargs
            )
        except BaseException:  # pool shut down (caller misuse) or known
            # broken: fail loudly (work in flight when the pool broke
            # surfaces through its future as a FAILED record instead)
            delivery.abort()
            raise

        def on_done(fut: Future) -> None:
            if fut.cancelled():
                # reaped before it ever started; the reaper settled the
                # abandon ledger when the cancel succeeded
                return
            try:
                result = fut.result()
            except BaseException as exc:  # noqa: BLE001 - task isolation
                # (unpicklable payloads and pool breakage land here too)
                if not delivery.deliver(
                    TaskState.FAILED, f"{type(exc).__name__}: {exc}", False
                ):
                    delivery.finished_late()
            else:
                if not delivery.deliver(TaskState.DONE, None, False, result):
                    delivery.finished_late()

        def on_timeout() -> None:
            if delivery.deliver(
                TaskState.FAILED,
                f"timeout after {timeout}s (attempt {record.attempt})",
                True,
            ):
                if future.cancel():
                    # never started: no worker will drain it later
                    delivery.finished_late()

        if timeout is not None:
            self._arm_timeout(delivery, timeout, on_timeout)
        future.add_done_callback(on_done)

    def shutdown(self) -> None:
        """Stop the pool; reap workers still burning abandoned attempts.

        With no abandoned attempts this waits for in-flight work like
        the thread backend.  With abandoned attempts, queued work is
        cancelled and the worker processes are terminated — unlike
        threads, processes *can* be reaped, so a hung task costs one
        worker restart rather than a wedged interpreter exit.
        """
        if self.n_abandoned == 0:
            self._pool.shutdown(wait=True)
            return
        self._pool.shutdown(wait=False, cancel_futures=True)
        workers = getattr(self._pool, "_processes", None) or {}
        for proc in list(workers.values()):
            proc.terminate()
