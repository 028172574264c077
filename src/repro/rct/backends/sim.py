"""Discrete-event simulated execution backend.

Tasks take ``spec.duration`` virtual seconds plus a fixed per-task
launch overhead (the paper's Fig 7 shows overheads "invariant to
scale" — a constant per task models exactly that).  With a
``fault_model``, each attempt may instead crash partway, straggle, or
hang — deterministically per (task uid, attempt).

This backend is itself a measured hot path (``bench/`` ``pilot_flood``
tracks its events/sec, ``test_golden_schedule.py`` its schedules): a
Summit-scale campaign pushes ~10⁶ starts and completions through the heap.
Building one seeded stream per attempt used to cost more than scheduling
it, so the executor owns a per-run :class:`~repro.rct.fault.FaultDraws`
memo, made on the first faulty start, that draws first attempts 1,024
uids at a time and frees each block once its uids have all started.  The
virtual clock enforces monotonicity — a backwards ``now`` would silently
violate the heap's ordering invariant and corrupt every downstream
timestamp.
"""

from __future__ import annotations

import heapq
import itertools
import math

from repro.rct.fault import FaultDraws, FaultModel
from repro.rct.task import TaskRecord, TaskState
from repro.util.config import validate_positive

__all__ = ["SimExecutor"]


class SimExecutor:
    """Discrete-event simulated execution over a virtual clock."""

    def __init__(
        self,
        launch_overhead: float = 0.5,
        fault_model: FaultModel | None = None,
    ) -> None:
        validate_positive("launch_overhead", launch_overhead, strict=False)
        self.launch_overhead = launch_overhead
        self.fault_model = fault_model
        self._draws: FaultDraws | None = None
        self._now = 0.0
        # heap entries: (end, seq, record, final_state, error, timed_out)
        self._heap: list[tuple[float, int, TaskRecord, TaskState, str | None, bool]] = []
        self._seq = itertools.count()

    # ------------------------------------------------------------ the clock
    @property
    def now(self) -> float:
        """Current virtual time in seconds (monotone non-decreasing)."""
        return self._now

    @now.setter
    def now(self, t: float) -> None:
        if t < self._now:
            raise ValueError(
                f"virtual time cannot move backwards: now={self._now}, "
                f"requested {t}; the event heap is ordered by absolute end "
                "times and a rewind would corrupt it"
            )
        self._now = t

    def wait_until(self, t: float) -> None:
        """Idle the virtual clock forward to ``t`` (retry backoff).

        Rejects backwards targets: a caller asking to wait until the
        past indicates a scheduling bug (stale retry-eligibility time),
        and silently clamping used to hide it.
        """
        if t < self._now:
            raise ValueError(
                f"wait_until({t}) is in the past (now={self._now}); "
                "virtual time only moves forward"
            )
        self._now = t

    # ------------------------------------------------------------- execution
    def start(self, record: TaskRecord, timeout: float | None = None) -> None:
        """Begin executing a placed task (fault draw decides its fate)."""
        if record.spec.duration is None:
            raise ValueError(
                f"task {record.spec.name} has no duration; SimExecutor "
                "needs one (use a real backend for fn-only tasks)"
            )
        record.state = TaskState.RUNNING
        record.start_time = self._now
        busy = record.spec.duration
        final_state = TaskState.DONE
        error: str | None = None
        timed_out = False
        if self.fault_model is not None:
            draws = self._draws
            if draws is None or draws.model is not self.fault_model:
                draws = self._draws = FaultDraws(self.fault_model)
            outcome = draws.draw(record.spec.uid, record.attempt, busy)
            busy = outcome.busy
            if outcome.failed:
                final_state = TaskState.FAILED
                error = f"injected {outcome.kind} (attempt {record.attempt})"
        if timeout is not None and busy > timeout:
            busy = timeout
            final_state = TaskState.FAILED
            error = f"timeout after {timeout}s (attempt {record.attempt})"
            timed_out = True
        end = self._now + self.launch_overhead + busy
        heapq.heappush(
            self._heap, (end, next(self._seq), record, final_state, error, timed_out)
        )

    @property
    def n_running(self) -> int:
        """Number of tasks currently executing."""
        return len(self._heap)

    def next_completion(self) -> TaskRecord:
        """Advance virtual time until a running task finishes; return it."""
        if not self._heap:
            raise RuntimeError("no running tasks")
        end, _, record, state, error, timed_out = heapq.heappop(self._heap)
        if math.isinf(end):
            raise RuntimeError(
                f"task {record.spec.name} hung and no timeout is set; "
                "give the retry policy a per-task timeout"
            )
        self._now = end
        record.end_time = end
        record.state = state
        record.error = error
        record.timed_out = timed_out
        if state is TaskState.DONE and record.spec.fn is not None:
            # simulated runs may still carry a payload result stub
            record.result = None
        return record

    # ------------------------------------------------------------- lifetime
    def shutdown(self) -> None:
        """No pool to release; symmetric with the real backends."""

    def __enter__(self) -> "SimExecutor":
        return self

    def __exit__(self, *exc: object) -> None:
        self.shutdown()
