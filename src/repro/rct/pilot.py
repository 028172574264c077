"""RADICAL-Pilot analogue: pilot jobs, slot scheduling, the drive loop.

The pilot paradigm (§5.2.2): submit one batch job that acquires nodes,
then schedule arbitrarily many heterogeneous tasks onto those nodes
directly — "given 10,000 single-node tasks and 1000 nodes, a pilot
system will execute 1000 tasks concurrently and … the remaining 9000
sequentially, whenever a node becomes available."  :class:`Pilot` owns
the allocation and slot bookkeeping, and :meth:`Pilot.step` is exactly
that greedy backfilling round, over any registered executor backend.

There is one drive loop.  What differs between a flat task list
(:meth:`Pilot.run`), EnTK pipelines (:class:`~repro.rct.entk.AppManager`),
the multi-tenant service
(:class:`~repro.service.manager.CampaignManager`) and a science stage on
resident workers (:func:`run_in_order`) is only *where tasks come from*,
so each is a :class:`TaskSource` handed to the same :meth:`Pilot.step`;
the retry, idle and deadlock rules live here and nowhere else.

Placement is first-fit-lowest-index from
:class:`~repro.rct.sched.IndexedPlacer` (O(log nodes) amortized), and
backlogs sit in a shape-keyed :class:`~repro.rct.sched.PendingQueue` whose
submission pass is O(placed + shapes) instead of O(backlog) — together
these are what let a Summit-scale (4,608-node, 10⁶-task) campaign
simulate in minutes (``bench/`` ``pilot_flood`` measures the loop).
Every completed attempt is also appended to a columnar
:class:`~repro.rct.tasklog.TaskLog`, so campaigns too large to keep
per-task objects (``keep_records=False``) still get exact accounting and
a sha256 determinism witness.

Failure handling is first-class: a :class:`~repro.rct.fault.RetryPolicy`
re-queues failed attempts after (jittered, exponential) backoff on the
executor's clock, and a propagation policy decides what happens when
retries are exhausted — ``fail_fast`` raises
:class:`~repro.rct.fault.TaskFailedError`, ``drop_and_continue`` keeps
going and reports every drop in :attr:`Pilot.failures`.  Nothing fails
silently.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Iterator, Sequence

from repro.rct.backends import ExecutorBackend, ProcessExecutor
from repro.rct.cluster import Allocation, NodeSpec
from repro.rct.fault import FAILURE_POLICIES, FailureSummary, RetryPolicy, TaskFailedError
from repro.rct.sched import IndexedPlacer, PendingQueue, Placement
from repro.rct.task import TaskRecord, TaskSpec, TaskState
from repro.rct.tasklog import TaskLog
from repro.rct.utilization import UtilizationTracker
from repro.telemetry import NULL_TRACER, ExecutorClock, Span, Tracer
from repro.util.blas import pin_blas_threads

__all__ = [
    "FitsFn",
    "Pilot",
    "Placement",
    "QueueSource",
    "StartFn",
    "TaskSource",
    "resident_pilot",
    "run_in_order",
]

#: ``start(task) -> bool``: place and launch one first attempt
StartFn = Callable[[TaskSpec], bool]
#: ``fits(cpus, gpus, nodes) -> bool``: the pilot's exact placement probe
FitsFn = Callable[[int, int, int], bool]


class TaskSource:
    """Where :meth:`Pilot.step` gets tasks and reports attempts.

    What a source may assume of every round: backoff-expired retries
    were re-driven before :meth:`place` (they have waited longest and
    hold the completion tail); free slots only shrink while
    :meth:`place` runs, so a shape that failed to start cannot start
    later in the same call; and :meth:`completed` sees every finished
    attempt exactly once — ``DONE``, ``RETRYING`` (re-queued by the
    pilot, not final), ``FAILED`` (dropped), including the one a
    ``fail_fast`` pilot is about to raise for.
    """

    def place(self, start: StartFn, fits: FitsFn) -> None:
        """Start whatever fits: ``start(task)`` per candidate whose shape
        the exact probe ``fits`` (:attr:`Pilot.fits_now`) accepts."""
        raise NotImplementedError

    def completed(self, record: TaskRecord) -> None:
        """Account one finished attempt."""

    def has_pending(self) -> bool:
        """Whether unplaced work remains (idle + pending = deadlock)."""
        raise NotImplementedError

    def next_wakeup(self) -> float | None:
        """Clock time at which new work appears with nothing running."""
        return None


class QueueSource(TaskSource):
    """A backlog placed greedily in submission order."""

    def __init__(self) -> None:
        self.queue = PendingQueue()

    def place(self, start: StartFn, fits: FitsFn) -> None:
        self.queue.submit_pass(start, fits)

    def has_pending(self) -> bool:
        return len(self.queue) > 0


class _FlatSource(QueueSource):
    """A fixed task list; collects each task's final record."""

    def __init__(self, tasks: list[TaskSpec], keep_records: bool) -> None:
        super().__init__()
        for task in tasks:
            self.queue.push(task)
        self.keep_records = keep_records
        self.finished: list[TaskRecord] = []

    def completed(self, record: TaskRecord) -> None:
        if self.keep_records and record.state is not TaskState.RETRYING:
            self.finished.append(record)


def _span_attrs(task: TaskSpec, attempt: int, **extra: object) -> dict:
    """Span attributes every pilot span carries; ``tenant`` only when set."""
    attrs = {"stage": task.stage, "uid": task.uid, "attempt": attempt, **extra}
    if task.tenant:
        attrs["tenant"] = task.tenant
    return attrs


class Pilot:
    """A resource pilot: slot accounting + the one drive loop."""

    def __init__(
        self,
        allocation: Allocation,
        executor: ExecutorBackend,
        retry: RetryPolicy | None = None,
        failure_policy: str = "drop_and_continue",
        failure_budget: int | None = None,
        tracer: Tracer | None = None,
        keep_records: bool = True,
    ) -> None:
        if failure_policy not in FAILURE_POLICIES:
            raise ValueError(
                f"failure_policy must be one of {FAILURE_POLICIES}, "
                f"got {failure_policy!r}"
            )
        if failure_budget is not None and failure_budget < 0:
            raise ValueError("failure_budget must be non-negative")
        self.allocation = allocation
        self.executor = executor
        self.retry = retry
        self.failure_policy = failure_policy
        self.failure_budget = failure_budget
        self.failures = FailureSummary()
        self.keep_records = keep_records
        self._placer = IndexedPlacer(allocation.n_nodes, allocation.spec)
        #: ``fits_now(cpus, gpus, nodes)``: whether :meth:`start_task`
        #: would place that shape right now — the placer's exact probe
        #: (:meth:`IndexedPlacer.fits_now
        #: <repro.rct.sched.IndexedPlacer.fits_now>`), which places
        #: nothing and moves no later decision; :meth:`step` hands it to
        #: every source's ``place`` and :meth:`_submit_retries` asks it,
        #: so ``start_task`` is called only for what fits
        self.fits_now = self._placer.fits_now
        #: slots held by each in-flight attempt, by task uid
        self._placements: dict[int, Placement] = {}
        # retry backlog: (eligible_time, task, attempt), unordered
        self._retry_queue: list[tuple[float, TaskSpec, int]] = []
        #: per-attempt TaskRecord objects (empty when ``keep_records=False``)
        self.records: list[TaskRecord] = []
        #: columnar log of every completed attempt — always maintained,
        #: O(bytes) per attempt, carries the determinism digest
        self.log = TaskLog()
        # The pilot is traced by default: every placement becomes a
        # "pilot.task" span (explicit executor times, so the same code
        # path is deterministic under simulation) and the utilization
        # tracker below is a pure view over those spans.  Passing
        # NULL_TRACER skips span bookkeeping entirely — at 10⁶ tasks
        # the spans, not the scheduling, would dominate.
        self.tracer = (
            tracer if tracer is not None else Tracer(clock=ExecutorClock(executor))
        )
        self._task_spans: dict[tuple[int, int], Span] = {}

    # ------------------------------------------------------------ placement
    @property
    def spec(self) -> NodeSpec:
        """Node shape of the underlying allocation."""
        return self.allocation.spec

    # ----------------------------------------------------------- primitives
    def validate_fits(self, task: TaskSpec) -> None:
        """Raise if ``task`` can never be placed on this pilot.

        ``cpus``/``gpus`` are per-node requests, so they must fit one node
        regardless of the node count — a multi-node task over-committing a
        node would otherwise slip through and later surface as a
        misleading "deadlock" at scheduling time.
        """
        if task.cpus > self.spec.cpus or task.gpus > self.spec.gpus:
            if task.nodes == 1:
                raise ValueError(
                    f"task {task.name} requests more than one node holds"
                )
            raise ValueError(
                f"task {task.name} requests {task.cpus} cpus/{task.gpus} gpus "
                f"per node; the node spec holds {self.spec.cpus}/{self.spec.gpus}"
            )
        if task.nodes > self.allocation.n_nodes:
            raise ValueError(
                f"task {task.name} requests {task.nodes} nodes, pilot has "
                f"{self.allocation.n_nodes}"
            )

    def start_task(self, task: TaskSpec, attempt: int = 0) -> bool:
        """Place and launch one attempt; ``False`` when nothing fits.

        The primitive under every :meth:`TaskSource.place`; also the
        entry point for callers that grant placements one at a time.
        """
        if task.uid in self._placements:
            # Slot bookkeeping is keyed by uid: silently overwriting the
            # placement of an in-flight task would leak its slots on
            # release and mis-free the other's.  This fires when two
            # logical campaigns share one pilot without namespacing their
            # uids (the global TaskSpec counter is per-process, and
            # reset_uid_counter() makes collisions trivial).
            raise ValueError(
                f"task uid {task.uid} ({task.name!r}) is already in flight "
                "on this pilot; shared-pilot submitters must namespace "
                "their uids"
            )
        placement = self._placer.try_place(task)
        if placement is None:
            return False
        record = TaskRecord(
            spec=task,
            state=TaskState.SCHEDULED,
            node_ids=placement.node_ids,
            attempt=attempt,
        )
        try:
            self.executor.start(
                record, timeout=self.retry.timeout if self.retry else None
            )
        except BaseException:  # e.g. a broken pool: the slots were never used
            self._placer.release(placement)
            raise
        self._placements[task.uid] = placement
        if self.keep_records:
            self.records.append(record)
        if self.tracer.enabled:
            self._task_spans[(task.uid, attempt)] = self.tracer.start_span(
                task.name,
                category="pilot.task",
                attrs=_span_attrs(
                    task,
                    attempt,
                    gpus=placement.gpus,
                    cpus=placement.cpus,
                    nodes=len(placement.node_ids),
                ),
                start=self.executor.now,
            )
        return True

    def cancel_pending(self, pred) -> list[TaskSpec]:
        """Drop queued-not-running retry attempts matching ``pred``.

        Running attempts are *not* interrupted — bounded preemption only
        touches work that has not started.  Returns the cancelled specs.
        The failure that queued each cancelled retry was counted as a
        retry when its backoff was scheduled; that retry will never run, so
        it becomes a drop and ``failures == retries + drops`` still holds.
        """
        kept: list[tuple[float, TaskSpec, int]] = []
        cancelled: list[TaskSpec] = []
        for eligible, task, attempt in self._retry_queue:
            if pred(task):
                cancelled.append(task)
                self.failures.cancel_retry(task.stage)
            else:
                kept.append((eligible, task, attempt))
        self._retry_queue = kept
        return cancelled

    def _submit_retries(self) -> None:
        """Re-drive backoff-expired retries, oldest first."""
        now = self.executor.now
        fits = self.fits_now
        still_waiting: list[tuple[float, TaskSpec, int]] = []
        for eligible, task, attempt in self._retry_queue:
            if eligible > now or not (
                fits(task.cpus, task.gpus, task.nodes) and self.start_task(task, attempt)
            ):
                still_waiting.append((eligible, task, attempt))
        self._retry_queue = still_waiting

    def wait_one(self) -> TaskRecord:
        """Block/advance until some running task finishes.

        Applies the retry policy: a failed attempt with retries left is
        re-queued (state :attr:`TaskState.RETRYING`, not final); an
        exhausted one is dropped or, under ``fail_fast``, raises
        :class:`TaskFailedError`.
        """
        record, error = self._complete_one()
        if error is not None:
            raise error
        return record

    def _complete_one(self) -> tuple[TaskRecord, TaskFailedError | None]:
        """Account the next completion; the error, if any, is returned
        rather than raised so :meth:`step` can report the attempt first."""
        record = self.executor.next_completion()
        error: TaskFailedError | None = None
        span = (
            self._task_spans.pop((record.spec.uid, record.attempt), None)
            if self.tracer.enabled
            else None
        )
        self._placer.release(self._placements.pop(record.spec.uid))
        if record.state is TaskState.FAILED:
            if span is not None:
                span.set_error(record.error or "failed")
                if record.timed_out:
                    span.set_attr("timed_out", True)
            self.failures.record_failure(record.wall_time, record.timed_out)
            if self.retry is not None and self.retry.should_retry(record.attempt):
                backoff = self.retry.backoff(record.spec.uid, record.attempt)
                if span is not None:
                    span.set_attr("retried", True)
                    span.finish(end=self.executor.now)
                self.failures.record_retry(backoff)
                if self.tracer.enabled:
                    # the backoff interval is itself a span, carrying the
                    # exact policy-drawn seconds (end-start would
                    # reintroduce float round-off into reconciliation)
                    self.tracer.record_span(
                        f"backoff:{record.spec.name}",
                        start=self.executor.now,
                        end=self.executor.now + backoff,
                        category="pilot.backoff",
                        attrs=_span_attrs(record.spec, record.attempt, seconds=backoff),
                    )
                self._retry_queue.append(
                    (self.executor.now + backoff, record.spec, record.attempt + 1)
                )
                record.state = TaskState.RETRYING
                record.backoff = backoff
            else:
                if span is not None:
                    span.set_attr("dropped", True)
                    span.finish(end=self.executor.now)
                self.failures.record_drop(record.spec.stage)
                if self.failure_policy == "fail_fast":
                    error = TaskFailedError(
                        f"task {record.spec.name} failed on attempt "
                        f"{record.attempt} ({record.error}); fail_fast policy",
                        record,
                    )
                elif (
                    self.failure_budget is not None
                    and self.failures.n_dropped > self.failure_budget
                ):
                    error = TaskFailedError(
                        f"failure budget exceeded: {self.failures.n_dropped} "
                        f"tasks dropped, budget {self.failure_budget}",
                        record,
                    )
        else:
            if span is not None:
                span.finish(end=self.executor.now)
            if record.state is TaskState.DONE:
                self.failures.record_success(record.attempt)
        self.log.append(record)
        return record, error

    # ------------------------------------------------------------- the loop
    def step(self, source: TaskSource) -> bool:
        """One drive round; ``False`` once the source is drained and idle.

        Re-drives expired retries, lets the source place, then does
        exactly one of: account one completion (and hand it to
        ``source.completed``), idle the clock to the earliest retry, idle
        it to the source's next wake-up, or report quiescence — which is
        a deadlock if the source still holds work.
        """
        if self._retry_queue:
            self._submit_retries()
        source.place(self.start_task, self.fits_now)
        if self._placements:
            record, error = self._complete_one()
            source.completed(record)
            if error is not None:
                raise error
            return True
        if self._retry_queue:
            # everything idle until some backoff expires
            self.executor.wait_until(min(e for e, _, _ in self._retry_queue))
            return True
        wakeup = source.next_wakeup()
        if wakeup is not None:
            self.executor.wait_until(wakeup)
            return True
        if source.has_pending():
            raise RuntimeError(
                "deadlock: tasks pending but nothing is running and "
                "nothing can be placed"
            )
        return False

    def drive(self, source: TaskSource) -> None:
        """Step ``source`` to quiescence."""
        while self.step(source):
            pass

    def run(self, tasks: list[TaskSpec]) -> list[TaskRecord]:
        """Run a workload to completion; returns records in finish order.

        The returned list holds one *final* record per task (done, or
        failed-after-retries under ``drop_and_continue``); intermediate
        failed attempts live in :attr:`records` and are tallied in
        :attr:`failures`.  With ``keep_records=False`` the returned list
        is empty — :attr:`log` and :attr:`failures` carry the outcome in
        O(bytes) per task.
        """
        for t in tasks:
            self.validate_fits(t)
        source = _FlatSource(tasks, self.keep_records)
        self.drive(source)
        return source.finished

    # ----------------------------------------------------------- accounting
    @property
    def utilization(self) -> UtilizationTracker:
        """Fig 7 utilization, reconstructed as a view over the trace."""
        n, spec = self.allocation.n_nodes, self.spec
        return UtilizationTracker.from_trace(
            self.tracer, total_gpus=n * spec.gpus, total_cpus=n * spec.cpus
        )

    def node_hours(self) -> float:
        """Total node-hours consumed by completed task attempts."""
        spec = self.spec
        return self.log.node_seconds_total(spec.gpus, spec.cpus) / 3600.0

    # ------------------------------------------------------------- lifetime
    def shutdown(self) -> None:
        """Release the executor's resources (thread pool, if any)."""
        self.executor.shutdown()

    def __enter__(self) -> "Pilot":
        return self

    def __exit__(self, *exc: object) -> None:
        self.shutdown()


def _worker_count() -> int:
    """Resident worker processes for science tasks: one per usable cpu."""
    return len(os.sched_getaffinity(0))


def _init_worker(initializer: Callable, *initargs: object) -> None:
    """Worker start: one BLAS thread, then the caller's initializer."""
    pin_blas_threads()
    initializer(*initargs)


def resident_pilot(initializer: Callable, initargs: tuple) -> Pilot:
    """A one-node pilot over resident, forked science workers.

    One cpu slot per worker (:func:`_worker_count`); each worker pins
    BLAS to one thread and runs ``initializer(*initargs)`` once, so large
    state (receptor grids, a surrogate) is installed per worker, never
    pickled into a task.  Build it lazily, as the factory handed to
    :func:`run_in_order`, and shut it down in a ``finally``.  Drops rather
    than raises (:func:`run_in_order` hands every final record back in job
    order), keeps no records and is untraced: its wall clock must not
    enter a deterministic trace.
    """
    n = _worker_count()
    executor = ProcessExecutor(
        max_workers=n,
        # fork, not spawn: a spawned worker re-imports numpy and repro
        # before its first task (~0.7 s, against stages of about a
        # second); callers fork with no thread of their own running, so
        # the fork copies no lock such a thread could hold
        mp_context=multiprocessing.get_context("fork"),
        initializer=_init_worker,
        initargs=(initializer, *initargs),
    )
    return Pilot(
        Allocation(node_ids=[0], spec=NodeSpec(cpus=n, gpus=0), granted_at=0.0),
        executor,
        failure_policy="drop_and_continue",
        tracer=NULL_TRACER,
        keep_records=False,
    )


class _OrderedJobs(TaskSource):
    """:func:`run_in_order`'s jobs as single-cpu tasks, placed in job order
    while fewer than ``window`` are placed but not yet handed back."""

    def __init__(
        self, stage: str, fn: Callable, jobs: Sequence[tuple[str, tuple]], window: int
    ) -> None:
        self.stage = stage
        self.fn = fn
        self.jobs = jobs
        self.window = window
        self.placed = 0  # jobs[:placed] have started
        self.yielded = 0  # jobs[:yielded] were handed back
        self.finished: dict[int, TaskRecord] = {}

    def place(self, start: StartFn, fits: FitsFn) -> None:
        while self.placed < len(self.jobs) and self.placed - self.yielded < self.window:
            if not fits(1, 0, 1):
                return
            name, args = self.jobs[self.placed]
            start(TaskSpec(
                name=name, fn=self.fn, args=args, cpus=1, stage=self.stage,
                uid=self.placed,
            ))
            self.placed += 1

    def completed(self, record: TaskRecord) -> None:
        self.finished[record.spec.uid] = record  # no retries: always final

    def has_pending(self) -> bool:
        return self.placed < len(self.jobs)


def run_in_order(
    stage: str,
    fn: Callable,
    jobs: Sequence[tuple[str, tuple]],
    workers: Callable[[], Pilot],
) -> Iterator[TaskRecord]:
    """Run ``fn(*args)`` per ``(name, args)`` job on workers; yield each
    job's final record in job order.

    The one way a stage runs on :func:`resident_pilot` workers.  A job's
    task is a single-cpu ``TaskSpec`` named ``name`` whose uid is the job's
    index (the process-wide uid counter never moves), so streams that
    share a pilot must run one after the other.  ``workers()`` is called,
    and may fork, only when the first job is placed: an empty job list,
    or a stream nobody advances, starts nothing.  At most
    2 × ``pilot.spec.cpus`` jobs are placed but not yet yielded, so
    memory does not grow with the job count.  A task that failed in a
    worker comes back as its ``FAILED`` record for the caller to judge;
    a worker process that died breaks the pool, and that raises one
    :class:`~repro.rct.fault.TaskFailedError` naming ``stage``, whether
    the break surfaced as a failed record or at a later submit.
    """
    if not jobs:
        return
    pilot = workers()
    source = _OrderedJobs(stage, fn, jobs, window=2 * pilot.spec.cpus)
    for uid in range(len(jobs)):
        try:
            while uid not in source.finished:
                pilot.step(source)  # a submit after the break raises
            record = source.finished.pop(uid)
            if record.state is TaskState.FAILED and record.error.startswith(
                BrokenProcessPool.__name__  # in flight when the pool broke
            ):
                raise BrokenProcessPool(record.error)
        except BrokenProcessPool as exc:
            raise TaskFailedError(f"{stage}: a worker process died: {exc}") from exc
        source.yielded += 1
        yield record
