"""RAPTOR: the RADICAL-Pilot Task OveRlay (master/worker, §6.1.2).

Docking tasks are far too short (~10⁻⁴ node-hours) to schedule one batch
job — or even one pilot task — each.  RAPTOR instead runs *masters* that
stream **bulks** of function calls to *workers*, with dynamic load
balancing: a worker that drains its bulk immediately requests the next.
The paper's three scalability levers are all modelled:

* "tasks are communicated in bulks as to limit the communication load
  and frequency" → ``bulk_size`` amortizes the per-dispatch overhead;
* "multiple master processes are used to limit the number of workers
  served by each master, avoiding respective bottlenecks" → each master
  is a serial dispatch server; workers are partitioned across masters;
* "round-robin … and dynamic load distribution" → items are dealt
  round-robin to masters, then pulled on demand by idle workers.

The simulation reproduces the queueing behaviour (near-linear scaling
until masters saturate).  Real RAPTOR-style work needs no second
runtime: it is sharded ``DockingEngine.dock_entries`` calls, run as
``TaskSpec(fn=engine.dock_entries, args=(shard,))`` on a
:class:`~repro.rct.pilot.Pilot` over a real backend when shards should
run concurrently.

The simulation honors the fault layer: it injects seeded failures via
:class:`~repro.rct.fault.FaultModel`, re-drives failed items under a
:class:`~repro.rct.fault.RetryPolicy`, and reports every drop through
:attr:`RaptorResult.failed_indices` and a
:class:`~repro.rct.fault.FailureSummary` — a failed docking call is
never left masquerading as a score.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.rct.fault import FailureSummary, FaultDraws, FaultModel, RetryPolicy
from repro.telemetry import NULL_TRACER, Tracer
from repro.util.config import FrozenConfig, validate_positive

__all__ = [
    "RaptorConfig",
    "RaptorResult",
    "simulate_raptor",
]

#: stage label used in failure ledgers
_STAGE = "raptor"


@dataclass(frozen=True)
class RaptorConfig(FrozenConfig):
    """Overlay shape."""

    n_workers: int
    n_masters: int = 1
    bulk_size: int = 16
    dispatch_overhead: float = 0.05  # seconds of master time per bulk

    def __post_init__(self) -> None:
        validate_positive("n_workers", self.n_workers)
        validate_positive("n_masters", self.n_masters)
        validate_positive("bulk_size", self.bulk_size)
        validate_positive("dispatch_overhead", self.dispatch_overhead, strict=False)
        if self.n_masters > self.n_workers:
            raise ValueError("more masters than workers is wasteful; reduce n_masters")


@dataclass
class RaptorResult:
    """Outcome of one RAPTOR run."""

    makespan: float  # virtual seconds
    n_items: int
    worker_busy: np.ndarray  # (n_workers,) busy seconds
    master_busy: np.ndarray  # (n_masters,) dispatch seconds
    failed_indices: list[int] = field(default_factory=list)
    # ^ items that permanently failed (retries exhausted or disabled)
    failure_summary: FailureSummary | None = None

    @property
    def n_failed(self) -> int:
        """Number of items that permanently failed."""
        return len(self.failed_indices)

    @property
    def throughput(self) -> float:
        """Items per second."""
        return self.n_items / self.makespan if self.makespan > 0 else 0.0

    @property
    def worker_utilization(self) -> float:
        """Mean busy fraction across workers."""
        if self.makespan <= 0:
            return 0.0
        return float(self.worker_busy.mean() / self.makespan)


def _partition_round_robin(n_items: int, n_masters: int) -> list[list[int]]:
    """Deal item indices to masters round-robin (the paper's strategy)."""
    return [list(range(m, n_items, n_masters)) for m in range(n_masters)]


def simulate_raptor(
    durations: Sequence[float],
    config: RaptorConfig,
    fault_model: FaultModel | None = None,
    retry: RetryPolicy | None = None,
    tracer: Tracer | None = None,
) -> RaptorResult:
    """Discrete-event simulation of a RAPTOR run.

    ``durations[i]`` is the execution time of item ``i`` (heterogeneous
    docking times — the long tail the paper's load balancing absorbs).
    With a ``fault_model``, attempts may crash/straggle/hang; failed
    items re-enter the queue after the ``retry`` policy's backoff (on the
    virtual clock) until retries are exhausted.

    With a ``tracer``, every master dispatch, item attempt, and retry
    backoff is recorded as a pre-timed span on the virtual clock
    (categories ``raptor.dispatch`` / ``raptor.exec`` /
    ``raptor.backoff``); failed attempts carry error status so the trace
    reconciles with the returned :class:`FailureSummary`.
    """
    if tracer is None:
        tracer = NULL_TRACER
    durations = np.asarray(durations, dtype=np.float64)
    if len(durations) == 0:
        raise ValueError("no items to run")
    if not (durations >= 0).all():
        raise ValueError("durations must be non-negative")
    timeout = retry.timeout if retry is not None else None
    if fault_model is not None and fault_model.hang_rate > 0 and timeout is None:
        raise ValueError(
            "hang_rate > 0 needs a RetryPolicy timeout to reap hung attempts"
        )
    n_items = len(durations)
    cfg = config
    # items are the fault draws' uids: first attempts come in bulk
    draws = FaultDraws(fault_model) if fault_model is not None else None

    # deal items to masters round-robin; masters serve bulks in order
    master_queues = _partition_round_robin(n_items, cfg.n_masters)
    master_next = [0] * cfg.n_masters  # next index into the master's list
    master_free_at = np.zeros(cfg.n_masters)
    master_busy = np.zeros(cfg.n_masters)

    # workers are partitioned evenly across masters
    worker_master = np.arange(cfg.n_workers) % cfg.n_masters
    worker_busy = np.zeros(cfg.n_workers)

    summary = FailureSummary()
    attempts: dict[int, int] = {}
    failed_indices: list[int] = []
    # failed items waiting out their backoff: (eligible_time, item)
    retry_heap: list[tuple[float, int]] = []

    def next_bulk(master: int) -> list[int]:
        queue = master_queues[master]
        start = master_next[master]
        if start >= len(queue):
            return []
        bulk = queue[start : start + cfg.bulk_size]
        master_next[master] += len(bulk)
        return bulk

    # event heap: (time, seq, worker)  — worker becomes idle at `time`
    heap: list[tuple[float, int, int]] = []
    seq = itertools.count()
    for w in range(cfg.n_workers):
        heapq.heappush(heap, (0.0, next(seq), w))

    makespan = 0.0
    while heap:
        now, _, worker = heapq.heappop(heap)
        master = int(worker_master[worker])
        bulk = next_bulk(master)
        if not bulk:
            # dynamic load balancing: an idle worker steals from the
            # most-loaded other master (the paper's "dynamic load
            # distribution which depends on the load of the individual
            # workers")
            remaining = [
                len(master_queues[m]) - master_next[m]
                for m in range(cfg.n_masters)
            ]
            donor = int(np.argmax(remaining))
            if remaining[donor] > 0:
                master = donor
                bulk = next_bulk(master)
            else:
                # nothing queued anywhere: drain the retry backlog
                while retry_heap and retry_heap[0][0] <= now and len(bulk) < cfg.bulk_size:
                    bulk.append(heapq.heappop(retry_heap)[1])
                if not bulk:
                    if retry_heap:
                        # all failed work is in backoff; sleep to the
                        # earliest eligibility and look again
                        heapq.heappush(
                            heap, (max(now, retry_heap[0][0]), next(seq), worker)
                        )
                        continue
                    makespan = max(makespan, now)
                    continue
        # master dispatch: serial per master, costs dispatch_overhead;
        # stolen bulks charge the donor master (it served the request)
        dispatch_start = max(now, master_free_at[master])
        dispatch_end = dispatch_start + cfg.dispatch_overhead
        master_free_at[master] = dispatch_end
        master_busy[master] += cfg.dispatch_overhead
        if tracer.enabled:
            tracer.record_span(
                f"dispatch:m{master}",
                start=dispatch_start,
                end=dispatch_end,
                category="raptor.dispatch",
                attrs={"master": master, "worker": worker, "n_items": len(bulk)},
            )
        work = 0.0
        for i in bulk:
            attempt = attempts.get(i, 0)
            if draws is None:
                busy = float(durations[i])
                if timeout is not None and busy > timeout:
                    busy, failed, timed_out = timeout, True, True
                else:
                    failed = timed_out = False
            else:
                outcome = draws.draw(i, attempt, float(durations[i]))
                busy, failed = outcome.busy, outcome.failed
                timed_out = False
                if timeout is not None and busy > timeout:
                    busy, failed, timed_out = timeout, True, True
            item_end = dispatch_end + work + busy
            work += busy
            if not failed:
                if tracer.enabled:
                    tracer.record_span(
                        f"item:{i}",
                        start=item_end - busy,
                        end=item_end,
                        category="raptor.exec",
                        attrs={"item": i, "attempt": attempt, "worker": worker},
                    )
                summary.record_success(attempt)
                continue
            summary.record_failure(busy, timed_out)
            will_retry = retry is not None and retry.should_retry(attempt)
            if tracer.enabled:
                tracer.record_span(
                    f"item:{i}",
                    start=item_end - busy,
                    end=item_end,
                    category="raptor.exec",
                    attrs={
                        "item": i,
                        "attempt": attempt,
                        "worker": worker,
                        "timed_out": timed_out,
                        "retried": will_retry,
                        "dropped": not will_retry,
                    },
                    status="error",
                    error=f"injected failure (attempt {attempt})"
                    if not timed_out
                    else f"timeout after {timeout}s (attempt {attempt})",
                )
            if will_retry:
                backoff = retry.backoff(i, attempt)
                summary.record_retry(backoff)
                if tracer.enabled:
                    tracer.record_span(
                        f"backoff:{i}",
                        start=item_end,
                        end=item_end + backoff,
                        category="raptor.backoff",
                        attrs={"item": i, "attempt": attempt, "seconds": backoff},
                    )
                attempts[i] = attempt + 1
                heapq.heappush(retry_heap, (item_end + backoff, i))
            else:
                summary.record_drop(_STAGE)
                failed_indices.append(i)
        finish = dispatch_end + work
        worker_busy[worker] += work
        makespan = max(makespan, finish)
        heapq.heappush(heap, (finish, next(seq), worker))

    return RaptorResult(
        makespan=makespan,
        n_items=n_items,
        worker_busy=worker_busy,
        master_busy=master_busy,
        failed_indices=sorted(failed_indices),
        failure_summary=summary,
    )

