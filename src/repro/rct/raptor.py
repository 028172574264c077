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

The simulated backend reproduces the queueing behaviour (near-linear
scaling until masters saturate); the callable backend runs real Python
functions on threads with the same bulk semantics.

Both backends honor the fault layer: the simulation injects seeded
failures via :class:`~repro.rct.fault.FaultModel` and both re-drive
failed items under a :class:`~repro.rct.fault.RetryPolicy`, reporting
every drop through :attr:`RaptorResult.failed_indices` and a
:class:`~repro.rct.fault.FailureSummary` — a failed docking call is
never left masquerading as a score.
"""

from __future__ import annotations

import heapq
import itertools
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.rct.fault import FailureSummary, FaultDraws, FaultModel, RetryPolicy
from repro.telemetry import NULL_TRACER, Tracer
from repro.util.config import FrozenConfig, validate_positive
from repro.util.timer import WallClock

__all__ = [
    "RaptorConfig",
    "RaptorResult",
    "simulate_raptor",
    "run_raptor",
    "dock_library_raptor",
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
        if self.dispatch_overhead < 0:
            raise ValueError("dispatch_overhead must be non-negative")
        if self.n_masters > self.n_workers:
            raise ValueError("more masters than workers is wasteful; reduce n_masters")


@dataclass
class RaptorResult:
    """Outcome of one RAPTOR run."""

    makespan: float  # seconds (virtual or wall)
    n_items: int
    worker_busy: np.ndarray  # (n_workers,) busy seconds
    master_busy: np.ndarray  # (n_masters,) dispatch seconds
    results: list | None = None  # callable backend only
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
    if (durations < 0).any():
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


def run_raptor(
    items: Sequence,
    fn: Callable,
    config: RaptorConfig,
    retry: RetryPolicy | None = None,
    clock: WallClock | None = None,
    tracer: Tracer | None = None,
) -> RaptorResult:
    """Real execution: apply ``fn`` to every item with bulk semantics.

    Workers are threads; results are returned in item order.  This is
    the backend the campaign uses to RAPTOR-ize real docking calls.

    A raising item is retried per ``retry``; the policy's backoff is
    *charged to the failure ledger* (``time_lost_backoff``) but never
    slept — sleeping inside a worker would stall the bulk's pool slot
    for the whole backoff and inflate the wall-clock makespan of
    retry-heavy runs (transient in-process failures also gain nothing
    from waiting).  Once retries are exhausted, the item's slot in
    ``results`` holds the exception object and its index lands in
    :attr:`RaptorResult.failed_indices`, so failures are never
    indistinguishable from legitimate return values.  Per-attempt
    timeouts are not enforced here: a thread cannot be killed mid-call
    (use the pilot's thread backend for abandonable tasks).

    Attempt timing comes from the injected ``clock`` (default
    :class:`~repro.util.timer.WallClock`); with a ``tracer``, each
    attempt is recorded as a ``raptor.exec`` span (error status on
    raising items) — ``record_span`` is thread-safe, so worker threads
    report directly.
    """
    items = list(items)
    if not items:
        raise ValueError("no items to run")
    if clock is None:
        clock = WallClock()
    if tracer is None:
        tracer = NULL_TRACER
    cfg = config
    master_queues = _partition_round_robin(len(items), cfg.n_masters)
    bulks: list[list[int]] = []
    for queue in master_queues:
        for start in range(0, len(queue), cfg.bulk_size):
            bulks.append(queue[start : start + cfg.bulk_size])

    results: list = [None] * len(items)
    summary = FailureSummary()
    failed_indices: list[int] = []
    ledger_lock = threading.Lock()

    # per-thread busy accounting: pool threads each accumulate into their
    # own cell (registered on first use), merged after the pool closes —
    # the shared-array `+=` it replaces raced across threads and indexed
    # by bulk number rather than executing thread
    tls = threading.local()
    busy_cells: list[list[float]] = []

    def busy_cell() -> list[float]:
        cell = getattr(tls, "cell", None)
        if cell is None:
            cell = tls.cell = [0.0]
            with ledger_lock:
                busy_cells.append(cell)
        return cell

    def run_item(i: int) -> None:
        attempt = 0
        while True:
            t0 = clock.now()
            try:
                result = fn(items[i])
            except Exception as exc:  # noqa: BLE001 - task isolation: one
                # failing item must not sink its bulk (RP "isolates the
                # execution of each task")
                t1 = clock.now()
                elapsed = t1 - t0
                busy_cell()[0] += elapsed
                with ledger_lock:
                    summary.record_failure(elapsed)
                will_retry = retry is not None and retry.should_retry(attempt)
                if tracer.enabled:
                    tracer.record_span(
                        f"item:{i}",
                        start=t0,
                        end=t1,
                        category="raptor.exec",
                        attrs={
                            "item": i,
                            "attempt": attempt,
                            "retried": will_retry,
                            "dropped": not will_retry,
                        },
                        status="error",
                        error=f"{type(exc).__name__}: {exc}",
                    )
                if will_retry:
                    backoff = retry.backoff(i, attempt)
                    with ledger_lock:
                        summary.record_retry(backoff)
                    if tracer.enabled:
                        tracer.record_span(
                            f"backoff:{i}",
                            start=t1,
                            end=t1 + backoff,
                            category="raptor.backoff",
                            attrs={"item": i, "attempt": attempt, "seconds": backoff},
                        )
                    attempt += 1
                    continue
                results[i] = exc
                with ledger_lock:
                    summary.record_drop(_STAGE)
                    failed_indices.append(i)
                return
            t1 = clock.now()
            busy_cell()[0] += t1 - t0
            if tracer.enabled:
                tracer.record_span(
                    f"item:{i}",
                    start=t0,
                    end=t1,
                    category="raptor.exec",
                    attrs={"item": i, "attempt": attempt},
                )
            results[i] = result
            with ledger_lock:
                summary.record_success(attempt)
            return

    def run_bulk(bulk: list[int]) -> None:
        for i in bulk:
            run_item(i)

    t_start = clock.now()
    with ThreadPoolExecutor(max_workers=cfg.n_workers) as pool:
        list(pool.map(run_bulk, bulks))
    makespan = clock.now() - t_start
    worker_busy = np.zeros(cfg.n_workers)
    for slot, cell in enumerate(busy_cells):
        worker_busy[slot] = cell[0]
    return RaptorResult(
        makespan=makespan,
        n_items=len(items),
        worker_busy=worker_busy,
        master_busy=np.zeros(cfg.n_masters),
        results=results,
        failed_indices=sorted(failed_indices),
        failure_summary=summary,
    )


def dock_library_raptor(
    engine,
    library,
    config: RaptorConfig,
    shard_size: int = 16,
    retry: RetryPolicy | None = None,
    limit: int | None = None,
    tracer: Tracer | None = None,
) -> RaptorResult:
    """RAPTOR-ize a library screen over fused multi-ligand shards.

    The library is cut into contiguous shards of ``shard_size`` compounds;
    each shard is one RAPTOR item executed by
    ``engine.dock_entries(shard)`` — so every worker
    amortizes kernel launches across its whole shard instead of paying
    per-ligand dispatch (the AutoDock-GPU batching argument applied to
    the overlay's work unit).  Per-compound determinism makes the shard
    cut invisible in the results: scores, poses and ``n_evals`` are
    identical to ``engine.dock_library`` whatever ``shard_size``.

    Returns a :class:`RaptorResult` whose ``results`` list is flattened
    back to library order (one :class:`~repro.docking.engine.DockingResult`
    per compound; a failed shard's compounds hold the exception object)
    and whose ``failed_indices`` are *compound* indices.  Engine eval
    counters are updated once, after the pool has drained — worker
    threads never touch shared engine state.
    """
    n = len(library) if limit is None else min(limit, len(library))
    if n == 0:
        raise ValueError("no compounds to dock")
    entries = [(library[i].smiles, library[i].compound_id) for i in range(n)]
    shards = [
        entries[start : start + shard_size]
        for start in range(0, n, shard_size)
    ]

    if tracer is None:
        tracer = getattr(engine, "tracer", None)
    outcome = run_raptor(
        shards,
        engine.dock_entries,
        config,
        retry=retry,
        tracer=tracer,
    )

    flat: list = []
    failed_compounds: list[int] = []
    offsets = [0]
    for shard in shards:
        offsets.append(offsets[-1] + len(shard))
    for si, shard_result in enumerate(outcome.results or []):
        if isinstance(shard_result, Exception):
            flat.extend([shard_result] * len(shards[si]))
            failed_compounds.extend(range(offsets[si], offsets[si + 1]))
        else:
            flat.extend(shard_result)
            engine._account(shard_result)
    return RaptorResult(
        makespan=outcome.makespan,
        n_items=n,
        worker_busy=outcome.worker_busy,
        master_busy=outcome.master_busy,
        results=flat,
        failed_indices=failed_compounds,
        failure_summary=outcome.failure_summary,
    )
