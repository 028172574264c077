"""Test-side reference for the service round: the re-scan placement.

Before placement became incremental, every round of
:class:`~repro.service.manager.CampaignManager` advanced *every*
submission, rebuilt the whole candidate set before each grant
attempt, re-summed each tenant's in-flight work for the quota check and
re-tried every queued shape of a picked tenant, already-failed ones
included; :class:`~repro.rct.sched.PendingQueue` merged a tenant's shape
heads through a fresh heap per attempt.  The bodies below are those
methods verbatim, save for keeping today's data structures (no
per-submission task log; an emptied shape queue is removed).  They live
here because their only job is to be the
reference the incremental round is checked against
(``tests/service/test_incremental.py``)::

    with pytest.MonkeyPatch.context() as mp:
        oracle.install(mp)
        ...  # every CampaignManager now runs the re-scan round
"""

from __future__ import annotations

import heapq

from repro.rct.pilot import StartFn
from repro.rct.sched import PendingQueue
from repro.rct.task import TaskRecord, TaskSpec, TaskState
from repro.service.manager import CampaignManager, Submission, _log


def try_start_one(self: PendingQueue, try_start) -> TaskSpec | None:
    """Start at most one task; a fresh heap of shape heads per call."""
    heads = [
        (queue[0][0], key) for key, queue in self._queues.items() if queue
    ]
    heapq.heapify(heads)
    while heads:
        _, key = heapq.heappop(heads)
        queue = self._queues[key]
        if try_start(queue[0][1]):
            task = queue.popleft()[1]
            if not queue:  # the queue keeps only shapes with tasks
                del self._queues[key]
            self._count -= 1
            return task
    return None


def _tenant_inflight(self: CampaignManager, tenant_name: str) -> int:
    return sum(
        len(s._inflight)
        for s in self._subs.values()
        if s.tenant.name == tenant_name
    )


def _has_headroom(self: CampaignManager, sub: Submission) -> bool:
    quota = sub.tenant.quota.max_concurrent_tasks
    if quota is None:
        return True
    return _tenant_inflight(self, sub.tenant.name) < quota


def place(self: CampaignManager, start: StartFn, fits) -> None:
    """Advance every submission, then re-scan candidates per grant."""
    for sub in sorted(self._subs.values(), key=lambda s: s.join_seq):
        if sub.active:
            self._advance(sub)
    blocked: set[str] = set()
    while True:
        candidates: dict[str, list[Submission]] = {}
        for sub in sorted(self._subs.values(), key=lambda s: s.join_seq):
            if not sub.active or not len(sub._pending):
                continue
            if sub.tenant.name in blocked or not _has_headroom(self, sub):
                continue
            candidates.setdefault(sub.tenant.name, []).append(sub)
        eligible = sorted(candidates)
        winner = self.sched.pick(eligible)
        if winner is None:
            return
        started: TaskSpec | None = None
        for sub in candidates[winner]:
            started = sub._pending.try_start_one(start)
            if started is not None:
                sub._inflight.add(started.uid)
                break
        if started is None:
            # nothing of this tenant's fits the free slots; within a
            # pass resources only shrink, so set it aside
            blocked.add(winner)
            continue
        self.sched.commit(winner, eligible, self._task_cost(started))


def completed(self: CampaignManager, record: TaskRecord) -> None:
    """Charge one finished attempt; re-draws a retry's backoff."""
    sub = self._owner(record.spec.uid)
    if sub is None:  # pragma: no cover - foreign task on shared pilot
        return
    spec = self.pilot.spec
    sub.node_seconds += record.node_seconds(spec.gpus, spec.cpus)
    if record.state is TaskState.DONE:
        sub.failures.record_success(record.attempt)
        sub.n_tasks_done += 1
        sub._inflight.discard(record.spec.uid)
    elif record.state is TaskState.RETRYING:
        # the pilot re-queued it; recompute the policy's backoff (a
        # pure function) instead of rescanning the pilot ledger
        assert self.pilot.retry is not None
        sub.failures.record_failure(record.wall_time, record.timed_out)
        sub.failures.record_retry(
            self.pilot.retry.backoff(record.spec.uid, record.attempt)
        )
    else:  # FAILED: retries exhausted, dropped by the pilot
        sub.failures.record_failure(record.wall_time, record.timed_out)
        sub.failures.record_drop(record.spec.stage)
        sub.n_tasks_done += 1
        sub._inflight.discard(record.spec.uid)
    self._check_budget(sub.tenant.name)


def _check_budget(self: CampaignManager, tenant_name: str) -> None:
    subs = [s for s in self._subs.values() if s.tenant.name == tenant_name]
    budget = subs[0].tenant.quota.node_seconds_budget
    if budget is None:
        return
    used = sum(s.node_seconds for s in subs)
    if used < budget:
        return
    for sub in subs:
        if sub.active:
            sub.state = "quota_exhausted"
            sub.error = (
                f"node-seconds budget exhausted: {used:.0f} >= {budget:.0f}"
            )
            self._drop_unstarted(sub)
            _log.warning("submission %s hit its budget", sub.sid)
    self._retire_tenant_if_idle(tenant_name)


def install(monkeypatch) -> None:
    """Route every CampaignManager through the re-scan round."""
    monkeypatch.setattr(PendingQueue, "try_start_one", try_start_one)
    for fn in (place, completed, _check_budget):
        monkeypatch.setattr(CampaignManager, fn.__name__, fn)
