"""The multi-tenant campaign manager.

One shared pilot, many tenants' campaigns.  The manager decomposes each
submission into stage work units (:mod:`repro.service.work`), prices
their simulated cost, and drives everything over the pilot's virtual
clock with deterministic fair-share scheduling
(:mod:`repro.service.sched`), per-tenant quotas, and live
submit/cancel.

There is no drive loop here: the manager is a
:class:`~repro.rct.pilot.TaskSource` — the tenant-aware sibling of the
flat list under ``Pilot.run`` and the pipelines under
:class:`~repro.rct.entk.AppManager` — and every round is one
:meth:`Pilot.step <repro.rct.pilot.Pilot.step>`, which owns retries,
idling and the deadlock rule.  The manager

1. applies due commands at the round boundary (scripted events at
   virtual times, or live asyncio submits/cancels in arrival order);
2. ``place``: advances the submissions that just joined or whose
   current unit's tasks all finished — run its science, checkpoint,
   build the next unit — then, while the pilot's exact placement probe
   (:attr:`Pilot.fits_now <repro.rct.pilot.Pilot.fits_now>`) says some
   candidate's queued shape fits, picks the fair-share winner among
   tenants with backlog and quota headroom, grants it one placement and
   charges its node-seconds to the tenant's stride pass; a tenant none
   of whose shapes fits is set aside for the rest of the pass
   (resources only shrink within a pass).  ``start`` is called once per
   grant and never fails;
3. ``completed``: attributes the finished attempt to its submission —
   :class:`~repro.rct.fault.FailureSummary`, node-seconds, the budget
   check (the attempts themselves are in the pilot's log);
4. ``next_wakeup``: names the next scripted event for an idle clock.

**Determinism contract.**  A fixed submission script + seed yields
bit-identical per-tenant results and byte-identical exported traces,
regardless of how tenants interleave: the loop is single-threaded over
a virtual clock, every tie-break is total (join order), task uids live
in per-submission namespaces (so fault draws never shift with arrival
order), and all science randomness flows from each submission's own
seed.  Each tenant's results are bit-identical to running its campaign
alone — contention changes *when* work runs, never *what* it computes.
"""

from __future__ import annotations

import hashlib
import heapq
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterator

from repro.rct.fault import FailureSummary, TaskFailedError
from repro.rct.pilot import FitsFn, Pilot, StartFn, TaskSource
from repro.rct.sched import PendingQueue
from repro.rct.task import TaskRecord, TaskSpec, TaskState
from repro.service.sched import StrideScheduler
from repro.service.tenant import SUBMISSION_STATES, Tenant
from repro.service.work import WorkContext, WorkSource, WorkUnit
from repro.util.log import get_logger

__all__ = ["CampaignManager", "Submission"]

_log = get_logger("service.manager")

#: uids per submission namespace; bases are 22 bits so every uid fits
#: the task log's signed-64-bit columns
_UID_SPACE = 1 << 40


def _uid_base(sid: str) -> int:
    """Deterministic uid namespace base for a submission id."""
    digest = hashlib.sha256(sid.encode("utf-8")).digest()
    return (int.from_bytes(digest[:8], "big") % (1 << 22)) * _UID_SPACE


@dataclass
class Submission:
    """One tenant's campaign riding the shared substrate."""

    sid: str  # "{tenant}/{name}", unique
    tenant: Tenant
    name: str
    work: WorkSource
    join_seq: int
    state: str = "queued"
    error: str | None = None
    units_done: int = 0
    n_tasks_done: int = 0
    node_seconds: float = 0.0
    failures: FailureSummary = field(default_factory=FailureSummary)
    # -- drive-loop internals --
    _units: Iterator[WorkUnit] | None = None
    _current: WorkUnit | None = None
    _pending: PendingQueue = field(default_factory=PendingQueue)
    _inflight: set = field(default_factory=set)
    _next_uid: int = 0
    _uid_base: int = 0

    @property
    def active(self) -> bool:
        """Still producing or awaiting work (not in a terminal state)."""
        return self.state in ("queued", "running")


def _any_fits(
    candidates: dict[str, list[Submission]], fits: Callable[[int, int, int], bool]
) -> bool:
    """Whether any candidate submission has a queued shape that fits.

    Candidates mostly queue the same shapes, so a shape just rejected is
    not probed again for the next one.
    """
    rejected = None
    for subs in candidates.values():
        for sub in subs:
            for shape in sub._pending.shapes:
                if shape != rejected:
                    if fits(*shape):
                        return True
                    rejected = shape
    return False


class CampaignManager(TaskSource):
    """Drive many tenants' campaigns over one shared pilot."""

    def __init__(self, pilot: Pilot, preempt_bound: int = 8) -> None:
        self.pilot = pilot
        #: the pilot's node shape, fixed for its lifetime
        self._spec = pilot.spec
        self.sched = StrideScheduler(preempt_bound=preempt_bound)
        self._subs: dict[str, Submission] = {}
        self._by_base: dict[int, Submission] = {}
        self._join_seq = 0
        #: live commands (op, payload) drained at loop boundaries in
        #: arrival order — the asyncio submit/cancel entry point
        self._commands: deque = deque()
        #: scripted events, a heap on (at, seq, op, payload); (at, seq)
        #: is unique, so the heap order is the (at, seq) order
        self._events: list[tuple[float, int, str, dict]] = []
        self._event_seq = 0
        #: submissions to advance at the next ``place``: those that just
        #: joined or whose current unit just drained — for every other
        #: submission ``_advance`` would return at once
        self._ready: list[Submission] = []
        #: placed-or-retrying tasks per tenant: the sum of its
        #: submissions' ``_inflight`` sizes, kept as they change
        self._tenant_busy: dict[str, int] = {}
        #: ``max_concurrent_tasks`` per tenant (``None``: unlimited)
        self._limit: dict[str, int | None] = {}

    # ----------------------------------------------------------- public API
    def submit(self, tenant: Tenant, name: str, work: WorkSource) -> str:
        """Register a submission; returns its id.  Takes effect now."""
        sid = f"{tenant.name}/{name}"
        if sid in self._subs:
            raise ValueError(f"submission {sid!r} already exists")
        base = _uid_base(sid)
        other = self._by_base.get(base)
        if other is not None:
            raise ValueError(
                f"uid namespace collision between {sid!r} and {other.sid!r}; "
                "rename one submission"
            )
        for existing in self._subs.values():
            if existing.tenant.name == tenant.name and existing.tenant != tenant:
                raise ValueError(
                    f"tenant {tenant.name!r} resubmitted with a different "
                    "weight/priority/quota; tenants are immutable per run"
                )
        sub = Submission(
            sid=sid,
            tenant=tenant,
            name=name,
            work=work,
            join_seq=self._join_seq,
        )
        sub._uid_base = base
        self._join_seq += 1
        self._subs[sid] = sub
        self._by_base[base] = sub
        self._ready.append(sub)
        self._tenant_busy.setdefault(tenant.name, 0)
        self._limit[tenant.name] = tenant.quota.max_concurrent_tasks
        if tenant.name not in self.sched:
            self.sched.add(tenant.name, weight=tenant.weight, priority=tenant.priority)
        _log.info("submission %s accepted (weight=%d)", sid, tenant.weight)
        return sid

    def cancel(self, sid: str) -> None:
        """Cancel a submission: queued work is dropped, running tasks
        finish (bounded preemption never revokes a placement), and any
        checkpoints the submission wrote remain resumable."""
        sub = self._subs[sid]
        if not sub.active:
            return
        n_queued = len(sub._pending)
        self._drop_unstarted(sub)
        sub.state = "cancelled"
        sub.error = None
        self._retire_tenant_if_idle(sub.tenant.name)
        _log.info("submission %s cancelled (%d queued tasks dropped)", sid, n_queued)

    def status(self, sid: str | None = None) -> dict:
        """Live view: per-submission states, per-tenant accounting."""
        if sid is not None:
            return self._sub_status(self._subs[sid])
        tenants: dict[str, dict] = {}
        for sub in self._subs.values():
            t = tenants.setdefault(
                sub.tenant.name,
                {
                    "weight": sub.tenant.weight,
                    "priority": sub.tenant.priority,
                    "node_seconds": 0.0,
                    "n_tasks_done": 0,
                    "submissions": {},
                },
            )
            t["node_seconds"] += sub.node_seconds
            t["n_tasks_done"] += sub.n_tasks_done
            t["submissions"][sub.name] = self._sub_status(sub)
        shares = self.sched.shares()
        for name, t in tenants.items():
            t["share"] = shares.get(name, 0.0)
        return {"now": self.pilot.executor.now, "tenants": tenants}

    def result(self, sid: str) -> object:
        """The submission's science output (its work source's result)."""
        return self._subs[sid].work.result()

    def result_digest(self, sid: str) -> str:
        """Digest of the submission's deterministic observables."""
        return self._subs[sid].work.result_digest()

    def _sub_status(self, sub: Submission) -> dict:
        assert sub.state in SUBMISSION_STATES
        out = {
            "state": sub.state,
            "units_done": sub.units_done,
            "n_tasks_done": sub.n_tasks_done,
            "node_seconds": sub.node_seconds,
            "n_pending": len(sub._pending),
            "n_inflight": len(sub._inflight),
            "failures": sub.failures.summary(),
        }
        if sub.error:
            out["error"] = sub.error
        return out

    # ------------------------------------------------------ scripted events
    def at(self, time: float, op: str, **payload) -> None:
        """Schedule a scripted ``submit``/``cancel`` at a virtual time.

        Events apply when the shared clock reaches ``time``; ties break
        by scheduling order.  This is what makes a scenario a pure
        function of its script: arrival is keyed to the virtual clock,
        not to wall-clock races.
        """
        if op not in ("submit", "cancel"):
            raise ValueError(f"unknown scripted op {op!r}")
        heapq.heappush(self._events, (time, self._event_seq, op, payload))
        self._event_seq += 1

    def _apply(self, op: str, payload: dict) -> None:
        if op == "submit":
            self.submit(payload["tenant"], payload["name"], payload["work"])
        elif op == "cancel":
            self.cancel(payload["sid"])

    def _drain_due(self) -> None:
        now = self.pilot.executor.now
        while self._events and self._events[0][0] <= now:
            _, _, op, payload = heapq.heappop(self._events)
            self._apply(op, payload)
        while self._commands:
            op, payload = self._commands.popleft()
            self._apply(op, payload)

    # ------------------------------------------------------------ advancing
    def _start_iterating(self, sub: Submission) -> None:
        ctx = WorkContext(
            tenant=sub.tenant.name,
            submission=sub.name,
            next_uid=lambda s=sub: self._draw_uid(s),
        )
        sub._units = sub.work.units(ctx)
        sub.state = "running"

    def _draw_uid(self, sub: Submission) -> int:
        uid = sub._uid_base + sub._next_uid
        sub._next_uid += 1
        if sub._next_uid >= _UID_SPACE:  # pragma: no cover - 2^40 tasks
            raise RuntimeError(f"submission {sub.sid} exhausted its uid space")
        return uid

    def _drop_unstarted(self, sub: Submission) -> None:
        """Drop a submission's backlog and its retries still in backoff
        (those will never complete, so they stop counting as in flight,
        and their failures move from retries to drops, as on the pilot's
        ledger); running attempts drain on their own."""
        sub._pending.drop_where(lambda _t: True)
        for task in self.pilot.cancel_pending(lambda t: self._owner(t.uid) is sub):
            sub.failures.cancel_retry(task.stage)
            self._settle(sub, task.uid)

    def _fail(self, sub: Submission, exc: Exception) -> None:
        sub.state = "failed"
        sub.error = f"{type(exc).__name__}: {exc}"
        self._drop_unstarted(sub)
        self._retire_tenant_if_idle(sub.tenant.name)
        _log.warning("submission %s failed: %s", sub.sid, sub.error)

    def _advance(self, sub: Submission) -> None:
        """Run science / fetch units until the submission has real work."""
        while sub.active:
            if sub._units is None:
                self._start_iterating(sub)
                assert sub._units is not None
            if sub._current is not None:
                if len(sub._pending) or sub._inflight:
                    return  # unit still paying its simulated cost
                try:
                    sub._current.run_science()
                except Exception as exc:  # noqa: BLE001 - tenant isolation
                    self._fail(sub, exc)
                    return
                sub.units_done += 1
                sub._current = None
            try:
                unit = next(sub._units)
            except StopIteration:
                sub.state = "done"
                self._retire_tenant_if_idle(sub.tenant.name)
                _log.info("submission %s done (%d units)", sub.sid, sub.units_done)
                return
            except Exception as exc:  # noqa: BLE001 - tenant isolation
                self._fail(sub, exc)
                return
            sub._current = unit
            try:
                for task in unit.tasks:
                    self.pilot.validate_fits(task)
            except ValueError as exc:
                self._fail(sub, exc)
                return
            for task in unit.tasks:
                sub._pending.push(task)
            if not unit.tasks:
                continue  # zero-cost unit (e.g. checkpoint fast-forward)
            return

    def _retire_tenant_if_idle(self, tenant_name: str) -> None:
        """Drop a tenant from the share ledger when nothing remains."""
        if any(
            s.active for s in self._subs.values() if s.tenant.name == tenant_name
        ):
            return
        self.sched.remove(tenant_name)

    # -- placement ---------------------------------------------------------
    def _task_cost(self, task: TaskSpec) -> float:
        """Node-seconds a task will occupy (the stride charge)."""
        spec = self._spec
        duration = task.duration or 0.0
        if task.nodes > 1:
            return duration * task.nodes
        fraction = max(
            task.gpus / spec.gpus if spec.gpus else 0.0,
            task.cpus / spec.cpus if spec.cpus else 0.0,
        )
        return duration * fraction

    def _settle(self, sub: Submission, uid: int) -> bool:
        """Take ``uid`` out of flight; ``False`` if it was not in flight."""
        if uid not in sub._inflight:
            return False
        sub._inflight.remove(uid)
        self._tenant_busy[sub.tenant.name] -= 1
        return True

    def place(self, start: StartFn, fits: FitsFn) -> None:
        """Advance ready submissions, then fair-share grants while some
        candidate's queued shape fits.

        The round costs what changed since the last one, and every
        shortcut below decides exactly as re-scanning everything would:

        * only submissions on the ready list are advanced (in join
          order): for any other, ``_advance`` returns at once;
        * the candidates (tenant → its submissions with backlog, in
          join order) are built once per pass: a grant changes only the
          winner's backlog and in-flight count, so only its entry is
          redone, and a picked tenant none of whose shapes fits leaves
          the pass;
        * before every pick the pilot's exact probe ``fits_now`` is
          asked about the candidates' queued shapes, and the pass ends
          when none fits: no grant, hence no ``commit`` and no aging,
          could follow.  A tenant that does not fit is not dropped
          before its own pick, because each ``commit`` ages every
          eligible lower-priority tenant;
        * a picked tenant's queue skips the shapes the probe rejects, so
          ``start`` is called once per grant and always places.  The
          probe pops only stale placer entries, and the placer's heaps
          keep every fitting node, so no later decision moves.

        ``_subs`` is filled with strictly increasing ``join_seq`` and
        never shrinks, so dict order is join order; ``pick``'s key ends
        in the unique join sequence and ``commit``'s aging does not
        depend on order, so the eligible list needs no sort.

        The retries the pilot re-drove just before bypass the share
        ledger and the concurrency quota — a retried task is the same
        work item; its claim was charged when it first started.
        """
        if self._ready:
            ready, self._ready = self._ready, []
            for sub in sorted(ready, key=lambda s: s.join_seq):
                self._advance(sub)
        busy, limits = self._tenant_busy, self._limit
        candidates: dict[str, list[Submission]] = {}
        for sub in self._subs.values():
            if sub._pending.shapes and sub.active:  # queued work
                name = sub.tenant.name
                limit = limits[name]
                if limit is None or busy[name] < limit:
                    candidates.setdefault(name, []).append(sub)
        while _any_fits(candidates, fits):
            eligible = list(candidates)
            winner = self.sched.pick(eligible)
            subs = candidates[winner]
            for sub in subs:
                started = sub._pending.try_start_one(start, fits)
                if started is not None:
                    break
            else:
                # nothing of this tenant's fits the free slots; within a
                # pass resources only shrink, so set it aside
                del candidates[winner]
                continue
            sub._inflight.add(started.uid)
            busy[winner] += 1
            self.sched.commit(winner, eligible, self._task_cost(started))
            limit = limits[winner]
            if limit is not None and busy[winner] >= limit:
                del candidates[winner]
            elif not sub._pending.shapes:
                subs.remove(sub)
                if not subs:
                    del candidates[winner]

    # -- completion --------------------------------------------------------
    def _owner(self, uid: int) -> Submission | None:
        return self._by_base.get((uid // _UID_SPACE) * _UID_SPACE)

    def completed(self, record: TaskRecord) -> None:
        """Charge one finished attempt to its owning submission."""
        uid = record.spec.uid
        # :meth:`_owner`, inlined: this runs once per finished attempt
        sub = self._by_base.get((uid // _UID_SPACE) * _UID_SPACE)
        if sub is None:  # pragma: no cover - foreign task on shared pilot
            return
        spec = self._spec
        sub.node_seconds += record.node_seconds(spec.gpus, spec.cpus)
        if record.state is TaskState.RETRYING:
            # the pilot re-queued it after the backoff it drew
            sub.failures.record_failure(record.wall_time, record.timed_out)
            sub.failures.record_retry(record.backoff)
        else:
            if record.state is TaskState.DONE:
                sub.failures.record_success(record.attempt)
            else:  # FAILED: retries exhausted, dropped by the pilot
                sub.failures.record_failure(record.wall_time, record.timed_out)
                sub.failures.record_drop(record.spec.stage)
            sub.n_tasks_done += 1
            if (
                self._settle(sub, uid)
                and sub.active
                and not sub._inflight
                and not len(sub._pending)
            ):
                self._ready.append(sub)  # its unit drained: advance it
        if sub.tenant.quota.node_seconds_budget is not None:
            self._check_budget(sub.tenant)

    def _check_budget(self, tenant: Tenant) -> None:
        budget = tenant.quota.node_seconds_budget
        # every submission's tenant is equal (``submit`` refuses a
        # changed one); the sum stays in join order, as a running total
        # would re-associate the floats and could move the cut-off
        subs = [s for s in self._subs.values() if s.tenant.name == tenant.name]
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
        self._retire_tenant_if_idle(tenant.name)

    # -- the loop ----------------------------------------------------------
    def has_pending(self) -> bool:
        """An active submission with nothing running is a deadlock."""
        return any(s.active for s in self._subs.values())

    def next_wakeup(self) -> float | None:
        """Virtual time of the next scripted event, if any."""
        return self._events[0][0] if self._events else None

    def _step(self) -> bool:
        """One scheduling round; returns False when fully quiescent."""
        self._drain_due()
        try:
            return self.pilot.step(self)
        except TaskFailedError as exc:
            # a fail_fast pilot (or an exceeded failure budget) raises
            # after the attempt was attributed; isolate the blast radius
            # to the owning tenant and keep serving the rest
            sub = None if exc.record is None else self._owner(exc.record.spec.uid)
            if sub is None:
                raise
            self._fail(sub, exc)
            return True

    def run_until_idle(self) -> dict:
        """Drive everything to a terminal state; returns :meth:`status`."""
        while self._step():
            pass
        return self.status()

    # ------------------------------------------------------------- asyncio
    async def submit_async(self, tenant: Tenant, name: str, work: WorkSource) -> str:
        """Enqueue a live submission; applied at the next loop boundary."""
        sid = f"{tenant.name}/{name}"
        self._commands.append(("submit", {"tenant": tenant, "name": name, "work": work}))
        return sid

    async def cancel_async(self, sid: str) -> None:
        """Enqueue a live cancellation; applied at the next loop boundary."""
        self._commands.append(("cancel", {"sid": sid}))

    async def serve(self) -> dict:
        """Asyncio drive loop: yields control every scheduling round.

        Runs until quiescent *and* no live commands are pending.  Pair
        with :meth:`submit_async`/:meth:`cancel_async` from concurrent
        coroutines; commands are drained at loop boundaries in arrival
        order, which keeps the schedule deterministic for a fixed
        arrival sequence.
        """
        import asyncio

        while True:
            progressed = self._step()
            await asyncio.sleep(0)
            if not progressed and not self._commands:
                return self.status()
