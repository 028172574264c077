"""Pilot sharing: the invariants two campaigns on one pilot rely on.

Before the service, the pilot assumed exclusive ownership of its
cluster slots and uid space.  These tests pin the sharing contract:
duplicate in-flight uids are rejected (not silently double-counted),
queued work can be cancelled per-owner, spans carry tenant labels, and
utilization can be viewed per tenant.
"""

import pytest

from repro.rct.backends import create_executor
from repro.rct.cluster import Cluster, SUMMIT_NODE
from repro.rct.fault import FaultModel, RetryPolicy
from repro.rct.pilot import Pilot, QueueSource
from repro.rct.sched import PendingQueue
from repro.rct.task import TaskSpec
from repro.rct.utilization import UtilizationTracker


def make_pilot(n_nodes=1, **kwargs):
    executor = create_executor("sim", launch_overhead=0.5)
    allocation = Cluster(n_nodes, spec=SUMMIT_NODE).allocate(n_nodes, now=0.0)
    return Pilot(allocation, executor, **kwargs)


def task(uid, name="t", tenant="", duration=10.0, gpus=1):
    return TaskSpec(
        name=name, cpus=1, gpus=gpus, duration=duration, tenant=tenant, uid=uid
    )


def test_duplicate_inflight_uid_rejected():
    pilot = make_pilot()
    assert pilot.start_task(task(uid=1))
    with pytest.raises(ValueError, match="uid 1"):
        pilot.start_task(task(uid=1, name="imposter"))
    # ...but the uid is reusable once the first attempt finished
    pilot.wait_one()
    assert pilot.start_task(task(uid=1, name="again"))
    pilot.wait_one()


def test_cancel_pending_filters_by_owner():
    executor = create_executor(
        "sim", launch_overhead=0.5,
        fault_model=FaultModel(failure_rate=1.0, seed=0),
    )
    allocation = Cluster(1, spec=SUMMIT_NODE).allocate(1, now=0.0)
    pilot = Pilot(
        allocation, executor,
        retry=RetryPolicy(max_retries=3, backoff_base=1000.0, seed=0),
        failure_policy="drop_and_continue",
    )
    pilot.start_task(task(uid=100, tenant="a"))
    pilot.start_task(task(uid=200, tenant="b"))
    pilot.wait_one()
    pilot.wait_one()  # both attempts fail → both parked in backoff
    assert [t.uid for _, t, _ in pilot._retry_queue] == [100, 200]

    cancelled = pilot.cancel_pending(lambda t: t.tenant == "a")
    assert [t.uid for t in cancelled] == [100]
    assert [t.uid for _, t, _ in pilot._retry_queue] == [200]
    assert pilot.failures.n_dropped == 1
    # the survivor's retry is untouched and still re-drivable: one step
    # idles the clock to its eligibility, the next one starts it
    idle = QueueSource()
    assert pilot.step(idle) and executor.n_running == 0
    assert executor.now >= 1000.0
    assert pilot.step(idle)
    assert [(r.spec.uid, r.attempt) for r in pilot.records[2:]] == [(200, 1)]


def test_pending_queue_drop_where_keeps_order():
    pending = PendingQueue()
    for uid, tenant in [(1, "a"), (2, "b"), (3, "a"), (4, "b")]:
        pending.push(task(uid=uid, tenant=tenant))
    dropped = pending.drop_where(lambda t: t.tenant == "a")
    assert [t.uid for t in dropped] == [1, 3]
    started = []
    while True:
        t = pending.try_start_one(lambda _t: True, lambda *_shape: True)
        if t is None:
            break
        started.append(t.uid)
    assert started == [2, 4]


def test_pending_queue_try_start_one_pops_only_what_starts():
    pending = PendingQueue()
    pending.push(task(uid=1, name="first", gpus=4))
    pending.push(task(uid=2, name="second", gpus=1))

    # only the small shape "fits": its head starts even though the big
    # shape was submitted earlier, and the big one is never offered
    offered = []

    def start(t):
        offered.append(t.uid)
        return True

    started = pending.try_start_one(start, lambda cpus, gpus, nodes: gpus == 1)
    assert started is not None and started.uid == 2
    assert offered == [2]
    assert len(pending) == 1
    assert pending.try_start_one(lambda t: False, lambda *_shape: True) is None
    assert pending.try_start_one(start, lambda *_shape: False) is None
    assert offered == [2]
    assert len(pending) == 1


def test_spans_carry_tenant_only_when_set():
    pilot = make_pilot()
    pilot.start_task(task(uid=1, tenant="acme"))
    pilot.start_task(task(uid=2))  # tenant-less: single-campaign path
    pilot.wait_one()
    pilot.wait_one()
    spans = list(pilot.tracer.spans(category="pilot.task"))
    by_uid = {s.attrs["uid"]: s for s in spans}
    assert by_uid[1].attrs["tenant"] == "acme"
    assert "tenant" not in by_uid[2].attrs


def test_utilization_from_trace_filters_by_tenant():
    pilot = make_pilot()
    # equal durations → all three series cover the same window, so the
    # per-tenant busy fractions partition the whole-pilot one exactly
    pilot.start_task(task(uid=1, tenant="a", duration=100.0, gpus=2))
    pilot.start_task(task(uid=2, tenant="b", duration=100.0, gpus=1))
    pilot.wait_one()
    pilot.wait_one()
    spec = pilot.spec
    whole = UtilizationTracker.from_trace(pilot.tracer, spec.gpus, spec.cpus)
    only_a = UtilizationTracker.from_trace(
        pilot.tracer, spec.gpus, spec.cpus, tenant="a"
    )
    only_b = UtilizationTracker.from_trace(
        pilot.tracer, spec.gpus, spec.cpus, tenant="b"
    )
    # tenant views partition the busy integral; totals stay whole-machine
    total = whole.series()
    a = only_a.series()
    b = only_b.series()
    assert a.total_gpus == total.total_gpus
    busy = total.average_utilization()
    assert a.average_utilization() < busy
    assert b.average_utilization() < busy
    assert a.average_utilization() + b.average_utilization() == pytest.approx(
        busy, rel=0.05
    )
