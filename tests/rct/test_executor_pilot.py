"""Tests for executors and the pilot scheduling loop."""

import pytest

from repro.rct.cluster import Cluster, NodeSpec
from repro.rct.backends import SimExecutor, ThreadExecutor
from repro.rct.pilot import Pilot
from repro.rct.task import TaskRecord, TaskSpec, TaskState


def _pilot(n_nodes=4, spec=None, overhead=0.0):
    spec = spec or NodeSpec(cpus=4, gpus=2)
    cluster = Cluster(n_nodes, spec)
    return Pilot(cluster.allocate(n_nodes, 0.0), SimExecutor(overhead))


# ---------------------------------------------------------------- executors


def test_sim_executor_orders_completions_by_time():
    ex = SimExecutor(launch_overhead=0.0)
    slow = TaskRecord(spec=TaskSpec(duration=5.0))
    fast = TaskRecord(spec=TaskSpec(duration=1.0))
    ex.start(slow)
    ex.start(fast)
    assert ex.next_completion() is fast
    assert ex.now == 1.0
    assert ex.next_completion() is slow
    assert ex.now == 5.0


def test_sim_executor_charges_overhead():
    ex = SimExecutor(launch_overhead=0.5)
    rec = TaskRecord(spec=TaskSpec(duration=1.0))
    ex.start(rec)
    ex.next_completion()
    assert ex.now == pytest.approx(1.5)


def test_sim_executor_requires_duration():
    ex = SimExecutor()
    with pytest.raises(ValueError):
        ex.start(TaskRecord(spec=TaskSpec(fn=lambda: 1)))


def test_sim_executor_no_tasks_raises():
    with pytest.raises(RuntimeError):
        SimExecutor().next_completion()


def test_thread_executor_runs_real_functions():
    ex = ThreadExecutor(max_workers=2)
    rec = TaskRecord(spec=TaskSpec(fn=lambda x: x * 2, args=(21,)))
    ex.start(rec)
    done = ex.next_completion()
    assert done.result == 42
    assert done.state == TaskState.DONE
    assert done.wall_time >= 0
    ex.shutdown()


def test_thread_executor_captures_failures():
    ex = ThreadExecutor(max_workers=1)

    def boom():
        raise RuntimeError("kaput")

    rec = TaskRecord(spec=TaskSpec(fn=boom))
    ex.start(rec)
    done = ex.next_completion()
    assert done.state == TaskState.FAILED
    assert "kaput" in done.error
    ex.shutdown()


def test_thread_executor_requires_fn():
    ex = ThreadExecutor()
    with pytest.raises(ValueError):
        ex.start(TaskRecord(spec=TaskSpec(duration=1.0)))
    ex.shutdown()


# -------------------------------------------------------------------- pilot


def test_pilot_runs_everything():
    pilot = _pilot()
    tasks = [TaskSpec(gpus=1, duration=1.0) for _ in range(20)]
    records = pilot.run(tasks)
    assert len(records) == 20
    assert all(r.state == TaskState.DONE for r in records)


def test_pilot_respects_slot_limits():
    """8 GPU slots, 1s tasks: 20 tasks need ceil(20/8)=3 waves."""
    pilot = _pilot(n_nodes=4)  # 4 nodes × 2 gpus
    tasks = [TaskSpec(gpus=1, duration=1.0) for _ in range(20)]
    pilot.run(tasks)
    assert pilot.executor.now == pytest.approx(3.0)


def test_pilot_packs_cpu_and_gpu_tasks_together():
    """CPU-only and GPU tasks share nodes — heterogeneous mixing."""
    pilot = _pilot(n_nodes=1)  # 4 cpus, 2 gpus
    tasks = [
        TaskSpec(cpus=2, gpus=0, duration=1.0),
        TaskSpec(cpus=2, gpus=0, duration=1.0),
        TaskSpec(cpus=0, gpus=2, duration=1.0),
    ]
    # all three fit at once (cpus 2+2 <= 4, gpus 2 <= 2)
    pilot.run(tasks)
    assert pilot.executor.now == pytest.approx(1.0)


def test_pilot_multi_node_task_needs_free_nodes():
    pilot = _pilot(n_nodes=3)
    tasks = [
        TaskSpec(nodes=2, cpus=4, gpus=2, duration=2.0, name="mpi"),
        TaskSpec(gpus=1, duration=1.0),
    ]
    records = pilot.run(tasks)
    mpi = [r for r in records if r.spec.name == "mpi"][0]
    assert len(mpi.node_ids) == 2


def test_pilot_oversized_task_rejected():
    pilot = _pilot()
    with pytest.raises(ValueError, match="more than one node"):
        pilot.run([TaskSpec(gpus=99, duration=1.0)])


def test_pilot_too_many_nodes_rejected():
    pilot = _pilot(n_nodes=2)
    with pytest.raises(ValueError, match="nodes"):
        pilot.run([TaskSpec(nodes=5, duration=1.0)])


def test_pilot_backfills_when_node_frees():
    """10,000-tasks-1000-nodes semantics at toy scale: tasks start as
    slots free, preserving full occupancy until the tail."""
    pilot = _pilot(n_nodes=2)  # 4 gpu slots
    tasks = [TaskSpec(gpus=1, duration=d) for d in (4.0, 1.0, 1.0, 1.0, 1.0)]
    pilot.run(tasks)
    # 4 slots: three 1s tasks finish, 5th backfills at t=1, ends t=2;
    # makespan set by the 4s task
    assert pilot.executor.now == pytest.approx(4.0)
    util = pilot.utilization.series().average_utilization()
    assert util == pytest.approx(8.0 / 16.0)  # 8 gpu-seconds over 4s × 4 slots


def test_pilot_node_hours_accounting():
    pilot = _pilot(n_nodes=2, spec=NodeSpec(cpus=4, gpus=2))
    pilot.run([TaskSpec(gpus=2, cpus=0, duration=3600.0)])
    assert pilot.node_hours() == pytest.approx(1.0)


def test_pilot_thread_backend_end_to_end():
    cluster = Cluster(2, NodeSpec(cpus=2, gpus=0))
    ex = ThreadExecutor(max_workers=4)
    pilot = Pilot(cluster.allocate(2, 0.0), ex)
    tasks = [TaskSpec(cpus=1, fn=lambda i=i: i * i) for i in range(8)]
    records = pilot.run(tasks)
    assert sorted(r.result for r in records) == [i * i for i in range(8)]
    ex.shutdown()


def test_multiple_concurrent_pilots_share_cluster():
    """§6.1.2: 'multiple concurrent pilots are used to isolate the
    docking computation' — one cluster can host several allocations."""
    cluster = Cluster(6, NodeSpec(cpus=4, gpus=2))
    a = Pilot(cluster.allocate(3, 0.0), SimExecutor(0.0))
    b = Pilot(cluster.allocate(3, 0.0), SimExecutor(0.0))
    with pytest.raises(RuntimeError):
        cluster.allocate(1, 0.0)  # the two pilots hold every node
    assert set(a.allocation.node_ids).isdisjoint(b.allocation.node_ids)
    ra = a.run([TaskSpec(gpus=1, duration=1.0) for _ in range(6)])
    rb = b.run([TaskSpec(gpus=1, duration=2.0) for _ in range(6)])
    assert len(ra) == 6 and len(rb) == 6
    assert a.executor.now == pytest.approx(1.0)
    assert b.executor.now == pytest.approx(2.0)


def test_pilot_continues_past_failed_tasks():
    """A failing task frees its slots and the workload completes."""
    cluster = Cluster(1, NodeSpec(cpus=2, gpus=0))
    ex = ThreadExecutor(max_workers=2)
    pilot = Pilot(cluster.allocate(1, 0.0), ex)

    def boom():
        raise RuntimeError("task crashed")

    tasks = [TaskSpec(cpus=1, fn=boom)] + [
        TaskSpec(cpus=1, fn=lambda i=i: i) for i in range(5)
    ]
    records = pilot.run(tasks)
    states = [r.state for r in records]
    assert states.count(TaskState.FAILED) == 1
    assert states.count(TaskState.DONE) == 5
    ex.shutdown()


def test_pilot_failed_task_never_counted_as_done():
    """Regression: a FAILED record must surface in the results AND the
    failure ledger — never flow downstream as if it succeeded."""
    cluster = Cluster(1, NodeSpec(cpus=2, gpus=0))

    def boom():
        raise RuntimeError("task crashed")

    with Pilot(cluster.allocate(1, 0.0), ThreadExecutor(max_workers=2)) as pilot:
        records = pilot.run(
            [TaskSpec(cpus=1, fn=boom, stage="S1")]
            + [TaskSpec(cpus=1, fn=lambda: 42, stage="S1") for _ in range(3)]
        )
    failed = [r for r in records if r.state is TaskState.FAILED]
    assert len(failed) == 1
    assert failed[0].result is None and "task crashed" in failed[0].error
    assert pilot.failures.n_dropped == 1
    assert pilot.failures.dropped_by_stage == {"S1": 1}
    assert pilot.failures.reconciles()


def test_pilot_multi_node_per_node_overcommit_rejected():
    """Regression: a multi-node task whose per-node cpus/gpus exceed the
    node spec must fail validation, not surface later as a misleading
    'deadlock' RuntimeError."""
    pilot = _pilot(n_nodes=4)  # nodes hold 4 cpus / 2 gpus
    bad = TaskSpec(nodes=2, cpus=8, gpus=2, duration=1.0)
    with pytest.raises(ValueError, match="per node"):
        pilot.run([bad])
    with pytest.raises(ValueError, match="per node"):
        pilot.validate_fits(TaskSpec(nodes=3, cpus=4, gpus=99, duration=1.0))
