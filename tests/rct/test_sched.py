"""Tests for the placer, the pending queue, the task log and the
determinism contract between the indexed scheduler and its test-side
reference (``tests/rct/oracle.py``)."""

import numpy as np
import pytest

from repro.rct.backends import SimExecutor
from repro.rct.cluster import Allocation, Cluster, NodeSpec
from repro.rct.fault import FaultModel, RetryPolicy
from repro.rct.pilot import Pilot
from repro.rct.sched import IndexedPlacer, PendingQueue
from repro.rct.task import TaskSpec, reset_uid_counter
from repro.rct.tasklog import TaskLog
from repro.telemetry import ExecutorClock, Tracer
from repro.telemetry.export import chrome_trace_json
from repro.util.rng import rng_stream

from tests.rct.oracle import RescanSource, ScanPlacer, mixed_tasks

SPEC = NodeSpec(cpus=8, gpus=4)


# ------------------------------------------------------------------- placers


def _random_task(rng) -> TaskSpec:
    kind = rng.random()
    if kind < 0.15:
        return TaskSpec(nodes=int(rng.integers(2, 5)), cpus=SPEC.cpus,
                        gpus=SPEC.gpus, duration=1.0)
    if kind < 0.45:
        return TaskSpec(cpus=int(rng.integers(1, 5)), gpus=0, duration=1.0)
    return TaskSpec(cpus=1, gpus=int(rng.integers(1, 3)), duration=1.0)


def test_indexed_placer_matches_scan_placer_fuzz():
    """The hard contract: for any interleaving of placements and
    releases, the indexed placer picks exactly the nodes the reference
    scan would — same ids, same order, same free maps throughout."""
    rng = rng_stream(7, "test.placer-fuzz")
    for n_nodes in (1, 3, 16):
        scan = ScanPlacer(n_nodes, SPEC)
        indexed = IndexedPlacer(n_nodes, SPEC)
        live: list = []
        for _ in range(600):
            if live and rng.random() < 0.4:
                slot = int(rng.integers(len(live)))
                a, b = live.pop(slot)
                scan.release(a)
                indexed.release(b)
            else:
                task = _random_task(rng)
                a = scan.try_place(task)
                b = indexed.try_place(task)
                if a is None or b is None:
                    assert a is None and b is None
                else:
                    assert a.node_ids == b.node_ids
                    assert (a.cpus, a.gpus) == (b.cpus, b.gpus)
                    live.append((a, b))
            np.testing.assert_array_equal(scan.free_cpus(), indexed.free_cpus())
            np.testing.assert_array_equal(scan.free_gpus(), indexed.free_gpus())


def _probe_shapes(rng) -> list[tuple[int, int, int]]:
    return [(t.cpus, t.gpus, t.nodes) for t in (_random_task(rng) for _ in range(4))] + [
        (SPEC.cpus, SPEC.gpus, 1), (1, SPEC.gpus + 1, 1), (SPEC.cpus + 1, 0, 2),
    ]


def test_fits_now_is_exact_and_moves_no_placement_fuzz():
    """``fits_now`` says yes iff the scan reference would place the shape
    now, and a placer probed before every step places exactly like one
    never probed."""
    rng = rng_stream(11, "test.placer-probe")
    for n_nodes in (1, 3, 16):
        scan = ScanPlacer(n_nodes, SPEC)
        probed = IndexedPlacer(n_nodes, SPEC)
        plain = IndexedPlacer(n_nodes, SPEC)
        live: list = []
        for _ in range(600):
            for cpus, gpus, nodes in _probe_shapes(rng):
                trial = ScanPlacer(n_nodes, SPEC)
                trial._free_cpus = scan.free_cpus()
                trial._free_gpus = scan.free_gpus()
                task = TaskSpec(cpus=cpus, gpus=gpus, nodes=nodes, duration=1.0)
                assert probed.fits_now(cpus, gpus, nodes) == (
                    trial.try_place(task) is not None
                )
            if live and rng.random() < 0.4:
                a, b, c = live.pop(int(rng.integers(len(live))))
                scan.release(a)
                probed.release(b)
                plain.release(c)
                continue
            task = _random_task(rng)
            placed = scan.try_place(task), probed.try_place(task), plain.try_place(task)
            if None in placed:
                assert placed == (None, None, None)
            else:
                assert placed[0].node_ids == placed[1].node_ids == placed[2].node_ids
                live.append(placed)
        np.testing.assert_array_equal(plain.free_cpus(), probed.free_cpus())
        np.testing.assert_array_equal(plain.free_gpus(), probed.free_gpus())


def test_indexed_placer_first_fit_lowest_index():
    placer = IndexedPlacer(4, SPEC)
    first = placer.try_place(TaskSpec(gpus=1, duration=1.0))
    second = placer.try_place(TaskSpec(gpus=1, duration=1.0))
    assert first.node_ids == [0] and second.node_ids == [0]
    placer.release(first)
    assert placer.try_place(TaskSpec(gpus=1, duration=1.0)).node_ids == [0]


def test_indexed_placer_multi_node_takes_fully_free_nodes():
    placer = IndexedPlacer(4, SPEC)
    sub = placer.try_place(TaskSpec(cpus=1, duration=1.0))  # dirties node 0
    mpi = placer.try_place(
        TaskSpec(nodes=3, cpus=SPEC.cpus, gpus=SPEC.gpus, duration=1.0)
    )
    assert mpi.node_ids == [1, 2, 3]
    # a second 2-node task cannot fit (node 0 is partially busy)
    assert placer.try_place(
        TaskSpec(nodes=2, cpus=SPEC.cpus, gpus=SPEC.gpus, duration=1.0)
    ) is None
    placer.release(sub)
    placer.release(mpi)
    again = placer.try_place(
        TaskSpec(nodes=4, cpus=SPEC.cpus, gpus=SPEC.gpus, duration=1.0)
    )
    assert again.node_ids == [0, 1, 2, 3]


# ------------------------------------------------------------- pending queue


def test_pending_queue_pops_in_global_submission_order():
    queue = PendingQueue()
    tasks = [TaskSpec(cpus=1 + i % 3, duration=1.0, name=f"t{i}")
             for i in range(12)]
    for t in tasks:
        queue.push(t)
    started: list[str] = []
    queue.submit_pass(lambda t: started.append(t.name) or True, lambda *shape: True)
    assert started == [t.name for t in tasks]
    assert len(queue) == 0


def test_pending_queue_drops_failed_shape_for_the_pass():
    """Once a shape fails to place, later tasks of that shape are not
    retried within the pass — but other shapes keep going, in order."""
    queue = PendingQueue()
    wide = [TaskSpec(cpus=4, duration=1.0, name=f"wide{i}") for i in range(3)]
    slim = [TaskSpec(cpus=1, duration=1.0, name=f"slim{i}") for i in range(3)]
    for w, s in zip(wide, slim):
        queue.push(w)
        queue.push(s)

    def try_start(task: TaskSpec) -> bool:
        return task.cpus == 1  # the wide shape never fits

    started: list[str] = []
    n = queue.submit_pass(
        lambda t: (try_start(t) and (started.append(t.name) or True)),
        lambda *shape: True,
    )
    assert n == 3
    assert started == ["slim0", "slim1", "slim2"]
    assert len(queue) == 3  # the wide tasks survive for the next pass


# ----------------------------------------------------------------- task log


def test_tasklog_accounting_matches_records():
    reset_uid_counter()
    cluster = Cluster(2, SPEC)
    pilot = Pilot(cluster.allocate(2, 0.0), SimExecutor(0.0))
    pilot.run([TaskSpec(gpus=2, duration=1800.0) for _ in range(4)])
    assert len(pilot.log) == 4
    by_records = sum(
        r.node_seconds(SPEC.gpus, SPEC.cpus) for r in pilot.records
    )
    assert pilot.log.node_seconds_total(SPEC.gpus, SPEC.cpus) == pytest.approx(
        by_records
    )
    assert pilot.node_hours() == pytest.approx(by_records / 3600.0)
    assert pilot.log.state_counts() == {"DONE": 4}


def test_tasklog_digest_is_deterministic_and_sensitive():
    def run(durations):
        reset_uid_counter()
        cluster = Cluster(2, SPEC)
        pilot = Pilot(cluster.allocate(2, 0.0), SimExecutor(0.0))
        pilot.run([TaskSpec(gpus=1, duration=d) for d in durations])
        return pilot.log.digest()

    assert run([1.0, 2.0, 3.0]) == run([1.0, 2.0, 3.0])
    assert run([1.0, 2.0, 3.0]) != run([1.0, 2.0, 4.0])


def test_tasklog_empty():
    log = TaskLog()
    assert len(log) == 0
    assert log.node_seconds_total() == 0.0
    assert log.digest() == TaskLog().digest()


def test_keep_records_false_still_accounts():
    reset_uid_counter()
    cluster = Cluster(2, SPEC)
    pilot = Pilot(
        cluster.allocate(2, 0.0), SimExecutor(0.0), keep_records=False
    )
    finished = pilot.run([TaskSpec(gpus=2, duration=3600.0) for _ in range(2)])
    assert finished == []
    assert pilot.records == []
    assert len(pilot.log) == 2
    assert pilot.node_hours() == pytest.approx(1.0)
    assert pilot.failures.n_failures == 0


# ------------------------------------------------- the determinism contract


def _faulty_pilot(seed: int = 3) -> Pilot:
    executor = SimExecutor(
        launch_overhead=0.1,
        fault_model=FaultModel(
            seed=seed, failure_rate=0.08, straggler_rate=0.05, hang_rate=0.02
        ),
    )
    return Pilot(
        Allocation(node_ids=list(range(6)), spec=SPEC, granted_at=0.0),
        executor,
        retry=RetryPolicy(max_retries=2, backoff_base=1.0, timeout=300.0),
        tracer=Tracer(clock=ExecutorClock(executor)),
    )


def test_indexed_loop_bit_identical_to_scan_loop():
    """Same seed ⇒ ``IndexedPlacer`` + ``PendingQueue`` start the same
    tasks on the same nodes in the same order as the O(nodes) scan placer
    fed by a whole-backlog re-scan: per-task timings, failure counters and
    the exported trace agree byte for byte — under faults, retries and
    timeouts."""
    reset_uid_counter()
    ref = _faulty_pilot()
    ref._placer = ScanPlacer(ref.allocation.n_nodes, SPEC)
    ref.drive(RescanSource(mixed_tasks(250, 3, SPEC)))
    reset_uid_counter()
    opt = _faulty_pilot()
    opt.run(mixed_tasks(250, 3, SPEC))
    assert ref.failures.n_failures > 0  # the workload actually faulted
    assert [(r.spec.uid, r.attempt, r.node_ids) for r in ref.records] == [
        (r.spec.uid, r.attempt, r.node_ids) for r in opt.records
    ]
    assert ref.log.digest() == opt.log.digest()
    assert vars(ref.failures) == vars(opt.failures)
    assert chrome_trace_json(ref.tracer) == chrome_trace_json(opt.tracer)
