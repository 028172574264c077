"""Conservation laws of the one drive loop, over all three task sources.

Whatever feeds :meth:`Pilot.step` — a flat list, PST pipelines, the
multi-tenant manager — once the drive returns, every failure was retried
or dropped, nothing is running or waiting out a backoff, every slot is
back in the free pool, and the pilot logged exactly the attempts the
source was told about.  Workloads are generated from a stdlib seed.
"""

import random

import numpy as np
import pytest

from repro.rct.backends import SimExecutor
from repro.rct.cluster import Allocation, NodeSpec
from repro.rct.entk import Pipeline, Stage, _PSTSource
from repro.rct.fault import FaultModel, RetryPolicy
from repro.rct.pilot import Pilot, QueueSource
from repro.rct.task import TaskSpec
from repro.service.manager import CampaignManager
from repro.service.tenant import Quota, Tenant
from repro.service.work import SyntheticWork

from tests.rct.oracle import mixed_tasks

SPEC = NodeSpec(cpus=8, gpus=4)
N_NODES = 3


def _pilot(seed: int, rate: float) -> Pilot:
    faults = None
    if rate:
        faults = FaultModel(
            seed=seed, failure_rate=rate, straggler_rate=rate / 2, hang_rate=rate / 4
        )
    # odd seeds never retry (every failure is a drop); the policy is still
    # there for its timeout, which is what reaps a hung attempt
    retry = RetryPolicy(
        max_retries=2 * (seed % 2 == 0), backoff_base=3.0, timeout=400.0, seed=seed
    )
    return Pilot(
        Allocation(node_ids=list(range(N_NODES)), spec=SPEC, granted_at=0.0),
        SimExecutor(launch_overhead=0.1, fault_model=faults),
        retry=retry,
    )


def _tap(obj, method: str) -> list:
    """Wrap ``obj.method`` to record each call as ``(argument, result)``."""
    calls: list = []
    inner = getattr(obj, method)

    def tapped(arg):
        result = inner(arg)
        calls.append((arg, result))
        return result

    setattr(obj, method, tapped)
    return calls


def _drive_flat(pilot: Pilot, rng: random.Random) -> list:
    source = QueueSource()
    for task in mixed_tasks(rng.randrange(40, 120), rng.randrange(1 << 30), SPEC):
        source.queue.push(task)
    seen = _tap(source, "completed")
    pilot.drive(source)
    return seen


def _drive_pst(pilot: Pilot, rng: random.Random) -> list:
    def stage(label: str) -> Stage:
        gpus = rng.choice((0, 1, 2))
        return Stage(name=label, tasks=[
            TaskSpec(cpus=rng.randrange(1, 4), gpus=gpus, stage=label,
                     duration=rng.uniform(5.0, 90.0))
            for _ in range(rng.randrange(1, 9))
        ])

    budget = [rng.randrange(0, 4)]

    def generator(_records):
        if not budget[0]:
            return None
        budget[0] -= 1
        return stage(f"gen{budget[0]}")

    pipelines = [
        Pipeline(
            name=f"p{i}",
            stages=[stage(f"p{i}s{k}") for k in range(rng.randrange(1, 4))],
            stage_generator=generator if i == 0 else None,
        )
        for i in range(rng.randrange(1, 5))
    ]
    # AppManager.run builds this source internally; build it here to tap it
    source = _PSTSource(pilot, pipelines, [p.name for p in pipelines])
    seen = _tap(source, "completed")
    pilot.drive(source)
    assert sum(len(r) for r in source.results.values()) == len(
        {record.spec.uid for record, _ in seen}
    )
    return seen


def _drive_tenants(pilot: Pilot, rng: random.Random) -> list:
    manager = CampaignManager(pilot)
    seen = _tap(manager, "completed")
    sids: dict[str, float] = {}  # → scripted submit time
    for i in range(rng.randrange(2, 5)):
        quota = Quota(max_concurrent_tasks=rng.choice((None, 1, 3)))
        tenant = Tenant(name=f"t{i}", weight=rng.randrange(1, 5), quota=quota)
        work = SyntheticWork(
            n_units=rng.randrange(1, 4), tasks_per_unit=rng.randrange(1, 8),
            duration=rng.uniform(20.0, 120.0), gpus=rng.choice((1, 2)),
            seed=rng.randrange(1 << 30),
        )
        sids[f"t{i}/job"] = rng.choice((0.0, 50.0, 400.0))
        manager.at(sids[f"t{i}/job"], "submit", tenant=tenant, name="job", work=work)
    victim = rng.choice(sorted(sids))
    manager.at(sids[victim] + rng.uniform(0.0, 300.0), "cancel", sid=victim)
    manager.run_until_idle()
    for sid in sids:
        assert manager.status(sid)["state"] in ("done", "cancelled")
        assert manager.status(sid)["n_inflight"] == 0
    return seen


@pytest.mark.parametrize("rate", (0.0, 0.1, 0.3))
@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("drive", (_drive_flat, _drive_pst, _drive_tenants))
def test_drive_conserves_slots_attempts_and_failures(drive, seed, rate):
    pilot = _pilot(seed, rate)
    seen = drive(pilot, random.Random(f"{drive.__name__}/{seed}/{rate}"))
    assert seen, "the generated workload ran nothing"
    attempts = {(record.spec.uid, record.attempt) for record, _ in seen}
    assert len(attempts) == len(seen) == len(pilot.log)
    # failures == retries + drops, also after a retry is cancelled in its
    # backoff (only the service cancels): its counted retry became a drop
    assert pilot.failures.reconciles()
    assert not pilot._placements and pilot.executor.n_running == 0
    assert not pilot._retry_queue
    np.testing.assert_array_equal(pilot._placer.free_cpus(), [SPEC.cpus] * N_NODES)
    np.testing.assert_array_equal(pilot._placer.free_gpus(), [SPEC.gpus] * N_NODES)
    if rate == 0.0:
        assert pilot.failures.n_failures == 0


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("drive", (_drive_flat, _drive_pst, _drive_tenants))
def test_start_task_runs_once_per_attempt(drive, seed):
    """Sources and the retry re-drive ask the pilot's exact probe before
    ``start_task``, so on a faulty flood no start fails."""
    pilot = _pilot(seed, 0.3)
    started: list[bool] = []
    inner = pilot.start_task

    def start_task(task, attempt=0):
        started.append(inner(task, attempt))
        return started[-1]

    pilot.start_task = start_task
    drive(pilot, random.Random(f"{drive.__name__}/{seed}/once"))
    assert pilot.failures.n_failures > 0
    assert all(started) and len(started) == len(pilot.log)
