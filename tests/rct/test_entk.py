"""Tests for the EnTK PST model and AppManager semantics."""

import pytest

from repro.rct.cluster import Cluster, NodeSpec
from repro.rct.entk import AppManager, Pipeline, Stage
from repro.rct.backends import SimExecutor
from repro.rct.pilot import Pilot
from repro.rct.task import TaskSpec


def _pilot(n_nodes=4, gpus=2):
    cluster = Cluster(n_nodes, NodeSpec(cpus=4, gpus=gpus))
    return Pilot(cluster.allocate(n_nodes, 0.0), SimExecutor(0.0))


def _stage(name, n_tasks, dur, gpus=1):
    return Stage(
        name=name,
        tasks=[TaskSpec(gpus=gpus, duration=dur, stage=name) for _ in range(n_tasks)],
    )


def test_stage_barrier_orders_stages():
    """A pipeline's stage 2 must not start before stage 1 fully ends."""
    pilot = _pilot()
    p = Pipeline(name="p", stages=[_stage("s1", 3, 2.0), _stage("s2", 3, 1.0)])
    out = AppManager(pilot).run([p])
    recs = out["p"]
    s1_end = max(r.end_time for r in recs if r.spec.stage == "s1")
    s2_start = min(r.start_time for r in recs if r.spec.stage == "s2")
    assert s2_start >= s1_end


def test_pipelines_progress_independently():
    """A slow pipeline must not block a fast one (asynchronous execution)."""
    pilot = _pilot(n_nodes=4)
    slow = Pipeline(name="slow", stages=[_stage("slow-1", 1, 50.0)])
    fast = Pipeline(
        name="fast", stages=[_stage("fast-1", 2, 1.0), _stage("fast-2", 2, 1.0)]
    )
    out = AppManager(pilot).run([slow, fast])
    fast_done = max(r.end_time for r in out["fast"])
    slow_done = max(r.end_time for r in out["slow"])
    assert fast_done < slow_done
    assert fast_done == pytest.approx(2.0)


def test_tasks_within_stage_concurrent():
    pilot = _pilot(n_nodes=4)  # 8 gpu slots
    p = Pipeline(name="p", stages=[_stage("s", 8, 3.0)])
    AppManager(pilot).run([p])
    assert pilot.executor.now == pytest.approx(3.0)  # all 8 in parallel


def test_on_complete_callback_fires_with_records():
    pilot = _pilot()
    seen = []
    stage = _stage("s", 3, 1.0)
    stage.on_complete = lambda records: seen.append(len(records))
    AppManager(pilot).run([Pipeline(name="p", stages=[stage])])
    assert seen == [3]


def test_adaptive_stage_generator_extends_pipeline():
    """Runtime-generated stages: the adaptive-workflow hook."""
    pilot = _pilot()
    rounds = []

    def generator(records):
        if len(rounds) >= 2:
            return None
        rounds.append(len(records))
        return _stage(f"gen-{len(rounds)}", 2, 1.0)

    p = Pipeline(name="p", stages=[_stage("seed", 1, 1.0)], stage_generator=generator)
    out = AppManager(pilot).run([p])
    assert len(rounds) == 2
    stages_seen = {r.spec.stage for r in out["p"]}
    assert stages_seen == {"seed", "gen-1", "gen-2"}
    # generated stages belong to the run, not to the caller's pipeline:
    # a second run starts from the seed stage again
    assert len(p.stages) == 1
    rounds.clear()
    again = AppManager(_pilot()).run([p])
    assert [r.spec.stage for r in again["p"]] == [r.spec.stage for r in out["p"]]


def test_heterogeneous_tasks_intermix():
    """CPU tasks, GPU tasks and multi-node MPI tasks in one run."""
    pilot = _pilot(n_nodes=4)
    mixed = Stage(
        name="mixed",
        tasks=[
            TaskSpec(cpus=2, gpus=0, duration=1.0, stage="cpu"),
            TaskSpec(cpus=0, gpus=2, duration=1.0, stage="gpu"),
            TaskSpec(nodes=2, cpus=4, gpus=2, duration=1.0, stage="mpi"),
        ],
    )
    out = AppManager(pilot).run([Pipeline(name="p", stages=[mixed])])
    assert len(out["p"]) == 3


def test_empty_inputs_rejected():
    pilot = _pilot()
    with pytest.raises(ValueError):
        AppManager(pilot).run([])
    with pytest.raises(ValueError):
        Stage(tasks=[])
    with pytest.raises(ValueError):
        Pipeline(stages=[])


def test_duplicate_pipeline_names_rejected():
    pilot = _pilot()
    p1 = Pipeline(name="same", stages=[_stage("a", 1, 1.0)])
    p2 = Pipeline(name="same", stages=[_stage("b", 1, 1.0)])
    with pytest.raises(ValueError, match="unique"):
        AppManager(pilot).run([p1, p2])


def test_utilization_recorded_per_stage():
    pilot = _pilot()
    p = Pipeline(name="p", stages=[_stage("alpha", 2, 1.0), _stage("beta", 2, 1.0)])
    AppManager(pilot).run([p])
    series = pilot.utilization.series()
    assert set(series.per_stage) == {"alpha", "beta"}
