"""Tests for the task model and simulated cluster."""

import math

import pytest

from repro.rct.cluster import SUMMIT_NODE, Cluster, NodeSpec
from repro.rct.task import TaskRecord, TaskSpec, TaskState


# ------------------------------------------------------------------- tasks


def test_task_defaults_and_uid_unique():
    a = TaskSpec(duration=1.0)
    b = TaskSpec(duration=1.0)
    assert a.uid != b.uid
    assert a.name.startswith("task-")
    assert a.cpus == 1


def test_task_validation():
    with pytest.raises(ValueError):
        TaskSpec(cpus=0, gpus=0, duration=1.0)
    with pytest.raises(ValueError):
        TaskSpec(duration=-1.0)
    with pytest.raises(ValueError):
        TaskSpec(duration=math.nan)
    assert TaskSpec(duration=math.inf).duration == math.inf  # the sim's hang
    with pytest.raises(ValueError):
        TaskSpec(nodes=0, duration=1.0)
    with pytest.raises(ValueError):
        TaskSpec()  # neither duration nor fn


def test_task_record_wall_time_and_node_seconds():
    rec = TaskRecord(spec=TaskSpec(gpus=3, duration=5.0))
    assert rec.wall_time == 0.0
    rec.start_time, rec.end_time = 10.0, 20.0
    assert rec.wall_time == 10.0
    # 3 of 6 gpus = half a node for 10 s
    assert rec.node_seconds(gpus_per_node=6, cpus_per_node=42) == pytest.approx(5.0)


def test_multi_node_record_counts_whole_nodes():
    rec = TaskRecord(spec=TaskSpec(gpus=6, cpus=42, nodes=4, duration=1.0))
    rec.start_time, rec.end_time = 0.0, 10.0
    assert rec.node_seconds() == pytest.approx(40.0)


# ----------------------------------------------------------------- cluster


def test_summit_node_shape():
    assert SUMMIT_NODE.gpus == 6
    assert SUMMIT_NODE.cpus == 42


def test_allocate_and_release():
    c = Cluster(10)
    a = c.allocate(4, now=0.0)
    assert a.n_nodes == 4
    assert a.total_gpus == 24
    with pytest.raises(RuntimeError):
        c.allocate(7, now=0.0)  # only 6 nodes are free
    c.release(a)
    assert c.allocate(10, now=0.0).n_nodes == 10


def test_over_allocation_rejected():
    c = Cluster(3)
    c.allocate(2, now=0.0)
    with pytest.raises(RuntimeError):
        c.allocate(2, now=0.0)


def test_allocation_validation():
    with pytest.raises(ValueError):
        Cluster(0)
    with pytest.raises(ValueError):
        Cluster(3).allocate(0, now=0.0)
    with pytest.raises(ValueError):
        NodeSpec(cpus=0)
