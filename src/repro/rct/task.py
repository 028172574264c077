"""Task model for the workflow infrastructure.

A *task* is the paper's unit of execution (§5.2.1): "a stand-alone
process that has well-defined input, output, termination criteria, and
dedicated resources" — anything from a single-GPU OpenMM run to a
multi-node MPI docking sweep.  :class:`TaskSpec` captures the resource
request plus either a real Python callable (thread backend) or a duration
(simulated backend); :class:`TaskRecord` tracks one execution.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable

__all__ = ["TaskSpec", "TaskRecord", "TaskState", "reset_uid_counter"]

_task_counter = itertools.count()


def reset_uid_counter(start: int = 0) -> None:
    """Restart :class:`TaskSpec` uid assignment from ``start``.

    Fault draws are keyed on ``(seed, uid, attempt)``, so a run is only
    reproducible within a process if its tasks get the same uids each
    time.  Deterministic demos call this before building their workload;
    uids stay unique within any single pilot built afterwards.
    """
    global _task_counter
    _task_counter = itertools.count(start)


class TaskState(enum.Enum):
    """Lifecycle states of a task."""
    NEW = "new"
    SCHEDULED = "scheduled"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    #: a failed attempt was re-queued by the retry policy; the scheduling
    #: loops treat such records as in-flight, not final
    RETRYING = "retrying"


@dataclass
class TaskSpec:
    """Resource request + payload for one task.

    Exactly one of ``fn`` (real execution) or ``duration`` (simulated
    execution) drives the run; specifying both is allowed (the thread
    backend runs ``fn``, the simulated backend charges ``duration``).

    Attributes
    ----------
    cpus / gpus:
        Slots required per node.
    nodes:
        Node count (> 1 models MPI tasks that span nodes).
    duration:
        Simulated wall seconds (per task, regardless of node count).
    fn / args / kwargs:
        Callable payload for real execution.
    stage:
        Label used for utilization plots and accounting (e.g. "S3-CG").
    tenant:
        Owner label when many logical campaigns share one pilot (the
        multi-tenant service); empty for single-campaign runs.  Carried
        onto the task's telemetry span so per-tenant utilization and
        accounting stay pure views over the trace.
    """

    name: str = ""
    cpus: int = 1
    gpus: int = 0
    nodes: int = 1
    duration: float | None = None
    fn: Callable | None = None
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)
    stage: str = ""
    tenant: str = ""
    uid: int = field(default_factory=lambda: next(_task_counter))

    def __post_init__(self) -> None:
        if self.cpus < 0 or self.gpus < 0:
            raise ValueError("cpus/gpus must be non-negative")
        if self.cpus == 0 and self.gpus == 0:
            raise ValueError("task must request at least one cpu or gpu")
        if self.nodes < 1:
            raise ValueError("nodes must be >= 1")
        if self.duration is None and self.fn is None:
            raise ValueError("task needs a duration (sim) or fn (real)")
        if self.duration is not None and not self.duration >= 0:
            raise ValueError("duration must be non-negative")
        if not self.name:
            self.name = f"task-{self.uid}"


@dataclass
class TaskRecord:
    """Execution record of one task."""

    spec: TaskSpec
    state: TaskState = TaskState.NEW
    start_time: float | None = None
    end_time: float | None = None
    result: Any = None
    error: str | None = None
    node_ids: list[int] = field(default_factory=list)
    attempt: int = 0  # 0-based execution attempt (> 0 after retries)
    timed_out: bool = False
    #: seconds the pilot waits before re-driving a ``RETRYING`` attempt
    backoff: float | None = None

    @property
    def wall_time(self) -> float:
        """Elapsed seconds from start to end (0 if unfinished)."""
        if self.start_time is None or self.end_time is None:
            return 0.0
        return self.end_time - self.start_time

    def node_seconds(self, gpus_per_node: int = 6, cpus_per_node: int = 42) -> float:
        """Node-seconds consumed: whole nodes for multi-node tasks,
        the occupied node fraction for sub-node tasks."""
        if not self.wall_time:
            return 0.0
        if self.spec.nodes > 1:
            return self.wall_time * self.spec.nodes
        fraction = max(
            self.spec.gpus / gpus_per_node if gpus_per_node else 0.0,
            self.spec.cpus / cpus_per_node if cpus_per_node else 0.0,
        )
        return self.wall_time * fraction
