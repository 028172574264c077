"""EnTK analogue: the PST (Pipeline, Stage, Task) programming model.

§5.2.1 verbatim semantics:

* tasks in the same **stage** have no mutual ordering and run with
  whatever concurrency resources allow;
* **stages** within a pipeline run strictly in order (a stage is a
  barrier);
* **pipelines** run concurrently and asynchronously — "each pipeline can
  progress at its own pace".

:class:`AppManager` executes a set of pipelines over one pilot, keeping
every pipeline's frontier stage eligible simultaneously — the property
Fig 7's integrated (S3-CG)-(S2)-(S3-FG) run depends on.  Stages may also
carry ``on_complete`` callbacks so adaptive workflows can generate their
next stage from upstream results at runtime (the paper's "selects
parameters at runtime").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.rct.pilot import Pilot, QueueSource
from repro.rct.task import TaskRecord, TaskSpec, TaskState

__all__ = ["Stage", "Pipeline", "AppManager"]


@dataclass
class Stage:
    """A barrier-delimited group of concurrent tasks."""

    tasks: list[TaskSpec]
    name: str = ""
    on_complete: Callable[[list[TaskRecord]], None] | None = None

    def __post_init__(self) -> None:
        if not self.tasks:
            raise ValueError("stage must contain at least one task")


@dataclass
class Pipeline:
    """An ordered sequence of stages.

    ``stage_generator`` (optional) is consulted when the static stage
    list is exhausted: it receives the records of the just-finished
    stage and may return a new Stage (adaptive continuation) or ``None``
    to finish the pipeline.
    """

    stages: list[Stage]
    name: str = ""
    stage_generator: Callable[[list[TaskRecord]], Stage | None] | None = None

    def __post_init__(self) -> None:
        if not self.stages:
            raise ValueError("pipeline must contain at least one stage")


@dataclass
class _Frontier:
    """One pipeline's run state: its open stage and what is still out."""

    pipeline: Pipeline
    name: str
    stage: Stage
    next_index: int = 1  # into pipeline.stages; past the end → generator
    outstanding: set[int] = field(default_factory=set)  # task uids in flight
    stage_records: list[TaskRecord] = field(default_factory=list)


class _PSTSource(QueueSource):
    """Pipelines as a task source: every pipeline's frontier stage is in
    the backlog at once, and a stage's last final record opens the next.

    Generated stages live here, never in the caller's ``Pipeline``, so a
    pipeline object can be run again.
    """

    def __init__(
        self, pilot: Pilot, pipelines: list[Pipeline], names: list[str]
    ) -> None:
        super().__init__()
        self.pilot = pilot
        self.results: dict[str, list[TaskRecord]] = {n: [] for n in names}
        self._owner: dict[int, _Frontier] = {}  # task uid → its pipeline
        for pipeline, name in zip(pipelines, names):
            self._open(_Frontier(pipeline, name, pipeline.stages[0]))

    def _open(self, frontier: _Frontier) -> None:
        frontier.stage_records = []
        for task in frontier.stage.tasks:
            self.pilot.validate_fits(task)
            self._owner[task.uid] = frontier
            frontier.outstanding.add(task.uid)
            self.queue.push(task)

    def completed(self, record: TaskRecord) -> None:
        if record.state is TaskState.RETRYING:
            # the attempt was re-queued: the task stays outstanding,
            # its stage barrier stays closed
            return
        frontier = self._owner[record.spec.uid]
        frontier.outstanding.discard(record.spec.uid)
        frontier.stage_records.append(record)
        self.results[frontier.name].append(record)
        if frontier.outstanding:
            return
        if (
            record.state is TaskState.FAILED
            and self.pilot.failure_policy == "fail_fast"
        ):
            return  # the pilot raises next; no callbacks on an aborting run
        # the frontier stage completed: fire the callback, then advance
        # (or consult the generator once the static stages run out)
        if frontier.stage.on_complete is not None:
            frontier.stage.on_complete(frontier.stage_records)
        pipeline = frontier.pipeline
        following: Stage | None = None
        if frontier.next_index < len(pipeline.stages):
            following = pipeline.stages[frontier.next_index]
            frontier.next_index += 1
        elif pipeline.stage_generator is not None:
            following = pipeline.stage_generator(frontier.stage_records)
        if following is not None:
            frontier.stage = following
            self._open(frontier)


class AppManager:
    """Execute pipelines concurrently on a pilot."""

    def __init__(self, pilot: Pilot) -> None:
        self.pilot = pilot

    def run(self, pipelines: list[Pipeline]) -> dict[str, list[TaskRecord]]:
        """Run all pipelines to completion.

        Returns records grouped by pipeline name, in completion order.
        Failure semantics follow the pilot's retry/propagation policies:
        retried attempts keep their stage barrier closed until the task
        finally resolves; under ``drop_and_continue`` a permanently failed
        task appears in the results with ``state == TaskState.FAILED``
        (and in ``pilot.failures``) and its stage proceeds without it;
        under ``fail_fast`` the run raises
        :class:`~repro.rct.fault.TaskFailedError`.
        """
        if not pipelines:
            raise ValueError("no pipelines to run")
        names = [p.name or f"pipeline-{i}" for i, p in enumerate(pipelines)]
        if len(set(names)) != len(names):
            raise ValueError(f"pipeline names must be unique, got {names}")
        source = _PSTSource(self.pilot, pipelines, names)
        self.pilot.drive(source)
        return source.results
