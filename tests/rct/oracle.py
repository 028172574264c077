"""Test-side references for the scheduler: the scan placer, the list
re-scan backlog, and a seeded mixed-shape workload.

:class:`ScanPlacer` is the seed ``Pilot.try_place`` verbatim — an O(nodes)
NumPy scan per decision.  It used to ship in ``repro.rct.sched`` as a
selectable policy; it lives here now because its only job is to be the
reference :class:`~repro.rct.sched.IndexedPlacer` is fuzzed against.
"""

from __future__ import annotations

import random

import numpy as np

from repro.rct.cluster import NodeSpec
from repro.rct.pilot import TaskSource
from repro.rct.sched import Placement
from repro.rct.task import TaskSpec


class ScanPlacer:
    """Reference first-fit placement: O(nodes) NumPy scan per decision."""

    def __init__(self, n_nodes: int, spec: NodeSpec) -> None:
        self.spec = spec
        self.n_nodes = n_nodes
        self._free_cpus = np.full(n_nodes, spec.cpus)
        self._free_gpus = np.full(n_nodes, spec.gpus)

    def try_place(self, task: TaskSpec) -> Placement | None:
        """First-fit placement; ``None`` when resources are busy.

        Multi-node tasks take whole (fully free) nodes; sub-node tasks
        pack into partially used nodes.
        """
        spec = self.spec
        if task.nodes > 1:
            if task.cpus > spec.cpus or task.gpus > spec.gpus:
                return None
            fully_free = np.where(
                (self._free_cpus == spec.cpus) & (self._free_gpus == spec.gpus)
            )[0]
            if len(fully_free) < task.nodes:
                return None
            chosen = fully_free[: task.nodes]
            self._free_cpus[chosen] = 0
            self._free_gpus[chosen] = 0
            return Placement(
                node_ids=chosen.tolist(),
                cpus=spec.cpus * task.nodes,
                gpus=spec.gpus * task.nodes,
            )
        fits = np.where(
            (self._free_cpus >= task.cpus) & (self._free_gpus >= task.gpus)
        )[0]
        if not len(fits):
            return None
        node = int(fits[0])
        self._free_cpus[node] -= task.cpus
        self._free_gpus[node] -= task.gpus
        return Placement(node_ids=[node], cpus=task.cpus, gpus=task.gpus)

    def release(self, placement: Placement) -> None:
        """Return a placement's slots to the free pool."""
        spec = self.spec
        n_nodes = len(placement.node_ids)
        for node in placement.node_ids:
            self._free_cpus[node] += placement.cpus // n_nodes
            self._free_gpus[node] += placement.gpus // n_nodes
        np.minimum(self._free_cpus, spec.cpus, out=self._free_cpus)
        np.minimum(self._free_gpus, spec.gpus, out=self._free_gpus)

    def free_cpus(self) -> np.ndarray:
        """Per-node free CPU slots (a copy)."""
        return np.asarray(self._free_cpus).copy()

    def free_gpus(self) -> np.ndarray:
        """Per-node free GPU slots (a copy)."""
        return np.asarray(self._free_gpus).copy()


class RescanSource(TaskSource):
    """The pre-index backlog: re-try every pending task after every event."""

    def __init__(self, tasks: list[TaskSpec]) -> None:
        self.pending = list(tasks)

    def place(self, start, fits) -> None:
        self.pending = [t for t in self.pending if not start(t)]

    def has_pending(self) -> bool:
        return bool(self.pending)


def mixed_tasks(n_tasks: int, seed: int, spec: NodeSpec) -> list[TaskSpec]:
    """Seeded mix: ~70 % one-GPU, ~25 % CPU-only, ~5 % two-node tasks."""
    rng = random.Random(seed)
    tasks = []
    for i in range(n_tasks):
        kind = rng.random()
        duration = rng.lognormvariate(3.0, 0.6)
        if kind < 0.70:
            shape = dict(cpus=1, gpus=1, stage="S1")
        elif kind < 0.95:
            shape = dict(cpus=min(7, spec.cpus), gpus=0, stage="ML1")
        else:
            shape = dict(cpus=spec.cpus, gpus=spec.gpus, nodes=2, stage="S3-CG")
            duration *= 4.0
        tasks.append(TaskSpec(name=f"t{i}", duration=duration, **shape))
    return tasks
