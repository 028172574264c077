"""Slot placement and the indexed pending queue.

At Summit scale the *simulator* is the hot path: a 4,608-node ×
10⁶-task campaign makes one placement decision and one release per task
attempt, and the seed implementation paid an O(nodes) NumPy scan for
every one of them — plus an O(pending) sweep of the whole backlog after
every completion.  This module replaces both with indexed structures
whose *decisions are bit-identical* to that scan (the seed placer
survives as the test-side oracle ``tests/rct/oracle.py``, and
``tests/rct/test_sched.py`` fuzzes one against the other):

* :class:`IndexedPlacer` — first-fit-lowest-index from lazy per-shape
  min-heaps of candidate nodes: O(log nodes) amortized per
  placement/release instead of O(nodes).  Its exact probe
  :meth:`IndexedPlacer.fits_now` answers "would this shape place now?"
  without placing, from the same heaps and a count of fully free nodes,
  so a caller granting one placement at a time never pays for a try
  that fails;
* :class:`PendingQueue` — shape-keyed FIFOs whose submission pass
  visits O(placed + shapes) tasks instead of the whole backlog, while
  reproducing the "try every pending task in submission order"
  semantics exactly (resources only shrink within a pass, so once a
  shape fails every later task of that shape fails too).  Only shapes
  with queued tasks are kept, so the queue's keys are its live shape
  set.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.rct.cluster import NodeSpec
from repro.rct.task import TaskSpec

__all__ = ["Placement", "IndexedPlacer", "PendingQueue"]


@dataclass
class Placement:
    """Slots assigned to one task."""

    node_ids: list[int]
    cpus: int
    gpus: int


class IndexedPlacer:
    """First-fit placement from lazy per-shape candidate heaps.

    For every request shape ``(cpus, gpus)`` seen so far, a min-heap of
    node ids maintains the invariant *every node that currently fits the
    shape is in the heap* (possibly alongside stale entries, which are
    discarded on contact).  First-fit-lowest-index is then a peek at the
    heap top; a release pushes the node back into each shape heap it now
    fits.  A membership bitmap per shape bounds every heap at one entry
    per node, so a full-cluster miss costs one amortized drain rather
    than unbounded growth.  A count of fully free nodes, kept by every
    placement and release, answers the multi-node half of
    :meth:`fits_now`.

    Placement decisions are bit-identical to the O(nodes) reference scan
    (``tests/rct/oracle.py``) — same node, same order, for any
    interleaving of placements and releases (fuzzed in
    ``tests/rct/test_sched.py``).
    """

    def __init__(self, n_nodes: int, spec: NodeSpec) -> None:
        self.spec = spec
        self.n_nodes = n_nodes
        self._free_cpus = [spec.cpus] * n_nodes
        self._free_gpus = [spec.gpus] * n_nodes
        # shape (cpus, gpus) → (candidate min-heap, membership bitmap)
        self._shapes: dict[tuple[int, int], tuple[list[int], bytearray]] = {}
        # whole-node allocation pool for multi-node (MPI) tasks
        self._fully_free: list[int] = list(range(n_nodes))  # already a heap
        self._fully_free_in = bytearray(b"\x01" * n_nodes)
        #: nodes with every slot free (the heap above may hold stale ids)
        self._n_fully_free = n_nodes

    # ------------------------------------------------------------ internals
    def _shape(self, cpus: int, gpus: int) -> tuple[list[int], bytearray]:
        entry = self._shapes.get((cpus, gpus))
        if entry is None:
            # list(range(n)) is already heap-ordered; every node is a
            # candidate until proven stale
            entry = (list(range(self.n_nodes)), bytearray(b"\x01" * self.n_nodes))
            self._shapes[(cpus, gpus)] = entry
        return entry

    def _place_multi(self, task: TaskSpec) -> Placement | None:
        spec = self.spec
        if task.cpus > spec.cpus or task.gpus > spec.gpus:
            return None
        heap, member = self._fully_free, self._fully_free_in
        chosen: list[int] = []
        while heap and len(chosen) < task.nodes:
            node = heapq.heappop(heap)
            member[node] = 0
            if (
                self._free_cpus[node] == spec.cpus
                and self._free_gpus[node] == spec.gpus
            ):
                chosen.append(node)
            # stale entries (partially busy nodes) are simply dropped;
            # they re-enter when a release makes them fully free again
        if len(chosen) < task.nodes:
            for node in chosen:
                heapq.heappush(heap, node)
                member[node] = 1
            return None
        for node in chosen:
            self._free_cpus[node] = 0
            self._free_gpus[node] = 0
        self._n_fully_free -= task.nodes
        return Placement(
            node_ids=chosen,
            cpus=spec.cpus * task.nodes,
            gpus=spec.gpus * task.nodes,
        )

    # ------------------------------------------------------------ placement
    def fits_now(self, cpus: int, gpus: int, nodes: int) -> bool:
        """Whether :meth:`try_place` would place this shape right now.

        Exact, and it places nothing.  A single-node shape fits iff its
        candidate heap has a fitting node; the probe pops only stale
        tops, and since the heap keeps every fitting node whatever its
        stale entries, no later placement decision moves.  A multi-node
        shape fits iff it fits one node and enough nodes are fully free
        (each fully free node is in the whole-node heap, so
        :meth:`_place_multi` would find them).
        """
        if nodes > 1:
            spec = self.spec
            return (
                cpus <= spec.cpus
                and gpus <= spec.gpus
                and self._n_fully_free >= nodes
            )
        entry = self._shapes.get((cpus, gpus))
        if entry is None:
            entry = self._shape(cpus, gpus)
        heap = entry[0]
        while heap:
            node = heap[0]
            if self._free_cpus[node] >= cpus and self._free_gpus[node] >= gpus:
                return True
            heapq.heappop(heap)
            entry[1][node] = 0
        return False

    def try_place(self, task: TaskSpec) -> Placement | None:
        """First-fit placement; ``None`` when resources are busy."""
        if task.nodes > 1:
            return self._place_multi(task)
        heap, member = self._shape(task.cpus, task.gpus)
        free_cpus, free_gpus = self._free_cpus, self._free_gpus
        while heap:
            node = heap[0]
            if free_cpus[node] >= task.cpus and free_gpus[node] >= task.gpus:
                spec = self.spec
                if free_cpus[node] == spec.cpus and free_gpus[node] == spec.gpus:
                    # every task asks for a cpu or a gpu, so the node
                    # stops being fully free
                    self._n_fully_free -= 1
                free_cpus[node] -= task.cpus
                free_gpus[node] -= task.gpus
                if free_cpus[node] < task.cpus or free_gpus[node] < task.gpus:
                    heapq.heappop(heap)
                    member[node] = 0
                return Placement(node_ids=[node], cpus=task.cpus, gpus=task.gpus)
            heapq.heappop(heap)
            member[node] = 0
        return None

    def release(self, placement: Placement) -> None:
        """Return a placement's slots and re-index the freed nodes."""
        spec = self.spec
        n_nodes = len(placement.node_ids)
        d_cpus = placement.cpus // n_nodes
        d_gpus = placement.gpus // n_nodes
        for node in placement.node_ids:
            cpus = self._free_cpus[node] + d_cpus
            gpus = self._free_gpus[node] + d_gpus
            if cpus > spec.cpus:
                cpus = spec.cpus
            if gpus > spec.gpus:
                gpus = spec.gpus
            self._free_cpus[node] = cpus
            self._free_gpus[node] = gpus
            for (s_cpus, s_gpus), (heap, member) in self._shapes.items():
                if not member[node] and cpus >= s_cpus and gpus >= s_gpus:
                    heapq.heappush(heap, node)
                    member[node] = 1
            if cpus == spec.cpus and gpus == spec.gpus:
                # the node held this placement, so it was not fully free
                self._n_fully_free += 1
                if not self._fully_free_in[node]:
                    heapq.heappush(self._fully_free, node)
                    self._fully_free_in[node] = 1

    def free_cpus(self) -> np.ndarray:
        """Per-node free CPU slots (a copy; for inspection/tests)."""
        return np.array(self._free_cpus)

    def free_gpus(self) -> np.ndarray:
        """Per-node free GPU slots (a copy; for inspection/tests)."""
        return np.array(self._free_gpus)


class PendingQueue:
    """Shape-indexed task backlog with an O(placed + shapes) submit pass.

    A list backlog has to be re-scanned *entirely* after every
    completion — O(backlog) per event, quadratic over a campaign.  This
    queue keys the backlog by placement shape
    ``(cpus, gpus, nodes)`` and merges the per-shape FIFO heads by
    global submission order.  One pass pops tasks in exactly the order
    that re-scan would have placed them: within a pass resources
    only shrink, so the first placement failure of a shape proves every
    later task of that shape would fail too, and the shape drops out of
    the pass instead of being re-tried task by task.

    A shape's FIFO is removed when it empties, so :attr:`shapes` — a
    live view of the keys — is always the set of queued shapes.
    """

    def __init__(self) -> None:
        self._queues: dict[tuple[int, int, int], deque] = {}
        #: the ``(cpus, gpus, nodes)`` shapes with queued tasks (live)
        self.shapes = self._queues.keys()
        self._order = itertools.count()
        self._count = 0

    def __len__(self) -> int:
        return self._count

    def push(self, task: TaskSpec) -> None:
        """Append a task in global submission order."""
        key = (task.cpus, task.gpus, task.nodes)
        queue = self._queues.get(key)
        if queue is None:
            queue = self._queues[key] = deque()
        queue.append((next(self._order), task))
        self._count += 1

    def try_start_one(
        self,
        start: Callable[[TaskSpec], bool],
        fits: Callable[[int, int, int], bool],
    ) -> TaskSpec | None:
        """Start at most one task; returns it, or ``None`` if nothing fits.

        Shape heads are visited in global submission order, exactly like
        one step of :meth:`submit_pass`: the oldest pending task is tried
        first, and a shape the placement probe ``fits(cpus, gpus, nodes)``
        rejects is skipped without calling ``start``, so with an exact
        probe ``start`` runs once, and succeeds.  The fair-share
        scheduler of the multi-tenant service uses this to grant one
        placement at a time to the tenant the share policy picked,
        instead of letting one tenant's greedy pass drain the cluster.
        Order stamps are unique, so sorting the heads is the heap order,
        and nothing is sorted when one shape is queued.
        """
        queues = self._queues
        keys = (
            queues if len(queues) < 2
            else sorted(queues, key=lambda key: queues[key][0][0])
        )
        for key in keys:
            queue = queues[key]
            if fits(*key) and start(queue[0][1]):
                task = queue.popleft()[1]
                if not queue:
                    del queues[key]
                self._count -= 1
                return task
        return None

    def drop_where(self, pred: Callable[[TaskSpec], bool]) -> list[TaskSpec]:
        """Remove every queued task matching ``pred``; returns them.

        Cancellation of queued-not-running work: relative submission
        order of the surviving tasks is preserved (their global order
        stamps are untouched).
        """
        dropped: list[TaskSpec] = []
        for key, queue in list(self._queues.items()):
            kept: deque = deque()
            for order, task in queue:
                if pred(task):
                    dropped.append(task)
                else:
                    kept.append((order, task))
            if kept:
                self._queues[key] = kept
            else:
                del self._queues[key]
        self._count -= len(dropped)
        return dropped

    def submit_pass(
        self, try_start: Callable[[TaskSpec], bool], fits: Callable[[int, int, int], bool]
    ) -> int:
        """Run one greedy submission pass; returns tasks started.

        ``try_start`` must attempt placement+launch and return whether
        it succeeded (without consuming the task on failure); shapes the
        placement probe ``fits(cpus, gpus, nodes)`` rejects are skipped.
        """
        queues = self._queues
        heads = [(queue[0][0], key) for key, queue in queues.items()]
        heapq.heapify(heads)
        started = 0
        while heads:
            _, key = heapq.heappop(heads)
            queue = queues[key]
            if not (fits(*key) and try_start(queue[0][1])):
                continue  # this shape no longer fits anywhere this pass
            queue.popleft()
            self._count -= 1
            started += 1
            if queue:
                heapq.heappush(heads, (queue[0][0], key))
            else:
                del queues[key]
        return started
