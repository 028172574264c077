"""Array-of-records task bookkeeping for Summit-scale campaigns.

A 10⁶-attempt campaign cannot afford one :class:`~repro.rct.task.TaskRecord`
object (plus spec, plus span) held live per attempt just to answer
"what ran, where, when".  :class:`TaskLog` stores one completed attempt
as a row across typed columnar arrays (``array.array`` — O(1) append,
buffer-protocol views for free NumPy math), so the memory cost per
attempt is a few dozen bytes and aggregate accounting (node-hours,
state counts) is a vectorized reduction instead of a Python loop.

The log doubles as the determinism witness: :meth:`TaskLog.digest` is a
sha256 over every column — uid, attempt, start/end times, final state,
timeout flag, resource shape, and the exact node ids of the placement.
Two runs with the same seed and backend must produce byte-identical
digests; ``tests/rct/test_golden_schedule.py`` compares it with
recorded golden values (``bench/`` ``pilot_flood`` checks it across
passes), which makes "identical placements and timings" an O(1)-memory
check at any campaign size.
"""

from __future__ import annotations

import hashlib
from array import array

import numpy as np

from repro.rct.task import TaskRecord, TaskState

__all__ = ["TaskLog"]

#: stable wire codes for the digest (enum order could change; these can't)
_STATE_CODES = {
    TaskState.NEW: 0,
    TaskState.SCHEDULED: 1,
    TaskState.RUNNING: 2,
    TaskState.DONE: 3,
    TaskState.FAILED: 4,
    TaskState.RETRYING: 5,
}


class TaskLog:
    """Columnar log of completed task attempts."""

    def __init__(self) -> None:
        self._uid = array("q")
        self._attempt = array("i")
        self._start = array("d")
        self._end = array("d")
        self._state = array("b")
        self._timed_out = array("b")
        self._cpus = array("i")
        self._gpus = array("i")
        self._nodes = array("i")
        # placements, flattened; row i owns the next _nodes[i] entries
        self._node_ids = array("i")

    def __len__(self) -> int:
        return len(self._uid)

    def append(self, record: TaskRecord) -> None:
        """Log one completed attempt (record state must be final)."""
        spec = record.spec
        self._uid.append(spec.uid)
        self._attempt.append(record.attempt)
        self._start.append(record.start_time if record.start_time is not None else -1.0)
        self._end.append(record.end_time if record.end_time is not None else -1.0)
        self._state.append(_STATE_CODES[record.state])
        self._timed_out.append(1 if record.timed_out else 0)
        self._cpus.append(spec.cpus)
        self._gpus.append(spec.gpus)
        self._nodes.append(spec.nodes)
        self._node_ids.extend(record.node_ids)

    # ----------------------------------------------------------- accounting
    def node_seconds_total(
        self, gpus_per_node: int = 6, cpus_per_node: int = 42
    ) -> float:
        """Total node-seconds over all logged attempts (vectorized).

        Same accounting as :meth:`TaskRecord.node_seconds`: whole nodes
        for multi-node tasks, the occupied node fraction for sub-node
        tasks.
        """
        if not len(self):
            return 0.0
        start = np.frombuffer(self._start, dtype=np.float64)
        end = np.frombuffer(self._end, dtype=np.float64)
        nodes = np.frombuffer(self._nodes, dtype=np.int32).astype(np.float64)
        wall = np.where((start >= 0.0) & (end >= 0.0), end - start, 0.0)
        gpu_frac = (
            np.frombuffer(self._gpus, dtype=np.int32) / gpus_per_node
            if gpus_per_node
            else 0.0
        )
        cpu_frac = (
            np.frombuffer(self._cpus, dtype=np.int32) / cpus_per_node
            if cpus_per_node
            else 0.0
        )
        frac = np.where(nodes > 1, nodes, np.maximum(gpu_frac, cpu_frac))
        return float(np.sum(wall * frac))

    def state_counts(self) -> dict[str, int]:
        """Final-state histogram over logged attempts."""
        codes = np.frombuffer(self._state, dtype=np.int8)
        names = {code: state.name for state, code in _STATE_CODES.items()}
        values, counts = np.unique(codes, return_counts=True)
        return {names[int(v)]: int(c) for v, c in zip(values, counts)}

    # ---------------------------------------------------------- determinism
    def digest(self) -> str:
        """sha256 over every column — the bit-identity witness."""
        h = hashlib.sha256()
        for column in (
            self._uid,
            self._attempt,
            self._start,
            self._end,
            self._state,
            self._timed_out,
            self._cpus,
            self._gpus,
            self._nodes,
            self._node_ids,
        ):
            h.update(column.tobytes())
        return h.hexdigest()
