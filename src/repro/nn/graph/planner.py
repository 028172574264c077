"""Liveness-based arena planner: every activation in one buffer.

An eager step allocates a fresh temporary per op.  Here each arena root
of a :class:`~repro.nn.graph.backward.TrainGraph` (an ``input`` or
``temp`` value, plus every alias of it — reshapes, views, outputs
coalesced in place) gets a live interval, defined at its producing op and
dead after its last reader, and a greedy best-fit allocator packs the
intervals into offsets of a single flat arena.  The binder
(:func:`repro.nn.graph.executor.bind`) allocates that arena **once** per
graph and every kernel writes through preallocated views, so a replay
performs no array allocation — for a training step and a lowered
inference graph alike.  Shapes are absolute, so a graph (and its plan)
is per batch size.  The arena holds values only: a kernel that stages an
intermediate does so in its own output, and the few boolean and
kept-shape buffers a kernel needs are its own, allocated at bind time.

Plans are deterministic: roots are packed in (definition step, id) order
with no hashing involved, so the same graph always produces the same
offsets; :func:`validate_train_plan` asserts that no two slots overlap in
both time and memory.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Sequence

import numpy as np

from repro.nn.graph.backward import TrainGraph

__all__ = [
    "MemoryPlan",
    "StateArena",
    "plan_state_arena",
    "plan_train_memory",
    "validate_train_plan",
]

#: offsets are kept to multiples of 16 elements (64B at fp32) so every
#: buffer starts cache-line/SIMD aligned regardless of packing order
_ALIGN = 16


def _align(n: int) -> int:
    return -(-n // _ALIGN) * _ALIGN


@dataclass
class MemoryPlan:
    """Packed arena layout for one graph.

    ``slots`` maps ``("value", root_vid)`` keys to ``(offset, elems)``;
    ``intervals`` holds the live range ``(def_step, last_step)`` each slot
    was packed under.
    """

    total_elems: int
    dtype: np.dtype
    slots: dict[tuple, tuple[int, int]] = field(default_factory=dict)
    intervals: dict[tuple, tuple[int, int]] = field(default_factory=dict)

    @property
    def total_bytes(self) -> int:
        """Arena footprint in bytes."""
        return self.total_elems * np.dtype(self.dtype).itemsize

    @property
    def naive_elems(self) -> int:
        """Sum of all buffer sizes — the no-reuse footprint."""
        return sum(size for _, size in self.slots.values())

    @property
    def n_buffers(self) -> int:
        """Number of distinct packed buffers."""
        return len(self.slots)


def _pack_entries(
    plan: MemoryPlan,
    entries: list[tuple[tuple, tuple, int, tuple[int, int]]],
) -> None:
    """Greedy best-fit packing of ``(sort_key, key, size, interval)``
    entries into ``plan``.

    Entries are packed in ``sort_key`` order; a buffer's hole is released
    once its interval's last step lies before the entry being placed.
    """
    entries = sorted(entries, key=lambda e: e[0])
    free: list[tuple[int, int]] = []  # (offset, size), sorted by offset
    active: list[tuple[int, tuple, int, int]] = []  # (last, key, offset, size)

    def release(up_to_step: int) -> None:
        nonlocal free
        still = []
        for last_step, key, off, size in active:
            if last_step < up_to_step:
                free.append((off, size))
            else:
                still.append((last_step, key, off, size))
        active[:] = still
        free.sort()
        merged: list[tuple[int, int]] = []
        for off, size in free:
            if merged and merged[-1][0] + merged[-1][1] == off:
                merged[-1] = (merged[-1][0], merged[-1][1] + size)
            else:
                merged.append((off, size))
        free = merged

    for (def_step, *_rest), key, size, interval in entries:
        release(def_step)
        best = None
        for j, (off, hole) in enumerate(free):
            if hole >= size and (best is None or hole < free[best][1]):
                best = j
        if best is not None:
            off, hole = free.pop(best)
            if hole > size:
                free.append((off + size, hole - size))
                free.sort()
        else:
            off = plan.total_elems
            plan.total_elems += size
        plan.slots[key] = (off, size)
        plan.intervals[key] = interval
        active.append((interval[1], key, off, size))


def plan_train_memory(tg: TrainGraph) -> MemoryPlan:
    """Pack a graph's activations (and gradients) into one arena.

    Slot sizes come straight from the root value's element count.  Only
    roots of kind ``temp``/``input`` get arena storage — params/externs/
    consts live in their own arrays.  Outputs and parameter gradients
    carry a last-read of ``LAST_FOREVER`` (see
    :meth:`~repro.nn.graph.backward.TrainGraph.root_intervals`) so the
    optimizer and the caller read stable buffers every step.
    """
    defined, last = tg.root_intervals()
    entries = [
        (
            (defined[root], root),
            ("value", root),
            _align(tg.values[root].size),
            (defined[root], last.get(root, defined[root])),
        )
        for root in sorted(defined)
    ]

    plan = MemoryPlan(total_elems=0, dtype=np.dtype(tg.dtype))
    _pack_entries(plan, entries)
    return plan


def validate_train_plan(plan: MemoryPlan) -> bool:
    """Assert an arena plan has no time×memory slot overlap."""
    items = list(plan.slots.items())
    for key, (off, size) in items:
        if off + size > plan.total_elems:
            raise AssertionError(f"slot {key} exceeds arena")
    for (key_a, (off_a, size_a)), (key_b, (off_b, size_b)) in combinations(items, 2):
        def_a, last_a = plan.intervals[key_a]
        def_b, last_b = plan.intervals[key_b]
        overlap_time = def_a <= last_b and def_b <= last_a
        overlap_mem = off_a < off_b + size_b and off_b < off_a + size_a
        if overlap_time and overlap_mem:
            raise AssertionError(
                f"slots {key_a} and {key_b} overlap in time and memory"
            )
    return True


@dataclass
class StateArena:
    """Persistent flat arena for optimizer state (moment buffers).

    Moments must outlive any single batch-size-specific activation plan,
    so they get their own arena owned by the optimizer.  ``views`` holds
    one zero-initialised view per requested shape, in request order.
    """

    buf: np.ndarray
    views: list[np.ndarray]
    slots: list[tuple[int, int]]  # (offset, elems) per view

    @property
    def total_bytes(self) -> int:
        """Arena footprint in bytes."""
        return self.buf.nbytes


def plan_state_arena(
    shapes: Sequence[tuple[int, ...]], dtype: np.dtype
) -> StateArena:
    """Lay ``shapes`` out back-to-back (aligned) in one zeroed buffer."""
    slots: list[tuple[int, int]] = []
    offset = 0
    for shape in shapes:
        elems = int(np.prod(shape, dtype=np.int64)) if shape else 1
        slots.append((offset, elems))
        offset += _align(elems)
    buf = np.zeros(offset, dtype=dtype)
    views = [
        buf[off : off + elems].reshape(shape)
        for (off, elems), shape in zip(slots, shapes)
    ]
    return StateArena(buf=buf, views=views, slots=slots)
