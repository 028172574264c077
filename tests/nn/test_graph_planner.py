"""The liveness-based arena planner over a lowered SmilesNet.

Inference graphs are planned by ``plan_train_memory``, the planner
training steps use; shapes are absolute, so each batch size is its own
graph and plan.
"""

import numpy as np
import pytest

from repro.nn.graph.executor import bind
from repro.nn.graph.lower import freeze_module, lower_frozen
from repro.nn.graph.passes import optimize_train
from repro.nn.graph.planner import _ALIGN, plan_train_memory, validate_train_plan
from repro.surrogate.model import build_smilesnet


@pytest.fixture(scope="module")
def lowered():
    model = build_smilesnet(seed=1, width=6)
    model.eval()
    frozen = freeze_module(model)
    graphs = {}

    def at(batch):
        if batch not in graphs:
            tg = lower_frozen(frozen, (batch, 7, 24, 24), np.float16, np.float32)
            optimize_train(tg)
            graphs[batch] = tg
        return graphs[batch]

    return at


@pytest.mark.parametrize("batch", [1, 5, 7, 64])
def test_plan_has_no_live_range_overlap(lowered, batch):
    assert validate_train_plan(plan_train_memory(lowered(batch)))
    assert validate_train_plan(bind(lowered(batch)).plan)


def test_plan_is_deterministic(lowered):
    a = plan_train_memory(lowered(16))
    b = plan_train_memory(lowered(16))
    assert a.slots == b.slots
    assert a.intervals == b.intervals
    assert a.total_elems == b.total_elems


def test_arena_reuses_memory(lowered):
    plan = plan_train_memory(lowered(64))
    assert plan.total_elems < plan.naive_elems  # packing beats no-reuse
    assert plan.n_buffers > 3


def test_offsets_are_aligned(lowered):
    plan = bind(lowered(7)).plan
    for off, size in plan.slots.values():
        assert off % _ALIGN == 0
        assert size % _ALIGN == 0


def test_validate_plan_detects_corruption(lowered):
    plan = plan_train_memory(lowered(4))
    # force two temporally-overlapping slots onto the same offset
    keys = sorted(plan.slots, key=lambda k: plan.intervals[k][0])
    a, b = keys[0], keys[1]
    plan.slots[b] = (plan.slots[a][0], plan.slots[b][1])
    with pytest.raises(AssertionError):
        validate_train_plan(plan)


def test_validate_plan_detects_out_of_bounds(lowered):
    plan = plan_train_memory(lowered(4))
    key = next(iter(plan.slots))
    plan.slots[key] = (plan.total_elems, 16)
    with pytest.raises(AssertionError):
        validate_train_plan(plan)


def test_plan_scales_with_batch(lowered):
    small = plan_train_memory(lowered(1))
    big = plan_train_memory(lowered(64))
    assert big.total_elems > small.total_elems
    assert big.total_bytes == big.total_elems * np.dtype(np.float32).itemsize
