"""Bit-identity of the bulk first-draw kernel and of the fault draw memo.

``first_draws`` re-implements NumPy's ``SeedSequence`` → ``PCG64`` seeding
on arrays; its reference is NumPy itself, through ``rng_stream``.  The
memo (``FaultDraws``) must give every attempt the outcome the scalar
``FaultModel.draw`` gives it, whatever order attempts are drawn in.
"""

import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.rct.fault import FaultDraws, FaultModel
from repro.util.rng import first_draws, rng_stream

#: seeds where the entropy's first word wraps, is zero, or is all ones
EDGE_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**32 + 5, 2**40, -1, -(2**32), -(2**40) - 3)
EDGE_KEYS = ("", "fault/0/0", "Ωμέγα/σ☃/🧪", "x" * 10_000, "\x00", "fault/-1/0")

MODEL = FaultModel(seed=11, failure_rate=0.3, straggler_rate=0.2, hang_rate=0.1)
#: a service submission's uid namespace base: 22-bit id × 2⁴⁰, just under 2⁶²
SERVICE_BASE = ((1 << 22) - 1) << 40


def reference(seed: int, keys, n: int) -> list[list[float]]:
    """``n`` successive ``random()`` calls on each key's own stream."""
    rows = []
    for key in keys:
        rng = rng_stream(seed, key)
        rows.append([rng.random() for _ in range(n)])
    return rows


@pytest.mark.parametrize("n", (1, 2, 3))
@pytest.mark.parametrize("seed", EDGE_SEEDS)
def test_first_draws_equal_numpy_at_edge_seeds_and_keys(seed, n):
    keys = [*EDGE_KEYS, *(f"fault/{uid}/0" for uid in range(40))]
    assert first_draws(seed, keys, n).tolist() == reference(seed, keys, n)


@given(
    seed=st.one_of(st.sampled_from(EDGE_SEEDS), st.integers(-(2**70), 2**70)),
    keys=st.lists(st.one_of(st.sampled_from(EDGE_KEYS), st.text(max_size=300)),
                  max_size=12),
    n=st.sampled_from((1, 2, 3)),
)
@example(seed=0, keys=[], n=2)
@example(seed=2**32 - 1, keys=[""], n=1)
def test_first_draws_equal_numpy(seed, keys, n):
    got = first_draws(seed, keys, n)
    assert got.shape == (len(keys), n)
    assert got.tolist() == reference(seed, keys, n)


def _edge_uids() -> list[int]:
    block_edges = [0, 1, 1022, 1023, 1024, 1025, 2047, 2048, -1, -1024, -1025]
    service = [SERVICE_BASE + off for off in (0, 1023, 1024, (1 << 40) - 1)]
    return block_edges + service


@pytest.mark.parametrize("uid", _edge_uids())
def test_memo_matches_scalar_draw_at_block_edges(uid):
    memo = FaultDraws(MODEL)
    for attempt in (0, 1, 2, 0):
        for duration in (7.5, 0.0):
            assert memo.draw(uid, attempt, duration) == MODEL.draw(uid, attempt, duration)


@given(seed=st.integers(-(2**40), 2**40), uid=st.integers(-(2**62), 2**62),
       attempt=st.integers(0, 3), duration=st.floats(0.0, 1e6))
def test_memo_matches_scalar_draw(seed, uid, attempt, duration):
    model = FaultModel(seed=seed, failure_rate=0.5, straggler_rate=0.25, hang_rate=0.1)
    assert FaultDraws(model).draw(uid, attempt, duration) == model.draw(
        uid, attempt, duration
    )


@pytest.fixture(scope="module")
def scalar_outcomes() -> dict:
    """Scalar draws for first attempts and retries over three partial blocks."""
    calls = [(uid, attempt) for uid in range(1000, 3100) for attempt in (0, 1)]
    return {call: MODEL.draw(*call, 3.0) for call in calls}


@pytest.mark.parametrize("order", range(3))
def test_memo_outcomes_do_not_depend_on_draw_order(scalar_outcomes, order):
    calls = list(scalar_outcomes)
    random.Random(order).shuffle(calls)
    memo = FaultDraws(MODEL)
    assert {call: memo.draw(*call, 3.0) for call in calls} == scalar_outcomes


def test_memo_holds_no_fully_consumed_block():
    memo = FaultDraws(MODEL)
    for uid in range(1024, 2048 + 10):
        memo.draw(uid, 0, 1.0)
    assert set(memo._blocks) == {2}  # block 1 freed; block 2 only touched
    # serving a uid twice does not count towards freeing its block
    for _ in range(3):
        memo.draw(2048, 0, 1.0)
    assert memo._blocks[2][3] == 1024 - 10  # unserved count
    # retries are scalar draws and never fill a block
    memo.draw(5000, 1, 1.0)
    assert set(memo._blocks) == {2}
    # a freed block is drawn again on demand, with the same values
    assert memo.draw(1500, 0, 1.0) == MODEL.draw(1500, 0, 1.0)
    assert set(memo._blocks) == {1, 2}
    for uid in range(2048, 3072):
        memo.draw(uid, 0, 1.0)
    assert set(memo._blocks) == {1}
