"""Graph-engine regression tests for the ML1 inference engine.

The InferenceEngine pads every batch — including the final partial one —
to a fixed batch size before scoring, so the graph engine and the eager
reference (``tests/nn/oracle.py``, swapped in as ``engine.compiled``) see
identical batch geometry and must produce identical scores; the padding
also makes scores independent of how records split into batches.
"""

import numpy as np
import pytest

from repro.chem.library import CompoundLibrary, generate_library
from repro.surrogate.featurize import featurize_batch
from repro.surrogate.infer import InferenceEngine
from repro.surrogate.train import TrainConfig, train_surrogate
from tests.nn.oracle import compile_eager


@pytest.fixture(scope="module")
def dataset():
    lib = generate_library(48, seed=17)
    scores = np.array(
        [-0.1 * len(lib.smiles()[i]) - lib.descriptors(i).aromatic_rings for i in range(len(lib))]
    )
    return lib, scores


@pytest.fixture(scope="module")
def surrogate(dataset):
    lib, scores = dataset
    cfg = TrainConfig(epochs=3, batch_size=16, width=6)
    return train_surrogate(lib.smiles(), scores, cfg, seed=2)


def _eager_engine(surrogate, precision="fp16"):
    engine = InferenceEngine(surrogate, precision=precision)
    engine.compiled = compile_eager(surrogate.model, precision)
    return engine


@pytest.mark.parametrize("precision", ["fp16", "fp32"])
def test_graph_engine_scores_identical_to_eager(dataset, surrogate, precision):
    lib, _ = dataset
    smiles = lib.smiles()[:20]
    graph = InferenceEngine(surrogate, precision=precision)
    eager = _eager_engine(surrogate, precision)
    assert graph.score_smiles(smiles) == eager.score_smiles(smiles)


def test_scores_independent_of_batch_split(dataset, surrogate):
    """Padding to a fixed batch size makes scoring split-invariant."""
    lib, _ = dataset
    smiles = lib.smiles()[:10]
    engine = InferenceEngine(surrogate, batch_size=16)
    whole = engine.score_smiles(smiles)
    split = engine.score_smiles(smiles[:6]) + engine.score_smiles(
        smiles[6:], ids=[f"CPD{i:07d}" for i in range(6, 10)]
    )
    assert [o.score for o in whole] == [o.score for o in split]


def test_final_partial_batch_is_padded_not_truncated(dataset, surrogate):
    lib, _ = dataset
    smiles = lib.smiles()[:19]  # 19 = 16 + 3: second batch is padded
    scored = InferenceEngine(surrogate, batch_size=16).score_smiles(smiles)
    assert len(scored) == 19
    assert all(np.isfinite(o.score) for o in scored)


def test_shard_path_matches_in_memory_with_graph_engine(tmp_path, dataset, surrogate):
    lib, _ = dataset
    sub = CompoundLibrary(name="graphshards", entries=lib.entries[:20])
    paths = sub.to_shards(tmp_path, shard_size=7)
    engine = InferenceEngine(surrogate)
    from_shards = {o.compound_id: o.score for o in engine.score_shards(paths)}
    in_memory = engine.score_smiles(sub.smiles(), [e.compound_id for e in sub])
    assert from_shards == {o.compound_id: o.score for o in in_memory}


def test_graph_and_eager_rank_identically(dataset, surrogate):
    lib, _ = dataset
    smiles = lib.smiles()
    k = max(1, round(0.25 * len(smiles)))
    rank = lambda engine: [
        o.compound_id
        for o in sorted(engine.score_smiles(smiles), key=lambda o: o.score, reverse=True)[:k]
    ]
    assert rank(InferenceEngine(surrogate)) == rank(_eager_engine(surrogate))


def test_unknown_engine_rejected(surrogate):
    """There is one engine: the selector is gone, not defaulted."""
    with pytest.raises(TypeError):
        InferenceEngine(surrogate, engine="tensorrt")
    with pytest.raises(TypeError):
        InferenceEngine(surrogate, engine="graph")


def test_records_scored_counter(dataset, surrogate):
    lib, _ = dataset
    engine = InferenceEngine(surrogate)
    engine.score_smiles(lib.smiles()[:7])
    engine.score_smiles(lib.smiles()[:5])
    assert engine.records_scored == 12


def test_featurize_batch_into_caller_buffer(dataset):
    lib, _ = dataset
    smiles = lib.smiles()[:6]
    fresh = featurize_batch(smiles, size=24)
    buf = np.full((6, fresh.shape[1], 24, 24), 7.0, dtype=np.float32)
    out = featurize_batch(smiles, size=24, out=buf)
    assert out is buf
    np.testing.assert_array_equal(buf, fresh)


def test_featurize_batch_rejects_bad_buffer(dataset):
    lib, _ = dataset
    bad = np.zeros((2, 1, 24, 24), dtype=np.float32)
    with pytest.raises(ValueError):
        featurize_batch(lib.smiles()[:3], size=24, out=bad)


def test_prefetch_ring_is_never_overwritten_under_a_slow_network(
    tmp_path, dataset, surrogate
):
    """The prefetch thread featurizes ahead into a ring of buffers the
    network reads in place.  A slow forward pass over many more batches
    than the ring holds, with the threads switching as often as they
    can: a buffer refilled before it was scored would change a score."""
    import sys
    import time

    lib, _ = dataset
    paths = lib.to_shards(tmp_path, shard_size=len(lib))  # one shard, 48 records
    engine = InferenceEngine(surrogate, batch_size=3)  # 16 batches, ring of 4
    want = engine.score_smiles(lib.smiles(), [e.compound_id for e in lib])
    fast = engine.compiled

    def slow(feats):
        time.sleep(0.02)  # let the producer run as far ahead as it may
        return fast(feats)

    engine.compiled = slow
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        started = time.monotonic()
        got = engine.score_shards(paths)
    finally:
        sys.setswitchinterval(interval)
    assert time.monotonic() - started < 30
    assert got == want
