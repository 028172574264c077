"""Tests for surrogate training and the inference engine.

Training tests use a synthetic structure→score rule (no docking) so they
run fast; the full docking-trained path is exercised by the Fig 4 bench.
"""

import numpy as np
import pytest

from repro.chem.library import CompoundLibrary, generate_library
from repro.surrogate.infer import InferenceEngine
from repro.surrogate.train import TrainConfig, train_surrogate

FAST = TrainConfig(epochs=6, batch_size=16, width=6)


@pytest.fixture(scope="module")
def dataset():
    """A library whose 'docking score' rewards aromatic nitrogen content."""
    lib = generate_library(80, seed=31)
    scores = np.array(
        [
            -3.0 * sum(1 for a in lib.molecule(i).atoms if a.symbol == "N")
            - 1.0 * lib.descriptors(i).aromatic_rings
            + 0.05 * lib.descriptors(i).molecular_weight
            for i in range(len(lib))
        ]
    )
    return lib, scores


@pytest.fixture(scope="module")
def surrogate(dataset):
    lib, scores = dataset
    return train_surrogate(lib.smiles(), scores, FAST, seed=0)


def test_training_reduces_loss(surrogate):
    assert surrogate.train_losses[-1] < surrogate.train_losses[0]
    assert len(surrogate.train_losses) == FAST.epochs
    assert len(surrogate.val_losses) == FAST.epochs


def test_predictions_correlate_with_truth(dataset, surrogate):
    lib, scores = dataset
    pred = surrogate.predict_scores(lib.smiles())
    corr = np.corrcoef(pred, scores)[0, 1]
    assert corr > 0.5


def test_predict_normalized_in_unit_interval(dataset, surrogate):
    lib, _ = dataset
    p = surrogate.predict_normalized(lib.smiles()[:10])
    assert p.shape == (10,)
    assert (p >= 0).all() and (p <= 1).all()


def test_training_deterministic(dataset):
    lib, scores = dataset
    tiny = TrainConfig(epochs=2, batch_size=16, width=4)
    a = train_surrogate(lib.smiles()[:30], scores[:30], tiny, seed=7)
    b = train_surrogate(lib.smiles()[:30], scores[:30], tiny, seed=7)
    np.testing.assert_array_equal(
        a.predict_normalized(lib.smiles()[:5]), b.predict_normalized(lib.smiles()[:5])
    )


def test_training_validates_inputs(dataset):
    lib, scores = dataset
    with pytest.raises(ValueError):
        train_surrogate(lib.smiles()[:10], scores[:5], FAST)
    with pytest.raises(ValueError):
        train_surrogate(lib.smiles()[:2], scores[:2], FAST)


def test_inference_engine_matches_model(dataset, surrogate):
    lib, _ = dataset
    engine = InferenceEngine(surrogate, precision="fp32")
    out = engine.score_smiles(lib.smiles()[:12])
    direct = surrogate.predict_normalized(lib.smiles()[:12])
    np.testing.assert_allclose([o.score for o in out], direct, atol=1e-5)


def test_inference_fp16_close_to_fp32(dataset, surrogate):
    lib, _ = dataset
    fp16 = InferenceEngine(surrogate, precision="fp16").score_smiles(lib.smiles()[:12])
    fp32 = InferenceEngine(surrogate, precision="fp32").score_smiles(lib.smiles()[:12])
    diff = np.abs(np.array([o.score for o in fp16]) - np.array([o.score for o in fp32]))
    assert diff.max() < 0.05


def test_inference_shards_match_in_memory(tmp_path, dataset, surrogate):
    lib, _ = dataset
    sub = CompoundLibrary(name="shardtest", entries=lib.entries[:20])
    paths = sub.to_shards(tmp_path, shard_size=7)
    engine = InferenceEngine(surrogate, precision="fp32")
    from_shards = engine.score_shards(paths)
    in_memory = engine.score_smiles(sub.smiles(), [e.compound_id for e in sub])
    shard_map = {o.compound_id: o.score for o in from_shards}
    for o in in_memory:
        assert shard_map[o.compound_id] == pytest.approx(o.score, abs=1e-9)


def test_score_shards_rows_in_library_order(tmp_path, dataset, surrogate):
    lib, _ = dataset
    sub = CompoundLibrary(name="ordertest", entries=lib.entries[:16])
    paths = sub.to_shards(tmp_path, shard_size=4)
    engine = InferenceEngine(surrogate, precision="fp32")
    # the table itself, rows in library order — not just the same scores
    # under a shuffle, which would move ML1's ranking ties
    scored = engine.score_shards(paths)
    assert [o.compound_id for o in scored] == [e.compound_id for e in sub]


def test_ids_length_mismatch(dataset, surrogate):
    lib, _ = dataset
    with pytest.raises(ValueError):
        InferenceEngine(surrogate).score_smiles(lib.smiles()[:5], ids=["a"])


def test_surrogate_checkpoint_roundtrip(tmp_path, dataset, surrogate):
    from repro.surrogate.train import TrainedSurrogate

    lib, _ = dataset
    path = tmp_path / "surrogate.npz"
    surrogate.save(path)
    restored = TrainedSurrogate.load(path)
    np.testing.assert_allclose(
        restored.predict_normalized(lib.smiles()[:8]),
        surrogate.predict_normalized(lib.smiles()[:8]),
        atol=1e-10,
    )
    np.testing.assert_allclose(
        restored.predict_scores(lib.smiles()[:4]),
        surrogate.predict_scores(lib.smiles()[:4]),
        atol=1e-8,
    )
    assert restored.train_losses == surrogate.train_losses
    assert restored.image_size == surrogate.image_size
