"""The batch depiction kernel against the per-molecule reference.

``repro.chem.depict`` lays out and rasterizes whole chunks of molecules
through flat arrays; ``tests/chem/oracle.py`` keeps the per-molecule
code it replaced.  Images feed the surrogate, whose scores feed every
selection and digest downstream, so "close" is not good enough: every
comparison here is ``np.array_equal``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.chem.depict import N_CHANNELS, depict, depict_batch, layout_2d
from repro.chem.library import generate_library, write_library_shards
from repro.chem.smiles import parse_smiles
from repro.core.streaming import run_streamed_screen
from repro.docking.engine import DockingEngine
from repro.docking.lga import LGAConfig
from repro.docking.receptor import make_receptor
from repro.surrogate import infer
from repro.surrogate.featurize import featurize_batch
from repro.surrogate.train import TrainConfig, train_surrogate
from repro.util.checkpoint import load_artifact
from tests.chem import oracle

HAND_CASES = {
    "single atom": "C",
    "two atoms": "CC",
    "charged atom": "C[NH3+]",
    "carboxylate": "CC(=O)[O-]",
    "triple bond": "CC#N",
    "fused aromatic rings": "c1ccc2cc3ccccc3cc2c1",
    "heteroaromatic + halogen": "Clc1ccncc1S",
    "branched chain": "CC(C)(C)CC(C)(C)C",
}


def _library(seed: int, n: int) -> list[str]:
    return generate_library(n, seed=seed).smiles()


@pytest.fixture(scope="module")
def pool() -> list[str]:
    """130 molecules: enough to straddle two chunk boundaries."""
    return _library(11, 130)


@pytest.fixture(scope="module")
def pool_images(pool) -> np.ndarray:
    return np.stack([oracle.depict(parse_smiles(s), 24) for s in pool])


# ------------------------------------------------------- against the oracle


@pytest.mark.parametrize("seed", [3, 5])
def test_library_images_and_layouts_equal_reference(seed):
    smiles = _library(seed, 260)
    mols = [parse_smiles(s) for s in smiles]
    images = featurize_batch(smiles, size=24)
    for mol, image in zip(mols, images):
        assert np.array_equal(image, oracle.depict(mol, 24)), mol
    for mol in mols[::4]:  # the batch of one goes through the same kernel
        assert np.array_equal(layout_2d(mol), oracle.layout_2d(mol))


@pytest.mark.parametrize("size", [16, 24, 32])
@pytest.mark.parametrize("name", sorted(HAND_CASES))
def test_hand_cases_equal_reference(name, size):
    mol = parse_smiles(HAND_CASES[name])
    want = oracle.depict(mol, size)
    got = depict(mol, size)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got, want)
    want_xy = oracle.layout_2d(mol)
    got_xy = layout_2d(mol)
    assert got_xy.shape == want_xy.shape and got_xy.flags.c_contiguous
    assert np.array_equal(got_xy, want_xy)


def test_largest_library_molecule_equals_reference():
    mols = [parse_smiles(s) for s in _library(3, 400)]
    largest = max(mols, key=lambda m: m.n_atoms)
    assert largest.n_atoms >= 25
    assert np.array_equal(depict(largest, 24), oracle.depict(largest, 24))
    assert np.array_equal(layout_2d(largest), oracle.layout_2d(largest))


def test_layout_iterations_argument_equals_reference():
    mol = parse_smiles("c1ccccc1C(=O)O")
    for iterations in (0, 1, 17):
        assert np.array_equal(
            layout_2d(mol, iterations), oracle.layout_2d(mol, iterations)
        )


def test_default_depict_size_equals_reference():
    mol = parse_smiles("CC(=O)Nc1ccc(O)cc1")
    assert np.array_equal(depict(mol), oracle.depict(mol))


# ------------------------------------------- batch-composition invariance


@pytest.mark.parametrize("n", [1, 63, 64, 65, 129])
def test_chunk_boundaries_do_not_show(pool, pool_images, n):
    assert np.array_equal(featurize_batch(pool[:n], size=24), pool_images[:n])


def test_image_is_independent_of_batch_mates_and_position(pool, pool_images):
    rng = np.random.default_rng(0)
    for _ in range(3):
        order = rng.permutation(len(pool))[: int(rng.integers(2, 100))]
        images = featurize_batch([pool[i] for i in order], size=24)
        assert np.array_equal(images, pool_images[order])


def test_out_slice_of_a_larger_buffer_is_filled_in_place(pool, pool_images):
    ring = np.full((2, 80, N_CHANNELS, 24, 24), 7.0, dtype=np.float32)
    out = featurize_batch(pool[:70], size=24, out=ring[1, 5:75])
    assert out.base is ring
    assert np.array_equal(ring[1, 5:75], pool_images[:70])
    assert (ring[0] == 7.0).all() and (ring[1, :5] == 7.0).all()
    assert (ring[1, 75:] == 7.0).all()
    # a strided view works too: no contiguity is assumed of ``out``
    wide = np.zeros((9, N_CHANNELS, 24, 48), dtype=np.float32)
    featurize_batch(pool[:9], size=24, out=wide[..., ::2])
    assert np.array_equal(wide[..., ::2], pool_images[:9])
    assert not wide[..., 1::2].any()


def test_depict_batch_consumes_a_generator_chunk_by_chunk(pool, pool_images):
    parsed = []

    def parse_lazily():
        for smiles in pool[:70]:
            parsed.append(smiles)
            yield parse_smiles(smiles)

    out = np.empty((70, N_CHANNELS, 24, 24), dtype=np.float32)
    assert depict_batch(parse_lazily(), out) is out
    assert parsed == pool[:70]
    assert np.array_equal(out, pool_images[:70])


def test_depict_batch_rejects_too_few_molecules():
    out = np.empty((3, N_CHANNELS, 16, 16), dtype=np.float32)
    with pytest.raises(ValueError, match="room for 3"):
        depict_batch([parse_smiles("CCO")], out)


def test_empty_batch():
    out = featurize_batch([], size=24)
    assert out.shape == (0, N_CHANNELS, 24, 24) and out.dtype == np.float32
    buf = np.empty((0, N_CHANNELS, 24, 24), dtype=np.float32)
    assert featurize_batch([], size=24, out=buf) is buf


def test_wrong_image_size_in_out_is_rejected():
    with pytest.raises(ValueError):
        featurize_batch(["CCO"], size=24, out=np.empty((1, N_CHANNELS, 32, 32), np.float32))


# ------------------------------------------------------------ end to end


def test_streamed_screen_equals_reference_featurization(monkeypatch, tmp_path):
    """Train, stream, select and dock under the reference featurization,
    then under the batch kernel fed by the prefetch thread: same rows."""
    train = generate_library(16, seed=30, name="train")
    # 37-record shards against batch_size=16: every shard ends in a
    # padded partial batch and no batch is a whole kernel chunk
    paths = write_library_shards(tmp_path / "shards", 100, seed=29, shard_size=37)

    def run(tag: str):
        surrogate = train_surrogate(
            train.smiles(),
            np.random.default_rng(29).normal(loc=-7.0, size=len(train)),
            TrainConfig(epochs=3, width=4),
            seed=29,
        )
        engine = DockingEngine(
            make_receptor("3CLPro"),
            seed=5,
            config=LGAConfig(population=8, generations=3, local_search_rate=0.3),
        )
        ckpt = tmp_path / tag
        result = run_streamed_screen(
            engine, surrogate, paths, keep_top=6, checkpoint_dir=ckpt,
            dock_shard_size=4, batch_size=16,
        )
        # decoded rows: the gzip header carries a timestamp; scores are
        # exact floats in the JSON lines
        artifacts = {
            p.name: load_artifact(p) for p in sorted(ckpt.rglob("*.scores.jsonl.gz"))
        }
        return result, artifacts

    with monkeypatch.context() as patch:
        oracle.install(patch)
        assert infer.featurize_batch is oracle.featurize_batch
        want, want_artifacts = run("reference")
    got, got_artifacts = run("batch")
    assert got.records_streamed == want.records_streamed == 100
    assert got.selected == want.selected
    assert got.docked == want.docked
    assert len(got_artifacts) == 3 and got_artifacts == want_artifacts
