"""Tests for Solis–Wets and ADADELTA local search."""

import numpy as np
import pytest

from repro.chem.smiles import parse_smiles
from repro.docking.lga import _random_quaternions
from repro.docking.ligand import Pose, prepare_ligand
from repro.docking.local_search import (
    Adadelta,
    AdadeltaConfig,
    SolisWets,
    SolisWetsConfig,
)
from repro.docking.receptor import make_receptor
from repro.docking.scoring import score_pose
from repro.util.rng import rng_stream
from tests.docking import oracle
from tests.docking.oracle import random_quaternion


@pytest.fixture(scope="module")
def receptor():
    return make_receptor("PLPro", "6W9C", seed=7)


@pytest.fixture(scope="module")
def beads():
    return prepare_ligand(parse_smiles("c1ccncc1CC(=O)O"), rng_stream(0, "t/ls"))


def _start_pose():
    rng = rng_stream(1, "t/ls-pose")
    return Pose(0, rng.uniform(-3, 3, size=3), random_quaternion(rng))


@pytest.mark.parametrize("method", [SolisWets(), Adadelta()])
def test_refinement_never_worsens(receptor, beads, method):
    pose = _start_pose()
    before = score_pose(receptor, beads, pose).total
    out = method.refine(receptor, beads, pose, rng_stream(2, "t/ls-run"))
    assert out.score <= before + 1e-9
    # the returned score is consistent with re-scoring the returned pose
    assert score_pose(receptor, beads, out.pose).total == out.score


@pytest.mark.parametrize("method", [SolisWets(), Adadelta()])
def test_refinement_actually_improves(receptor, beads, method):
    pose = _start_pose()
    before = score_pose(receptor, beads, pose).total
    out = method.refine(receptor, beads, pose, rng_stream(3, "t/ls-run2"))
    assert out.score < before  # from a random pose there is always downhill


def test_solis_wets_deterministic(receptor, beads):
    pose = _start_pose()
    a = SolisWets().refine(receptor, beads, pose, rng_stream(4, "t/sw"))
    b = SolisWets().refine(receptor, beads, pose, rng_stream(4, "t/sw"))
    assert a.score == b.score


def test_adadelta_ignores_rng(receptor, beads):
    pose = _start_pose()
    a = Adadelta().refine(receptor, beads, pose, rng_stream(5, "t/ad1"))
    b = Adadelta().refine(receptor, beads, pose, rng_stream(99, "t/ad2"))
    assert a.score == b.score


def test_eval_counting(receptor, beads):
    pose = _start_pose()
    ad = Adadelta(AdadeltaConfig(max_iters=10)).refine(
        receptor, beads, pose, rng_stream(6, "t/cnt")
    )
    assert ad.n_evals == 11  # initial + one per iteration
    sw = SolisWets(SolisWetsConfig(max_iters=10)).refine(
        receptor, beads, pose, rng_stream(6, "t/cnt")
    )
    # initial + up to 2 per iteration (forward + mirrored), unless early stop
    assert 11 <= sw.n_evals <= 21


def test_batch_refinement_matches_interface(receptor, beads):
    rng = rng_stream(7, "t/batchls")
    k = 5
    conf = rng.integers(beads.n_conformers, size=k)
    trans = rng.uniform(-3, 3, size=(k, 3))
    quats = _random_quaternions(rng, k)
    out = Adadelta().refine_batch(
        receptor, beads, conf, trans, quats, rng_stream(8, "t/b")
    )
    assert out.translations.shape == (k, 3)
    assert out.quaternions.shape == (k, 4)
    assert out.scores.shape == (k,)
    np.testing.assert_allclose(np.linalg.norm(out.quaternions, axis=1), 1.0)


FLEXIBLE = "c1ccc(cc1)c1ccc(CCC(=O)O)cc1"


@pytest.mark.parametrize("name", ["solis-wets", "adadelta"])
@pytest.mark.parametrize("smiles", ["c1ccc2ccccc2c1", FLEXIBLE], ids=["rigid", "flexible"])
@pytest.mark.parametrize("k", [1, 5, 16])
def test_refine_batch_matches_oracle_bitwise(receptor, name, smiles, k):
    """The pack-of-one call into ``refine_packed`` against the per-ligand
    loops that shipped as ``refine_batch`` — every output array and
    ``n_evals``, with torsion genes given and (flexible ligand started
    from zeros) omitted."""
    from repro.docking.local_search import local_search_named

    beads = prepare_ligand(parse_smiles(smiles), rng_stream(0, "t/ls-id"))
    assert (beads.n_torsions > 0) == (smiles == FLEXIBLE)
    rng = rng_stream(11, f"t/ls-id/{k}")
    conf = rng.integers(beads.n_conformers, size=k)
    trans = rng.uniform(-4, 4, size=(k, 3))
    quats = _random_quaternions(rng, k)
    angles = rng.uniform(-np.pi, np.pi, size=(k, beads.n_torsions))
    method = local_search_named(name)
    reference = {"solis-wets": oracle.SolisWets, "adadelta": oracle.Adadelta}[name]()
    for tors in (angles, None):
        got = method.refine_batch(
            receptor, beads, conf, trans, quats, rng_stream(12, "t/ls-id/run"), tors
        )
        want = reference.refine_batch(
            receptor, beads, conf, trans, quats, rng_stream(12, "t/ls-id/run"), tors
        )
        assert np.array_equal(got.translations, want.translations)
        assert np.array_equal(got.quaternions, want.quaternions)
        assert np.array_equal(got.scores, want.scores)
        assert got.n_evals == want.n_evals
        if beads.n_torsions:
            assert np.array_equal(got.torsion_angles, want.torsion_angles)
        else:
            assert got.torsion_angles is None and want.torsion_angles is None


def test_adadelta_beats_solis_wets_at_matched_budget(receptor, beads):
    """The §5.1.1 claim: gradient local search improves docking quality."""
    rng = rng_stream(9, "t/quality")
    k = 12
    conf = rng.integers(beads.n_conformers, size=k)
    trans = rng.uniform(-5, 5, size=(k, 3))
    quats = _random_quaternions(rng, k)
    # SW uses 2 evals/iter, so 20 SW iters ≈ 40 AD iters in budget
    ad = Adadelta(AdadeltaConfig(max_iters=40)).refine_batch(
        receptor, beads, conf, trans.copy(), quats.copy(), rng_stream(10, "t/ad")
    )
    sw = SolisWets(SolisWetsConfig(max_iters=20)).refine_batch(
        receptor, beads, conf, trans.copy(), quats.copy(), rng_stream(10, "t/sw")
    )
    assert ad.scores.mean() < sw.scores.mean()


def test_config_validation():
    with pytest.raises(ValueError):
        AdadeltaConfig(max_iters=0)
    with pytest.raises(ValueError):
        SolisWetsConfig(rho_trans=-1)
