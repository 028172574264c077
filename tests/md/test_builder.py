"""Tests for the LPC builder."""

import numpy as np
import pytest

from repro.chem.smiles import parse_smiles
from repro.docking.receptor import make_receptor
from repro.md.builder import OUTER_R, POCKET_R, build_lpc, build_protein_fold
from repro.util.rng import rng_stream


@pytest.fixture(scope="module")
def receptor():
    return make_receptor("PLPro", "6W9C", seed=7)


@pytest.fixture(scope="module")
def mol():
    return parse_smiles("c1ccccc1CC(=O)O")


def test_fold_geometry():
    pos = build_protein_fold(100, rng_stream(0, "t/fold"))
    assert pos.shape == (100, 3)
    radii = np.linalg.norm(pos, axis=1)
    # shell constraint: nothing deep inside the pocket cavity
    assert radii.min() > POCKET_R - 1.0
    assert radii.max() < OUTER_R + 1.0
    # chain connectivity: consecutive beads at the Cα bond length
    steps = np.linalg.norm(np.diff(pos, axis=0), axis=1)
    np.testing.assert_allclose(steps, 3.8, atol=0.01)


def test_fold_self_avoiding_mostly():
    pos = build_protein_fold(120, rng_stream(1, "t/fold2"))
    d = np.linalg.norm(pos[:, None] - pos[None, :], axis=-1)
    np.fill_diagonal(d, np.inf)
    # the walk keeps nearly all non-neighbour pairs separated
    i, j = np.triu_indices(120, k=2)
    close = (d[i, j] < 3.0).sum()
    assert close < 12


def test_fold_deterministic():
    a = build_protein_fold(50, rng_stream(2, "t/fold3"))
    b = build_protein_fold(50, rng_stream(2, "t/fold3"))
    np.testing.assert_array_equal(a, b)


def test_fold_validates():
    with pytest.raises(ValueError):
        build_protein_fold(2, rng_stream(0, "x"))


def test_lpc_structure(receptor, mol):
    coords = rng_stream(3, "t/lig").normal(scale=2.0, size=(mol.n_atoms, 3))
    system = build_lpc(receptor, mol, coords, seed=0, n_residues=80)
    topo = system.topology
    assert system.n_atoms == 80 + mol.n_atoms
    assert len(topo.protein_atoms) == 80
    assert len(topo.ligand_atoms) == mol.n_atoms
    # ligand bonds present: graph bonds mapped with the offset
    ligand_bond_count = sum(
        1 for b in topo.bonds if b[0] >= 80 and b[1] >= 80
    )
    assert ligand_bond_count == mol.n_bonds


def test_lpc_same_receptor_same_fold(receptor, mol):
    coords = rng_stream(4, "t/lig2").normal(scale=2.0, size=(mol.n_atoms, 3))
    a = build_lpc(receptor, mol, coords, seed=0, n_residues=60)
    b = build_lpc(receptor, mol, coords, seed=0, n_residues=60)
    np.testing.assert_array_equal(
        a.positions[a.topology.protein_atoms], b.positions[b.topology.protein_atoms]
    )


def test_lpc_different_targets_different_folds(mol):
    coords = rng_stream(5, "t/lig3").normal(scale=2.0, size=(mol.n_atoms, 3))
    a = build_lpc(make_receptor("PLPro", seed=7), mol, coords, seed=0, n_residues=60)
    b = build_lpc(make_receptor("3CLPro", seed=7), mol, coords, seed=0, n_residues=60)
    assert not np.allclose(
        a.positions[a.topology.protein_atoms], b.positions[b.topology.protein_atoms]
    )


def test_lpc_pocket_lining_inherits_receptor_sites(receptor, mol):
    """Residues near receptor sites must carry the site parameters."""
    coords = np.zeros((mol.n_atoms, 3))
    system = build_lpc(receptor, mol, coords, seed=0, n_residues=100)
    topo = system.topology
    site_pos = np.stack([s.position for s in receptor.sites])
    site_charges = {round(s.charge, 9) for s in receptor.sites}
    ppos = system.positions[topo.protein_atoms]
    d = np.linalg.norm(ppos[:, None] - site_pos[None], axis=-1)
    lining = d.min(axis=1) < 6.0
    if lining.any():
        lining_charges = topo.charges[topo.protein_atoms][lining]
        assert any(round(c, 9) in site_charges for c in lining_charges)


def test_lpc_validates_coords_shape(receptor, mol):
    with pytest.raises(ValueError):
        build_lpc(receptor, mol, np.zeros((3, 3)), seed=0)


def test_lpc_is_simulable(receptor, mol):
    """Integration: a built LPC minimizes and runs stably."""
    from repro.md.forcefield import ForceField
    from repro.md.integrator import Langevin
    from repro.md.minimize import minimize
    from repro.md.observables import kabsch_rmsd
    from repro.md.trajectory import simulate

    coords = rng_stream(6, "t/lig4").normal(scale=2.0, size=(mol.n_atoms, 3))
    system = build_lpc(receptor, mol, coords, seed=0, n_residues=60)
    ff = ForceField()
    minimize(system, ff, max_iterations=40)
    system.initialize_velocities(300.0, rng_stream(7, "t/vel"))
    traj = simulate(system, ff, Langevin(), 60, rng_stream(8, "t/run"), record_every=20)
    prot = system.topology.protein_atoms
    ref = system.reference_positions[prot]
    # Gō restraints keep the fold near native
    assert max(kabsch_rmsd(f, ref) for f in traj.frames[:, prot]) < 5.0
    assert np.isfinite(traj.potential_energies).all()
