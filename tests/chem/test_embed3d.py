"""Tests for 3D conformer embedding."""

import numpy as np

from repro.chem.embed3d import BOND_LENGTH, embed_conformer
from repro.chem.smiles import parse_smiles
from repro.util.rng import rng_stream


def test_embedding_shape_and_centering():
    mol = parse_smiles("c1ccccc1CCO")
    pos = embed_conformer(mol, rng_stream(0, "t/embed"))
    assert pos.shape == (mol.n_atoms, 3)
    np.testing.assert_allclose(pos.mean(axis=0), 0.0, atol=1e-8)


def test_bonded_atoms_near_bond_length():
    mol = parse_smiles("CCCCCC")
    pos = embed_conformer(mol, rng_stream(1, "t/embed"))
    for bond in mol.bonds:
        d = np.linalg.norm(pos[bond.a] - pos[bond.b])
        assert abs(d - BOND_LENGTH) < 0.6


def test_nonbonded_atoms_separated():
    mol = parse_smiles("CCCCCC")
    pos = embed_conformer(mol, rng_stream(2, "t/embed"))
    n = mol.n_atoms
    for i in range(n):
        for j in range(i + 1, n):
            assert np.linalg.norm(pos[i] - pos[j]) > 0.5


def test_different_draws_give_different_conformers():
    mol = parse_smiles("CCCCCCCC")
    rng = rng_stream(3, "t/embed")
    a = embed_conformer(mol, rng)
    b = embed_conformer(mol, rng)
    assert not np.allclose(a, b)


def test_same_stream_reproducible():
    mol = parse_smiles("CCO")
    a = embed_conformer(mol, rng_stream(4, "t/embed"))
    b = embed_conformer(mol, rng_stream(4, "t/embed"))
    np.testing.assert_array_equal(a, b)


def test_single_atom():
    pos = embed_conformer(parse_smiles("C"), rng_stream(5, "t/embed"))
    assert pos.shape == (1, 3)
