"""Tests for molecular descriptors and partial charges."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chem.descriptors import compute_descriptors, partial_charges
from repro.chem.library import _random_molecule
from repro.chem.smiles import parse_smiles
from repro.util.rng import rng_stream


def test_molecular_weight_benzene():
    d = compute_descriptors(parse_smiles("c1ccccc1"))
    assert d.molecular_weight == pytest.approx(78.11, abs=0.1)


def test_molecular_weight_ethanol():
    d = compute_descriptors(parse_smiles("CCO"))
    assert d.molecular_weight == pytest.approx(46.07, abs=0.05)


def test_hbd_hba_counting():
    # benzoic acid: OH donor; two oxygens accept
    d = compute_descriptors(parse_smiles("OC(=O)c1ccccc1"))
    assert d.hbd == 1
    assert d.hba == 2
    # aniline: NH2 donor + acceptor
    d2 = compute_descriptors(parse_smiles("Nc1ccccc1"))
    assert d2.hbd == 1
    assert d2.hba == 1


def test_ring_counts():
    d = compute_descriptors(parse_smiles("c1ccc2ccccc2c1"))
    assert d.rings == 2
    assert d.aromatic_rings == 2
    d2 = compute_descriptors(parse_smiles("C1CCCCC1"))
    assert d2.rings == 1
    assert d2.aromatic_rings == 0


def test_rotatable_bonds():
    # butane has one rotatable (central) bond
    assert compute_descriptors(parse_smiles("CCCC")).rotatable_bonds == 1
    # biphenyl: the inter-ring bond rotates
    assert compute_descriptors(parse_smiles("c1ccc(cc1)c1ccccc1")).rotatable_bonds == 1
    # benzene: none
    assert compute_descriptors(parse_smiles("c1ccccc1")).rotatable_bonds == 0


def test_logp_orders_hydrophobicity():
    hexane = compute_descriptors(parse_smiles("CCCCCC")).logp
    glycol = compute_descriptors(parse_smiles("OCCO")).logp
    assert hexane > glycol


def test_tpsa_zero_for_hydrocarbon():
    assert compute_descriptors(parse_smiles("CCCC")).tpsa == 0.0
    assert compute_descriptors(parse_smiles("CCO")).tpsa > 0.0


def test_formal_charge():
    assert compute_descriptors(parse_smiles("CC(=O)[O-]")).formal_charge == -1
    assert compute_descriptors(parse_smiles("C[N+](C)(C)C")).formal_charge == 1


def test_lipinski_violations():
    small = compute_descriptors(parse_smiles("CCO"))
    assert small.lipinski_violations() == 0


def test_partial_charges_sum_to_formal_charge():
    for smi in ["CCO", "CC(=O)[O-]", "C[N+](C)(C)C", "c1ccncc1"]:
        mol = parse_smiles(smi)
        q = partial_charges(mol)
        assert q.sum() == pytest.approx(sum(a.charge for a in mol.atoms), abs=1e-9)


def test_partial_charges_polarity_direction():
    mol = parse_smiles("CO")  # methanol: O more electronegative than C
    q = partial_charges(mol)
    o_idx = [a.index for a in mol.atoms if a.symbol == "O"][0]
    c_idx = [a.index for a in mol.atoms if a.symbol == "C"][0]
    assert q[o_idx] < q[c_idx]


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_descriptor_invariants_property(seed):
    mol = _random_molecule(rng_stream(seed, "test/desc"))
    d = compute_descriptors(mol)
    assert d.molecular_weight > 0
    assert d.heavy_atoms == mol.n_atoms
    assert 0 <= d.aromatic_rings <= d.rings
    assert d.hbd <= d.hba  # donors are N/O with H; acceptors all N/O
    assert np.isfinite([d.molecular_weight, d.logp, d.tpsa]).all()
