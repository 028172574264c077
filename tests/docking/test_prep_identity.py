"""Ligand prep on ``repro.chem.graph`` against the ``networkx`` prep.

Torsion trees (axis atoms and moving sets) and intra-ligand pair lists
are the docking kernels' static inputs; any difference in them moves
every pose downstream.  The reference is ``tests/docking/oracle.py``'s
``find_torsions`` / ``prepare_ligand``; every comparison is exact, dtype
included.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.chem.library import generate_library
from repro.chem.smiles import parse_smiles
from repro.docking import ligand
from repro.docking.ligand import find_torsions, prepare_ligand
from repro.util.rng import rng_stream
from tests.docking import oracle


@pytest.fixture(scope="module", params=[3, 5])
def library(request):
    return [parse_smiles(s) for s in generate_library(260, seed=request.param).smiles()]


def _tree(torsions):
    return [(t.a, t.b, t.moving.dtype, t.moving.tolist()) for t in torsions]


def _assert_beads_equal(got, want):
    for name in ("charges", "hydro", "radii", "conformers", "intra_pairs"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert np.array_equal(a, b), name
    assert _tree(got.torsions) == _tree(want.torsions)


def test_library_torsion_trees_equal_reference(library):
    for mol in library:
        assert _tree(find_torsions(mol)) == _tree(oracle.find_torsions(mol)), mol


def test_library_beads_equal_reference_with_stub_conformers(library, monkeypatch):
    # conformers are embed_conformer's, held to its reference in
    # tests/chem; a stub keeps 260 preps per side cheap
    def stub(mol, rng):
        return np.zeros((mol.n_atoms, 3))

    monkeypatch.setattr(ligand, "embed_conformer", stub)
    monkeypatch.setattr(oracle, "embed_conformer", stub)
    for mol in library:
        got = prepare_ligand(mol, None, n_conformers=1)
        _assert_beads_equal(got, oracle.prepare_ligand(mol, None, n_conformers=1))


def test_prepared_beads_equal_reference(library):
    for i, mol in enumerate(library[::8]):
        got = prepare_ligand(mol, rng_stream(4, f"t/prep/{i}"), n_conformers=2)
        want = oracle.prepare_ligand(mol, rng_stream(4, f"t/prep/{i}"), n_conformers=2)
        _assert_beads_equal(got, want)


def test_fragment_without_long_pairs_has_an_empty_int_pair_table():
    for smiles in ("C", "CC", "CCC", "C(C)(C)C"):
        mol = parse_smiles(smiles)
        got = prepare_ligand(mol, rng_stream(4, smiles), n_conformers=1)
        want = oracle.prepare_ligand(mol, rng_stream(4, smiles), n_conformers=1)
        assert got.intra_pairs.shape == (0, 2)
        _assert_beads_equal(got, want)
