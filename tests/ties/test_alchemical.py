"""Tests for the alchemical hybrid-ligand construction."""

import numpy as np
import pytest

from repro.chem.graph import adjacency, components
from repro.chem.mol import Atom, Molecule
from repro.chem.smiles import parse_smiles
from repro.ties.alchemical import GHOST_RADIUS, build_hybrid


def test_same_size_endpoints():
    a = parse_smiles("c1ccccc1CC(=O)O")
    b = parse_smiles("c1ccccc1CC(=O)N")
    h = build_hybrid(a, b)
    assert h.n_beads == a.n_atoms == b.n_atoms
    assert h.n_a == a.n_atoms and h.n_b == b.n_atoms


def test_different_size_endpoints_pad_with_ghosts():
    a = parse_smiles("c1ccccc1")  # 6 atoms
    b = parse_smiles("c1ccccc1CCO")  # 9 atoms
    h = build_hybrid(a, b)
    assert h.n_beads == 9
    # A-endpoint ghosts: zero charge/hydro, ghost radius
    assert (h.radii_a[6:] == GHOST_RADIUS).all()
    np.testing.assert_allclose(h.charges_a[6:], 0.0)
    np.testing.assert_allclose(h.hydro_a[6:], 0.0)
    # B endpoint fully real
    assert (h.radii_b > GHOST_RADIUS).all()


def test_parameters_interpolate_linearly():
    a = parse_smiles("CCO")
    b = parse_smiles("CCN")
    h = build_hybrid(a, b)
    q0, h0, r0 = h.parameters_at(0.0)
    q1, h1, r1 = h.parameters_at(1.0)
    qm, hm, rm = h.parameters_at(0.5)
    np.testing.assert_allclose(qm, (q0 + q1) / 2)
    np.testing.assert_allclose(hm, (h0 + h1) / 2)
    np.testing.assert_allclose(rm, (r0 + r1) / 2)


def test_endpoint_params_match_molecules():
    from repro.chem.descriptors import partial_charges

    a = parse_smiles("CCO")
    b = parse_smiles("CCN")
    h = build_hybrid(a, b)
    q0, _, _ = h.parameters_at(0.0)
    np.testing.assert_allclose(sorted(q0), sorted(partial_charges(a)), atol=1e-12)


def test_lambda_out_of_range_rejected():
    h = build_hybrid(parse_smiles("CC"), parse_smiles("CO"))
    with pytest.raises(ValueError):
        h.parameters_at(1.5)
    with pytest.raises(ValueError):
        h.parameters_at(-0.1)


def test_bond_union_connected():
    a = parse_smiles("c1ccccc1C")
    b = parse_smiles("c1ccccc1CCC")
    h = build_hybrid(a, b)
    assert len(components(adjacency(h.n_beads, h.bonds.tolist()))) == 1


def test_stray_components_join_the_first_in_networkx_order():
    """Disconnected endpoints: each later component bonds weakly to the
    lowest bead of the first, components ordered as networkx orders them."""
    import networkx as nx

    mol = Molecule()
    for symbol in "CCOCCNC":
        mol.add_atom(Atom(symbol))
    for a, b in ((0, 1), (3, 4), (4, 6)):
        mol.add_bond(a, b)
    h = build_hybrid(mol, mol)
    weak = h.bond_lengths == 2.5
    g = nx.Graph()
    g.add_nodes_from(range(h.n_beads))
    g.add_edges_from(map(tuple, h.bonds[~weak]))
    comps = list(nx.connected_components(g))
    assert len(comps) == 4
    assert h.bonds[weak].tolist() == [[min(comps[0]), min(c)] for c in comps[1:]]
    assert len(components(adjacency(h.n_beads, h.bonds.tolist()))) == 1


def test_identity_hybrid_is_constant_in_lambda():
    a = parse_smiles("c1ccncc1CC(=O)O")
    h = build_hybrid(a, a)
    q0, h0, r0 = h.parameters_at(0.0)
    q1, h1, r1 = h.parameters_at(1.0)
    np.testing.assert_allclose(q0, q1)
    np.testing.assert_allclose(r0, r1)
