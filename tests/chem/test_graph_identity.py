"""``repro.chem.graph`` against ``networkx``, to the list order.

Ring lists feed aromaticity, torsion trees, descriptors and depiction, and
a cycle basis depends on traversal order: the same rings in another order
or rotation would move every downstream digest.  So each comparison here
is ``==`` on lists and ``np.array_equal`` on arrays — on the generated
libraries through ``Molecule`` and the reference bodies in
``tests/chem/oracle.py``, and on generated graphs against ``networkx``
directly.
"""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chem.descriptors import compute_descriptors
from repro.chem.embed3d import _target_distances, embed_conformer
from repro.chem.graph import adjacency, components, cycle_basis, hop_counts, reachable
from repro.chem.library import generate_library
from repro.chem.mol import Atom, Molecule
from repro.chem.smiles import parse_smiles
from repro.util.rng import rng_stream
from tests.chem import oracle


@pytest.fixture(scope="module", params=[3, 5])
def library(request) -> list[Molecule]:
    return [parse_smiles(s) for s in generate_library(260, seed=request.param).smiles()]


def test_library_rings_connectivity_and_targets_equal_reference(library):
    for mol in library:
        assert mol.rings() == oracle.rings(mol), mol
        assert mol.is_connected() is oracle.is_connected(mol) is True
        assert np.array_equal(_target_distances(mol), oracle._target_distances(mol))


def test_library_descriptors_and_conformers_equal_reference(library, monkeypatch):
    descriptors = [compute_descriptors(mol) for mol in library]
    conformers = [
        embed_conformer(mol, rng_stream(7, f"t/graph/{i}"))
        for i, mol in enumerate(library[::4])
    ]
    oracle.install(monkeypatch)
    assert [compute_descriptors(mol) for mol in library] == descriptors
    for i, (mol, want) in enumerate(zip(library[::4], conformers)):
        assert np.array_equal(embed_conformer(mol, rng_stream(7, f"t/graph/{i}")), want)


HAND_CASES = {
    "cubane": "C12C3C4C1C5C2C3C45",
    "naphthalene (fused)": "c1ccc2ccccc2c1",
    "norbornane (bridged)": "C1CC2CCC1C2",
    "spiro": "C1CCC2(C1)CCCC2",
    "biphenyl": "c1ccccc1-c1ccccc1",
    "macrocycle": "C1CCCCCCCCCCC1",
    "chain": "CCCCO",
    "single atom": "C",
}


@pytest.mark.parametrize("name", sorted(HAND_CASES))
def test_hand_cases_equal_reference(name):
    mol = parse_smiles(HAND_CASES[name])
    assert mol.rings() == oracle.rings(mol)
    assert np.array_equal(_target_distances(mol), oracle._target_distances(mol))


def test_cubane_basis_is_fundamental_not_smallest():
    mol = parse_smiles(HAND_CASES["cubane"])
    assert sorted(len(ring) for ring in mol.rings()) == [4, 4, 4, 4, 6]


def _fragments(*sizes: int) -> Molecule:
    """Disjoint carbon rings (size >= 3) or chains (size < 3), built directly."""
    mol = Molecule()
    for size in sizes:
        first = mol.n_atoms
        for _ in range(size):
            mol.add_atom(Atom("C"))
        for i in range(first, first + size - 1):
            mol.add_bond(i, i + 1)
        if size >= 3:
            mol.add_bond(first, first + size - 1)
    return mol


@pytest.mark.parametrize("sizes", [(), (1,), (2,), (1, 1), (5, 2), (2, 6, 1, 4)])
def test_disconnected_and_trivial_molecules_equal_reference(sizes):
    mol = _fragments(*sizes)
    assert mol.rings() == oracle.rings(mol)
    assert mol.is_connected() is oracle.is_connected(mol)
    assert np.array_equal(_target_distances(mol), oracle._target_distances(mol))


# ----------------------------------------------------- generated graphs


@st.composite
def simple_graphs(draw, max_nodes: int = 40) -> tuple[int, list[tuple[int, int]]]:
    """Random simple graphs: a forest, with or without extra edges.

    The extra edges close rings inside a tree (fused and bridged systems)
    or join trees; both edge orientations occur, since insertion order
    and orientation fix each node's neighbour order.
    """
    n = draw(st.integers(0, max_nodes))
    edges: list[tuple[int, int]] = []
    seen: set[frozenset[int]] = set()

    def add(a: int, b: int) -> None:
        if a != b and frozenset((a, b)) not in seen:
            seen.add(frozenset((a, b)))
            edges.append((a, b))

    for v in range(1, n):
        if draw(st.booleans()) or draw(st.booleans()):  # ~3/4 attach: forests
            parent = draw(st.integers(0, v - 1))
            add(*((v, parent) if draw(st.booleans()) else (parent, v)))
    if n >= 2:
        node = st.integers(0, n - 1)
        for a, b in draw(st.lists(st.tuples(node, node), max_size=n)):
            add(a, b)
    order = draw(st.permutations(range(len(edges))))
    return n, [edges[i] for i in order]


def _nx_graph(n: int, edges: list[tuple[int, int]]) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    return g


@settings(max_examples=300, deadline=None)
@given(simple_graphs())
def test_generated_graphs_equal_networkx(graph):
    n, edges = graph
    g = _nx_graph(n, edges)
    adj = adjacency(n, edges)
    assert cycle_basis(adj) == nx.cycle_basis(g)
    assert components(adj) == list(nx.connected_components(g))
    for cutoff in (None, 2):
        want = np.full((n, n), -1)
        for i, lengths in nx.all_pairs_shortest_path_length(g, cutoff=cutoff):
            for j, hops in lengths.items():
                want[i, j] = hops
        assert np.array_equal(hop_counts(adj, cutoff=cutoff), want)
    for a, b in edges:
        h = g.copy()
        h.remove_edge(a, b)
        for cut in ((a, b), (b, a)):
            assert reachable(adj, b, cut=cut) == nx.node_connected_component(h, b)
            assert reachable(adj, a, cut=cut) == nx.node_connected_component(h, a)
