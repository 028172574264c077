"""Alchemical hybrid systems for thermodynamic integration.

TIES transforms ligand A into ligand B along a coupling parameter λ.
We use a single-topology-style interpolation over the bead model: the
hybrid ligand has ``max(nA, nB)`` beads whose charges, hydrophobicities
and radii interpolate between the endpoints; beads present in only one
endpoint "grow in"/"vanish" by interpolating against a ghost parameter
set (zero charge/hydrophobicity, minimal radius), which the soft-core
short-range cap in the force field keeps numerically stable — the role
soft-core potentials play in production TI codes.

Atom mapping uses a greedy common-scaffold heuristic: beads are matched
in canonical-rank order, which aligns the shared scaffold of congeneric
pairs (the setting TIES is used in: lead *optimization* over small
modifications).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.chem.descriptors import partial_charges
from repro.chem.graph import adjacency, components
from repro.chem.mol import Molecule
from repro.chem.smiles import canonical_ranks

__all__ = ["HybridLigand", "build_hybrid", "GHOST_RADIUS"]

#: radius of a fully decoupled (ghost) bead — small but nonzero so the
#: LJ term stays finite under the force field's min-distance cap
GHOST_RADIUS = 0.6


@dataclass
class HybridLigand:
    """Endpoint parameter sets for the alchemical ligand.

    All arrays have length ``n_beads = max(nA, nB)``; parameters at a
    given λ are ``(1−λ)·A + λ·B``.
    """

    charges_a: np.ndarray
    charges_b: np.ndarray
    hydro_a: np.ndarray
    hydro_b: np.ndarray
    radii_a: np.ndarray
    radii_b: np.ndarray
    bonds: np.ndarray  # (nb, 2) union of both endpoint bond sets
    bond_lengths: np.ndarray
    n_a: int
    n_b: int

    @property
    def n_beads(self) -> int:
        """Bead count of the hybrid ligand."""
        return len(self.charges_a)

    def parameters_at(self, lam: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(charges, hydro, radii) of the hybrid at coupling ``lam``."""
        if not 0.0 <= lam <= 1.0:
            raise ValueError(f"lambda must be in [0, 1], got {lam}")
        charges = (1 - lam) * self.charges_a + lam * self.charges_b
        hydro = (1 - lam) * self.hydro_a + lam * self.hydro_b
        radii = (1 - lam) * self.radii_a + lam * self.radii_b
        return charges, hydro, radii


def _endpoint_params(mol: Molecule) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    charges = partial_charges(mol)
    hydro = np.array([a.element.hydrophobicity for a in mol.atoms])
    radii = np.array([a.element.radius for a in mol.atoms])
    return charges, hydro, radii


def build_hybrid(mol_a: Molecule, mol_b: Molecule) -> HybridLigand:
    """Construct the hybrid ligand for the A→B transformation."""
    n_a, n_b = mol_a.n_atoms, mol_b.n_atoms
    n = max(n_a, n_b)

    # map beads by canonical rank so shared scaffolds align
    perm_a = np.argsort(canonical_ranks(mol_a), kind="stable")
    perm_b = np.argsort(canonical_ranks(mol_b), kind="stable")

    qa, ha, ra = _endpoint_params(mol_a)
    qb, hb, rb = _endpoint_params(mol_b)

    charges_a = np.zeros(n)
    charges_b = np.zeros(n)
    hydro_a = np.zeros(n)
    hydro_b = np.zeros(n)
    radii_a = np.full(n, GHOST_RADIUS)
    radii_b = np.full(n, GHOST_RADIUS)

    charges_a[:n_a] = qa[perm_a]
    hydro_a[:n_a] = ha[perm_a]
    radii_a[:n_a] = ra[perm_a]
    charges_b[:n_b] = qb[perm_b]
    hydro_b[:n_b] = hb[perm_b]
    radii_b[:n_b] = rb[perm_b]

    # bonds: union over both endpoints in hybrid indexing; rest lengths
    # from whichever endpoint defines the bond (A wins ties)
    inv_a = {int(p): i for i, p in enumerate(perm_a)}
    inv_b = {int(p): i for i, p in enumerate(perm_b)}
    bond_map: dict[frozenset[int], float] = {}
    from repro.chem.embed3d import BOND_LENGTH

    for bond in mol_b.bonds:
        key = frozenset((inv_b[bond.a], inv_b[bond.b]))
        bond_map[key] = BOND_LENGTH
    for bond in mol_a.bonds:
        key = frozenset((inv_a[bond.a], inv_a[bond.b]))
        bond_map[key] = BOND_LENGTH
    pairs = sorted(tuple(sorted(k)) for k in bond_map)
    bonds = np.array(pairs, dtype=int) if pairs else np.zeros((0, 2), dtype=int)
    lengths = np.array([bond_map[frozenset(p)] for p in pairs])

    # guard against disconnected hybrid graphs (possible when endpoints
    # differ wildly): connect stray beads to bead 0 with weak bonds
    if len(bonds):
        comps = components(adjacency(n, bonds.tolist()))
        if len(comps) > 1:
            extra = []
            anchor = min(comps[0])
            for comp in comps[1:]:
                extra.append((anchor, min(comp)))
            bonds = np.concatenate([bonds, np.array(extra, dtype=int)])
            lengths = np.concatenate([lengths, np.full(len(extra), 2.5)])

    return HybridLigand(
        charges_a=charges_a,
        charges_b=charges_b,
        hydro_a=hydro_a,
        hydro_b=hydro_b,
        radii_a=radii_a,
        radii_b=radii_b,
        bonds=bonds,
        bond_lengths=lengths,
        n_a=n_a,
        n_b=n_b,
    )
