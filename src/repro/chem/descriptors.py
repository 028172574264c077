"""Molecular descriptors.

These cover the quantities a chemist reads off a 2D depiction (the paper's
motivation for image featurization): molecular weight, H-bond donors and
acceptors, ring counts, rotatable bonds, a Crippen-style logP proxy and a
TPSA proxy.  They feed the surrogate's auxiliary features, library-diversity
selection, and bead typing for docking/MD.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.chem.mol import Molecule

__all__ = ["Descriptors", "compute_descriptors", "partial_charges"]


@dataclass(frozen=True)
class Descriptors:
    """Descriptor bundle for one molecule."""

    molecular_weight: float
    heavy_atoms: int
    hbd: int  # H-bond donors (N-H, O-H)
    hba: int  # H-bond acceptors (N, O)
    rings: int
    aromatic_rings: int
    rotatable_bonds: int
    logp: float
    tpsa: float
    formal_charge: int

    def lipinski_violations(self) -> int:
        """Rule-of-five violations (used by library filters)."""
        v = 0
        if self.molecular_weight > 500:
            v += 1
        if self.logp > 5:
            v += 1
        if self.hbd > 5:
            v += 1
        if self.hba > 10:
            v += 1
        return v


#: per-atom polar surface contributions (angstrom^2), coarse TPSA scheme
_TPSA_CONTRIB = {"N": 12.0, "O": 17.1, "S": 25.3, "P": 13.6}


def compute_descriptors(mol: Molecule) -> Descriptors:
    """Compute the descriptor bundle for a validated molecule."""
    weight = sum(a.element.weight for a in mol.atoms)
    weight += 1.008 * mol.total_hydrogens()

    hbd = 0
    hba = 0
    tpsa = 0.0
    logp = 0.0
    for atom in mol.atoms:
        h = mol.implicit_hydrogens(atom.index)
        if atom.symbol in ("N", "O"):
            hba += 1
            if h > 0:
                hbd += 1
        if atom.symbol in _TPSA_CONTRIB:
            tpsa += _TPSA_CONTRIB[atom.symbol] * (1.0 + 0.3 * h)
        # Crippen-flavoured logP: hydrophobic contribution per heavy atom,
        # hydrogens on carbon add lipophilicity, polar Hs subtract.
        logp += atom.element.hydrophobicity
        if atom.symbol == "C":
            logp += 0.12 * h
        elif atom.symbol in ("N", "O"):
            logp -= 0.15 * h
        logp -= 0.25 * abs(atom.charge)

    rings = mol.rings()
    aromatic_rings = sum(
        1 for ring in rings if all(mol.atoms[i].aromatic for i in ring)
    )

    bonds = {frozenset((bond.a, bond.b)) for bond in mol.bonds}
    ring_bonds = set()
    for ring in rings:
        for i, a in enumerate(ring):
            pair = frozenset((a, ring[(i + 1) % len(ring)]))
            if pair in bonds:
                ring_bonds.add(pair)
    rotatable = 0
    for bond in mol.bonds:
        if bond.order != 1 or bond.aromatic:
            continue
        if frozenset((bond.a, bond.b)) in ring_bonds:
            continue
        # terminal bonds (to degree-1 atoms) don't count as rotatable
        if mol.degree(bond.a) < 2 or mol.degree(bond.b) < 2:
            continue
        rotatable += 1

    return Descriptors(
        molecular_weight=weight,
        heavy_atoms=mol.n_atoms,
        hbd=hbd,
        hba=hba,
        rings=len(rings),
        aromatic_rings=aromatic_rings,
        rotatable_bonds=rotatable,
        logp=logp,
        tpsa=tpsa,
        formal_charge=sum(a.charge for a in mol.atoms),
    )


def partial_charges(mol: Molecule) -> np.ndarray:
    """Gasteiger-flavoured partial charges from electronegativity flow.

    One round of charge equalization per bond, iterated with damping: each
    bond moves charge from the less to the more electronegative endpoint,
    with formal charges added on top.  Cheap, smooth and adequate for the
    bead electrostatics in docking and MD.
    """
    n = mol.n_atoms
    q = np.array([float(a.charge) for a in mol.atoms])
    chi = np.array([a.element.electronegativity for a in mol.atoms])
    damp = 0.12
    for _ in range(6):
        dq = np.zeros(n)
        for bond in mol.bonds:
            delta = chi[bond.b] - chi[bond.a]
            flow = damp * delta * bond.valence()
            dq[bond.a] += flow
            dq[bond.b] -= flow
        q = q + dq
        damp *= 0.5
    # re-centre so the total equals the formal charge exactly
    total = sum(a.charge for a in mol.atoms)
    q += (total - q.sum()) / max(1, n)
    return q
