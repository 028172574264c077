"""Build protein–ligand complex (LPC) systems.

The protein is a Gō-model Cα chain folded into a globular shell around
the binding pocket; the ligand beads come from the molecular graph and
start at the docked pose.  Crucially, the builder takes the *docking
receptor* as input and transfers its pocket-site charges and
hydrophobicities onto the nearest pocket-lining residues — so a compound
that docks well against the grid also tends to interact favourably in
MD.  That coupling is what makes the staged pipeline meaningful: S1, S3
and S2 all see the same physics at different fidelities.
"""

from __future__ import annotations

import numpy as np

from repro.chem.descriptors import partial_charges
from repro.chem.mol import Molecule
from repro.docking.receptor import Receptor
from repro.md.system import MDSystem, Topology
from repro.util.rng import RngFactory

__all__ = ["build_protein_fold", "build_lpc"]

#: Cα–Cα virtual bond length (angstrom)
CA_BOND = 3.8

#: shell geometry: protein occupies r ∈ [POCKET_R, OUTER_R] around origin
POCKET_R = 6.0
OUTER_R = 16.0


def build_protein_fold(
    n_residues: int, rng: np.random.Generator, max_attempts: int = 200
) -> np.ndarray:
    """Generate a compact Cα fold with a cavity at the origin.

    Self-avoiding random walk constrained to a spherical shell: every
    bead sits between ``POCKET_R`` and ``OUTER_R`` from the origin (the
    pocket) and at least 3.4 Å from every earlier bead.  Constraints are
    progressively relaxed if the walk jams, so generation always succeeds.
    """
    if n_residues < 4:
        raise ValueError("need at least 4 residues")
    pos = np.empty((n_residues, 3))
    # start on the shell midline
    start_dir = rng.normal(size=3)
    start_dir /= np.linalg.norm(start_dir)
    pos[0] = start_dir * (POCKET_R + OUTER_R) / 2.0

    min_sep = 3.4
    # self-avoiding random walk: residue i is placed relative to residue
    # i-1 with rejection against all earlier positions — a genuine
    # recurrence, not an elementwise traversal
    for i in range(1, n_residues):  # repro: disable=vectorization -- true recurrence
        placed = False
        sep = min_sep
        for attempt in range(max_attempts):
            step = rng.normal(size=3)
            step *= CA_BOND / np.linalg.norm(step)
            cand = pos[i - 1] + step
            radius = np.linalg.norm(cand)
            if not (POCKET_R <= radius <= OUTER_R):
                continue
            if i > 1:
                d = np.linalg.norm(pos[: i - 1] - cand, axis=1)
                if d.min() < sep:
                    continue
            pos[i] = cand
            placed = True
            break
        if not placed:
            # relax self-avoidance and retry once more permissively
            for attempt in range(max_attempts):
                step = rng.normal(size=3)
                step *= CA_BOND / np.linalg.norm(step)
                cand = pos[i - 1] + step
                radius = np.linalg.norm(cand)
                if POCKET_R <= radius <= OUTER_R:
                    pos[i] = cand
                    placed = True
                    break
            if not placed:
                # final fallback: radial correction of an unconstrained step
                step = rng.normal(size=3)
                step *= CA_BOND / np.linalg.norm(step)
                cand = pos[i - 1] + step
                radius = np.linalg.norm(cand)
                target = np.clip(radius, POCKET_R, OUTER_R)
                pos[i] = cand * (target / max(radius, 1e-9))
    return pos


def _native_contacts(
    positions: np.ndarray, cutoff: float = 8.0, min_separation: int = 3
) -> np.ndarray:
    """Residue pairs forming the Gō elastic network: spatially close in
    the native fold but distant along the chain."""
    n = len(positions)
    d = np.linalg.norm(positions[:, None] - positions[None, :], axis=-1)
    i, j = np.triu_indices(n, k=min_separation)
    close = d[i, j] < cutoff
    return np.stack([i[close], j[close]], axis=1)


def build_lpc(
    receptor: Receptor,
    molecule: Molecule,
    ligand_coords: np.ndarray,
    seed: int,
    n_residues: int = 150,
) -> MDSystem:
    """Assemble a protein–ligand complex ready to simulate.

    Parameters
    ----------
    receptor:
        Docking receptor; its identity seeds the fold (one fold per
        target+PDB id) and its pocket sites parameterize the pocket
        lining.
    molecule / ligand_coords:
        The ligand graph and its (n_atoms, 3) starting coordinates —
        normally the docked pose from S1.
    seed:
        Campaign seed (fold derivation also folds in the receptor name,
        so every target gets its own fold).
    """
    if ligand_coords.shape != (molecule.n_atoms, 3):
        raise ValueError("ligand_coords must be (n_atoms, 3)")
    factory = RngFactory(seed, prefix=f"lpc/{receptor.target}/{receptor.pdb_id}")
    fold_rng = factory.stream("fold")
    protein_pos = build_protein_fold(n_residues, fold_rng)

    # residue parameters: generic distribution, then pocket lining
    # inherits the receptor's site parameters (nearest site wins)
    param_rng = factory.stream("residues")
    p_charges = param_rng.normal(scale=0.15, size=n_residues)
    p_hydro = param_rng.uniform(-0.8, 0.8, size=n_residues)
    site_pos = np.stack([s.position for s in receptor.sites])
    d_to_sites = np.linalg.norm(
        protein_pos[:, None, :] - site_pos[None, :, :], axis=-1
    )
    nearest_site = d_to_sites.argmin(axis=1)
    lining = d_to_sites.min(axis=1) < 6.0
    for idx in np.where(lining)[0]:
        site = receptor.sites[nearest_site[idx]]
        p_charges[idx] = site.charge
        p_hydro[idx] = site.hydrophobicity

    # ligand bead parameters from the molecular graph (same derivation
    # the docking engine uses)
    l_charges = partial_charges(molecule)
    l_hydro = np.array([a.element.hydrophobicity for a in molecule.atoms])
    l_radii = np.array([a.element.radius for a in molecule.atoms])

    n_l = molecule.n_atoms
    masses = np.concatenate([np.full(n_residues, 110.0), np.full(n_l, 14.0)])
    charges = np.concatenate([p_charges, l_charges])
    hydro = np.concatenate([p_hydro, l_hydro])
    radii = np.concatenate([np.full(n_residues, 3.0), l_radii])

    # bonds: chain + Gō contacts + ligand graph bonds
    chain = np.stack(
        [np.arange(n_residues - 1), np.arange(1, n_residues)], axis=1
    )
    go = _native_contacts(protein_pos)
    ligand_bonds = (
        np.array([(b.a + n_residues, b.b + n_residues) for b in molecule.bonds])
        if molecule.bonds
        else np.zeros((0, 2), dtype=int)
    )
    bonds = np.concatenate([chain, go, ligand_bonds]).astype(int)

    # induced fit: carve the pocket around the actual ligand so no protein
    # bead starts overlapped (a torsion-extended ligand can otherwise end
    # up threaded through the shell, which no amount of dynamics can fix).
    # Overlapping beads are pushed radially outward; the Gō rest lengths
    # computed below then bake the carved shape into the native fold.
    clearance = 3.2
    for _ in range(4):
        d = np.linalg.norm(
            protein_pos[:, None, :] - ligand_coords[None, :, :], axis=-1
        )
        dmin = d.min(axis=1)
        clashed = dmin < clearance
        if not clashed.any():
            break
        nearest = d[clashed].argmin(axis=1)
        away = protein_pos[clashed] - ligand_coords[nearest]
        norms = np.linalg.norm(away, axis=1, keepdims=True)
        # a bead sitting exactly on a ligand atom moves radially outward
        fallback = protein_pos[clashed] / np.maximum(
            np.linalg.norm(protein_pos[clashed], axis=1, keepdims=True), 1e-9
        )
        direction = np.where(norms > 1e-6, away / np.maximum(norms, 1e-9), fallback)
        protein_pos[clashed] += direction * (clearance - dmin[clashed])[:, None]

    positions = np.concatenate([protein_pos, ligand_coords])
    all_d = np.linalg.norm(
        positions[bonds[:, 0]] - positions[bonds[:, 1]], axis=1
    )
    bond_k = np.concatenate(
        [
            np.full(len(chain), 10.0),  # stiff backbone
            np.full(len(go), 0.3),  # soft Gō network
            np.full(len(ligand_bonds), 20.0),  # rigid-ish ligand
        ]
    )

    topology = Topology(
        masses=masses,
        charges=charges,
        hydro=hydro,
        radii=radii,
        bonds=bonds,
        bond_lengths=all_d,
        bond_k=bond_k,
        protein_atoms=np.arange(n_residues),
        ligand_atoms=np.arange(n_residues, n_residues + n_l),
    )
    return MDSystem(topology=topology, positions=positions)
