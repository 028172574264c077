"""3D conformer embedding.

Docking and the MD builder need approximate 3D coordinates for each ligand.
We use a light distance-geometry scheme: target distances from bond lengths
and topological distance on the graph, then gradient refinement of a
stress function — the role RDKit's ETKDG plays in the real pipeline, at
bead-model fidelity.
"""

from __future__ import annotations

import numpy as np

from repro.chem.graph import hop_counts
from repro.chem.mol import Molecule

__all__ = ["embed_conformer", "BOND_LENGTH"]

#: idealized heavy-atom bond length (angstrom) in the bead model
BOND_LENGTH = 1.5


def _target_distances(mol: Molecule) -> np.ndarray:
    """Pairwise target distances from shortest-path topology.

    Bonded pairs sit at ``BOND_LENGTH``; longer paths scale sub-linearly
    (chains coil) with a floor so non-bonded atoms keep steric spacing.
    """
    hops = hop_counts(mol.neighbor_lists())
    # exactness: ``h ** 0.82`` on a Python int is scalar libm ``pow``; a
    # float64 array ``** 0.82`` differs from it at 4 of the hop counts
    # 1–63 (numpy 2.4), so every pair gathers from a table of scalar powers.
    # Unreachable pairs (-1) clip to hop 0, distance 0, as on the diagonal
    top = int(hops.max(initial=0))
    table = np.array([0.0] + [BOND_LENGTH * h**0.82 for h in range(1, top + 1)])
    return table[np.maximum(hops, 0)]


def embed_conformer(
    mol: Molecule,
    rng: np.random.Generator,
    iterations: int = 200,
    noise: float = 0.08,
) -> np.ndarray:
    """Return ``(n_atoms, 3)`` coordinates for one conformer.

    Different draws from ``rng`` give distinct low-stress conformers, which
    is what the docking GA perturbs and what MD replicas start from.
    """
    n = mol.n_atoms
    if n == 1:
        return np.zeros((1, 3))
    target = _target_distances(mol)
    weight = np.where(target > 0, 1.0 / np.maximum(target, 1e-6) ** 2, 0.0)

    pos = rng.normal(scale=BOND_LENGTH, size=(n, 3))
    lr = 0.2
    for _ in range(iterations):
        diff = pos[:, None, :] - pos[None, :, :]
        dist = np.sqrt((diff**2).sum(-1)) + 1e-9
        err = dist - target
        np.fill_diagonal(err, 0.0)
        grad_coef = weight * err / dist
        grad = (grad_coef[..., None] * diff).sum(axis=1)
        pos -= lr * grad
        lr *= 0.995
    pos += rng.normal(scale=noise, size=pos.shape)
    pos -= pos.mean(axis=0)
    return pos
