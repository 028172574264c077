"""Structural observables: RMSD (Kabsch), radius of gyration, contacts.

These are the quantities the paper's analysis runs on trajectories:
Fig 5B plots per-LPC RMSD distributions; §5.1.4 uses "the number of heavy
atom contacts between the protein and the ligand" as the LPC stability
measure that DeepDriveMD filters on.
"""

from __future__ import annotations

import numpy as np

__all__ = ["kabsch_rmsd", "radius_of_gyration", "contact_count"]


def kabsch_rmsd(a: np.ndarray, b: np.ndarray) -> float:
    """Minimum RMSD between two (n, 3) structures after optimal
    superposition (Kabsch algorithm)."""
    if a.shape != b.shape or a.ndim != 2 or a.shape[1] != 3:
        raise ValueError("inputs must both be (n, 3)")
    a0 = a - a.mean(axis=0)
    b0 = b - b.mean(axis=0)
    h = a0.T @ b0
    u, s, vt = np.linalg.svd(h)
    d = np.sign(np.linalg.det(vt.T @ u.T))
    rot = vt.T @ np.diag([1.0, 1.0, d]) @ u.T
    a_rot = a0 @ rot.T
    return float(np.sqrt(((a_rot - b0) ** 2).sum() / len(a)))


def radius_of_gyration(coords: np.ndarray) -> float:
    """Rg of an (n, 3) structure."""
    centred = coords - coords.mean(axis=0)
    return float(np.sqrt((centred**2).sum(axis=1).mean()))


def contact_count(
    coords: np.ndarray,
    group_a: np.ndarray,
    group_b: np.ndarray,
    cutoff: float = 5.0,
) -> int:
    """Number of inter-group bead pairs within ``cutoff`` angstrom —
    the paper's LPC stability proxy."""
    if cutoff <= 0:
        raise ValueError("cutoff must be positive")
    a = coords[group_a]
    b = coords[group_b]
    d2 = ((a[:, None, :] - b[None, :, :]) ** 2).sum(-1)
    return int((d2 < cutoff * cutoff).sum())
