"""MMPBSA-style binding free-energy estimator.

The paper's ESMACS uses MMPBSA: the molecular-mechanics protein–ligand
interaction energy plus an implicit-solvent correction.  Our bead-model
analogue keeps that structure:

``ΔG(frame) = α·E_inter(frame) + Σ_i buried_i · (c_pol·|q_i| − c_hyd·h_i)``

where ``buried_i`` is each ligand bead's degree of burial (from protein
neighbour counts), so burying polar beads costs and burying greasy beads
pays — the physics the PB/SA surface term encodes.  Like its namesake,
single-frame estimates are noisy and absolute values are large compared
to the differences that matter, which is exactly why ESMACS averages over
replica ensembles (§5.1.3).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.md.forcefield import ForceField
from repro.md.system import Topology
from repro.util.config import FrozenConfig, validate_positive

__all__ = ["BindingEstimator"]


@dataclass(frozen=True)
class BindingEstimator(FrozenConfig):
    """Per-frame binding free-energy estimator (kcal/mol)."""

    interaction_scale: float = 5.0  # α — calibrated so CG ΔG spans the
    # paper's Fig 5A range (≈ −60 … +20 kcal/mol) at typical LPC sizes
    polar_burial_cost: float = 8.0  # c_pol, per unit |charge|
    hydrophobic_burial_gain: float = 4.0  # c_hyd, per unit hydrophobicity
    burial_cutoff: float = 6.0  # angstrom neighbour shell
    burial_saturation: int = 8  # neighbours for full burial

    def __post_init__(self) -> None:
        validate_positive("interaction_scale", self.interaction_scale)
        validate_positive("burial_cutoff", self.burial_cutoff)
        validate_positive("burial_saturation", self.burial_saturation)

    def burial(self, topology: Topology, positions: np.ndarray) -> np.ndarray:
        """Degree of burial per ligand bead, in [0, 1]."""
        p = positions[topology.protein_atoms]
        l = positions[topology.ligand_atoms]
        d2 = ((l[:, None, :] - p[None, :, :]) ** 2).sum(-1)
        neighbours = (d2 < self.burial_cutoff**2).sum(axis=1)
        return np.minimum(neighbours / self.burial_saturation, 1.0)

    def estimate_frame(
        self, forcefield: ForceField, topology: Topology, positions: np.ndarray
    ) -> float:
        """ΔG estimate for one frame (kcal/mol, lower = tighter binding)."""
        e_inter = forcefield.interaction_energy(topology, positions)
        return self.interaction_scale * e_inter + self.solvation(topology, positions)

    def solvation(self, topology: Topology, positions: np.ndarray) -> float:
        """Burial (implicit-solvent) term of one frame's ΔG."""
        buried = self.burial(topology, positions)
        q = np.abs(topology.charges[topology.ligand_atoms])
        h = topology.hydro[topology.ligand_atoms]
        return float(
            (
                buried
                * (self.polar_burial_cost * q - self.hydrophobic_burial_gain * h)
            ).sum()
        )

    def estimate_trajectory(
        self,
        forcefield: ForceField,
        topology: Topology,
        frames: np.ndarray,
    ) -> np.ndarray:
        """Per-frame ΔG estimates for a (T, n, 3) frame stack."""
        return np.array(
            [self.estimate_frame(forcefield, topology, f) for f in frames]
        )

    def estimate_recorded(
        self,
        topology: Topology,
        frames: np.ndarray,
        interaction_energies: np.ndarray,
    ) -> np.ndarray:
        """Per-frame ΔG from interaction energies recorded with the frames.

        Equal to :meth:`estimate_trajectory` on the same frames, without
        evaluating ``E_inter`` a second time (``simulate`` already stores
        it in ``Trajectory.interaction_energies``).
        """
        solv = np.array([self.solvation(topology, f) for f in frames])
        return self.interaction_scale * np.asarray(interaction_energies) + solv
