"""Coarse-grained molecular dynamics engine (the OpenMM/NAMD role).

Gō-model protein + bead ligand, Langevin dynamics, minimization,
trajectories and the observables ESMACS/DeepDriveMD consume.
"""

from repro.md.builder import build_lpc, build_protein_fold
from repro.md.forcefield import EnergyBreakdown, ForceField
from repro.md.integrator import Langevin
from repro.md.minimize import MinimizationResult, minimize
from repro.md.observables import (
    contact_count,
    kabsch_rmsd,
    radius_of_gyration,
)
from repro.md.system import MDSystem, Topology
from repro.md.trajectory import Trajectory, simulate

__all__ = [
    "EnergyBreakdown",
    "ForceField",
    "Langevin",
    "MDSystem",
    "MinimizationResult",
    "Topology",
    "Trajectory",
    "build_lpc",
    "build_protein_fold",
    "contact_count",
    "kabsch_rmsd",
    "minimize",
    "radius_of_gyration",
    "simulate",
]
