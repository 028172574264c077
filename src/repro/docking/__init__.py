"""S1 — high-throughput docking substrate (the AutoDock-GPU role).

Grid-based receptor scoring + Lamarckian genetic algorithm with both
Solis–Wets and gradient-based ADADELTA local search (§5.1.1).
"""

from repro.docking.engine import DockingEngine, DockingResult
from repro.docking.lga import DockingRun, LGAConfig
from repro.docking.ligand import (
    LigandBeads,
    Pose,
    Torsion,
    find_torsions,
    prepare_ligand,
)
from repro.docking.local_search import Adadelta, LocalSearchResult, SolisWets
from repro.docking.receptor import TARGETS, PocketSite, Receptor, make_receptor
from repro.docking.scoring import ScoreBreakdown, score_and_gradient, score_pose

__all__ = [
    "Adadelta",
    "DockingEngine",
    "DockingResult",
    "DockingRun",
    "LGAConfig",
    "LigandBeads",
    "LocalSearchResult",
    "PocketSite",
    "Pose",
    "Receptor",
    "ScoreBreakdown",
    "SolisWets",
    "TARGETS",
    "Torsion",
    "find_torsions",
    "make_receptor",
    "prepare_ligand",
    "score_and_gradient",
    "score_pose",
]
