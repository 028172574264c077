"""ESMACS protocol: ensemble MD binding-affinity estimation (S3).

ESMACS runs an *ensemble* of independent replica simulations per
protein–ligand complex and averages the MMPBSA estimates — the paper's
answer to the irreproducibility of single-trajectory MMPBSA (§5.1.3).
Two presets mirror the paper exactly:

* **CG** (coarse-grained): 6 replicas, 1 ns equilibration, 4 ns production
* **FG** (fine-grained): 24 replicas, 2 ns equilibration, 10 ns production

The computational cost ratio (~10×) matches Table 2's 0.5 vs 5
node-hours per ligand.  Nanoseconds are mapped to integration steps
through ``steps_per_ns``, the scaled-down knob that makes a laptop
reproduction feasible; all *relative* durations are faithful.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.chem.mol import Molecule
from repro.docking.receptor import Receptor
from repro.esmacs.mmpbsa import BindingEstimator
from repro.md.builder import build_lpc
from repro.md.forcefield import ForceField
from repro.md.integrator import Langevin
from repro.md.minimize import minimize
from repro.md.system import MDSystem
from repro.md.trajectory import Trajectory, simulate
from repro.util.config import FrozenConfig, validate_positive
from repro.util.rng import RngFactory

__all__ = ["EsmacsConfig", "EsmacsResult", "EsmacsRunner", "CG", "FG"]


@dataclass(frozen=True)
class EsmacsConfig(FrozenConfig):
    """Protocol parameters (paper values for replicas and durations)."""

    replicas: int
    equilibration_ns: float
    production_ns: float
    steps_per_ns: int = 30  # scaled-down ns → step mapping
    timestep_ps: float = 0.01
    temperature: float = 300.0
    record_every: int = 4
    minimize_iterations: int = 40
    n_residues: int = 150

    def __post_init__(self) -> None:
        validate_positive("replicas", self.replicas)
        validate_positive("equilibration_ns", self.equilibration_ns)
        validate_positive("production_ns", self.production_ns)
        validate_positive("steps_per_ns", self.steps_per_ns)
        validate_positive("n_residues", self.n_residues)

    @property
    def equilibration_steps(self) -> int:
        """Equilibration duration in integration steps."""
        return max(1, round(self.equilibration_ns * self.steps_per_ns))

    @property
    def production_steps(self) -> int:
        """Production duration in integration steps."""
        return max(1, round(self.production_ns * self.steps_per_ns))


#: paper presets (§3.2: "6 vs. 24 replicas, 1 vs 2 ns equilibration,
#: 4 vs 10 ns simulation")
CG = EsmacsConfig(replicas=6, equilibration_ns=1.0, production_ns=4.0)
FG = EsmacsConfig(replicas=24, equilibration_ns=2.0, production_ns=10.0)


@dataclass
class EsmacsResult:
    """Ensemble binding-affinity result for one compound."""

    compound_id: str
    replica_dgs: np.ndarray  # (replicas,) per-replica ΔG means
    binding_free_energy: float  # ensemble mean (kcal/mol)
    sem: float  # standard error over replicas
    trajectories: list[Trajectory] = field(repr=False, default_factory=list)
    protein_atoms: np.ndarray | None = field(repr=False, default=None)
    md_steps: int = 0  # total integration steps (cost accounting)

    @property
    def n_replicas(self) -> int:
        """Ensemble size of this result."""
        return len(self.replica_dgs)


class EsmacsRunner:
    """Run the ESMACS protocol for compounds against one receptor."""

    def __init__(
        self,
        receptor: Receptor,
        config: EsmacsConfig = CG,
        forcefield: ForceField | None = None,
        estimator: BindingEstimator | None = None,
        seed: int = 0,
    ) -> None:
        self.receptor = receptor
        self.config = config
        self.forcefield = forcefield or ForceField()
        self.estimator = estimator or BindingEstimator()
        self.factory = RngFactory(
            seed, prefix=f"esmacs/{receptor.target}/{receptor.pdb_id}"
        )

    # ----------------------------------------------------------- replicas
    def _run_replica(
        self,
        molecule: Molecule,
        ligand_coords: np.ndarray,
        compound_id: str,
        replica: int,
        keep_trajectory: bool,
    ) -> tuple[float, Trajectory | None, MDSystem, int]:
        cfg = self.config
        rng = self.factory.stream(f"{compound_id}/replica-{replica}")
        # replica diversity: jitter the starting ligand pose slightly
        jitter = rng.normal(scale=0.15, size=ligand_coords.shape)
        system = build_lpc(
            self.receptor,
            molecule,
            ligand_coords + jitter,
            seed=self.factory.seed,
            n_residues=cfg.n_residues,
        )
        minimize(system, self.forcefield, max_iterations=cfg.minimize_iterations)
        system.initialize_velocities(cfg.temperature, rng)
        integrator = Langevin(
            timestep=cfg.timestep_ps, temperature=cfg.temperature
        )
        # equilibration: advance without recording
        integrator.run(system, self.forcefield, cfg.equilibration_steps, rng)
        traj = simulate(
            system,
            self.forcefield,
            integrator,
            cfg.production_steps,
            rng,
            record_every=cfg.record_every,
        )
        dgs = self.estimator.estimate_recorded(
            system.topology, traj.frames, traj.interaction_energies
        )
        steps = cfg.equilibration_steps + cfg.production_steps
        return (
            float(dgs.mean()),
            traj if keep_trajectory else None,
            system,
            steps,
        )

    # ---------------------------------------------------------------- runs
    def run(
        self,
        molecule: Molecule,
        ligand_coords: np.ndarray,
        compound_id: str = "",
        keep_trajectories: bool = True,
    ) -> EsmacsResult:
        """ESMACS for one compound starting from ``ligand_coords``."""
        replica_dgs = []
        trajectories: list[Trajectory] = []
        protein_atoms = None
        total_steps = 0
        for r in range(self.config.replicas):
            dg, traj, system, steps = self._run_replica(
                molecule, ligand_coords, compound_id, r, keep_trajectories
            )
            replica_dgs.append(dg)
            total_steps += steps
            if traj is not None:
                trajectories.append(traj)
            protein_atoms = system.topology.protein_atoms
        replica_dgs = np.array(replica_dgs)
        n = len(replica_dgs)
        sem = float(replica_dgs.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
        return EsmacsResult(
            compound_id=compound_id,
            replica_dgs=replica_dgs,
            binding_free_energy=float(replica_dgs.mean()),
            sem=sem,
            trajectories=trajectories,
            protein_atoms=protein_atoms,
            md_steps=total_steps,
        )
