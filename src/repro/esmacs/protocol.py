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
from repro.chem.smiles import parse_smiles
from repro.docking.receptor import Receptor
from repro.esmacs.mmpbsa import BindingEstimator
from repro.md.builder import build_lpc
from repro.md.forcefield import ForceField
from repro.md.integrator import Langevin
from repro.md.minimize import minimize
from repro.md.trajectory import Trajectory, simulate
from repro.util.config import FrozenConfig, validate_positive
from repro.util.rng import RngFactory

__all__ = [
    "EsmacsConfig",
    "EsmacsResult",
    "EsmacsRunner",
    "CG",
    "FG",
    "assemble",
    "install_receptors",
    "run_replica",
]


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


#: one replica's output: (ΔG mean, trajectory or ``None``, protein atom
#: indices, integration steps)
ReplicaOutput = tuple[float, "Trajectory | None", np.ndarray, int]

#: receptors this process runs replica tasks against, by pdb id — filled
#: once per worker process by :func:`install_receptors` (the pool
#: initializer), so a replica task carries a key, never a grid
_RECEPTORS: dict[str, Receptor] = {}


def install_receptors(receptors: dict[str, Receptor]) -> None:
    """Pool initializer: make ``receptors`` resolvable by :func:`run_replica`."""
    _RECEPTORS.clear()
    _RECEPTORS.update(receptors)


def run_replica(
    receptor_key: str,
    config: EsmacsConfig,
    seed: int,
    smiles: str,
    ligand_coords: np.ndarray,
    compound_id: str,
    replica: int,
    keep_trajectory: bool,
) -> ReplicaOutput:
    """One ESMACS replica as a picklable task for a resident worker.

    ``receptor_key`` names a receptor :func:`install_receptors` put in
    this process.  The output equals replica ``replica`` of
    ``EsmacsRunner(receptor, config, seed).run(parse_smiles(smiles), …)``:
    both run :func:`_replica`, and a replica's randomness is its own
    ``{compound_id}/replica-{replica}`` stream, so where it runs does not
    matter.
    """
    return _replica(
        _RECEPTORS[receptor_key], config, seed, parse_smiles(smiles),
        ligand_coords, compound_id, replica, keep_trajectory,
    )


def _replica(
    receptor: Receptor,
    cfg: EsmacsConfig,
    seed: int,
    molecule: Molecule,
    ligand_coords: np.ndarray,
    compound_id: str,
    replica: int,
    keep_trajectory: bool,
) -> ReplicaOutput:
    factory = RngFactory(seed, prefix=f"esmacs/{receptor.target}/{receptor.pdb_id}")
    forcefield = ForceField()
    rng = factory.stream(f"{compound_id}/replica-{replica}")
    # replica diversity: jitter the starting ligand pose slightly
    jitter = rng.normal(scale=0.15, size=ligand_coords.shape)
    system = build_lpc(
        receptor,
        molecule,
        ligand_coords + jitter,
        seed=factory.seed,
        n_residues=cfg.n_residues,
    )
    minimize(system, forcefield, max_iterations=cfg.minimize_iterations)
    system.initialize_velocities(cfg.temperature, rng)
    integrator = Langevin(timestep=cfg.timestep_ps, temperature=cfg.temperature)
    # equilibration: advance without recording
    integrator.run(system, forcefield, cfg.equilibration_steps, rng)
    traj = simulate(
        system,
        forcefield,
        integrator,
        cfg.production_steps,
        rng,
        record_every=cfg.record_every,
    )
    dgs = BindingEstimator().estimate_recorded(
        system.topology, traj.frames, traj.interaction_energies
    )
    steps = cfg.equilibration_steps + cfg.production_steps
    return (
        float(dgs.mean()),
        traj if keep_trajectory else None,
        system.topology.protein_atoms,
        steps,
    )


def assemble(compound_id: str, outputs: list[ReplicaOutput]) -> EsmacsResult:
    """The ensemble result of one compound's replica outputs, in replica order."""
    replica_dgs = []
    trajectories: list[Trajectory] = []
    protein_atoms = None
    total_steps = 0
    for dg, traj, atoms, steps in outputs:
        replica_dgs.append(dg)
        total_steps += steps
        if traj is not None:
            trajectories.append(traj)
        protein_atoms = atoms
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


class EsmacsRunner:
    """Run the ESMACS protocol for compounds against one receptor."""

    def __init__(
        self, receptor: Receptor, config: EsmacsConfig = CG, seed: int = 0
    ) -> None:
        self.receptor = receptor
        self.config = config
        self.seed = seed

    def run(
        self,
        molecule: Molecule,
        ligand_coords: np.ndarray,
        compound_id: str = "",
        keep_trajectories: bool = True,
    ) -> EsmacsResult:
        """ESMACS for one compound starting from ``ligand_coords``.

        The replicas run here, one after another; the campaign runs the
        same replicas as tasks (:func:`run_replica`) and assembles them
        the same way.
        """
        return assemble(
            compound_id,
            [
                _replica(
                    self.receptor, self.config, self.seed, molecule,
                    ligand_coords, compound_id, r, keep_trajectories,
                )
                for r in range(self.config.replicas)
            ],
        )
