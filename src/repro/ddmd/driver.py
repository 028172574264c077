"""DeepDriveMD adaptive-sampling driver.

The core DeepDriveMD loop (§6.1.3): "the pipeline starts with MD
simulations that are run concurrently; it completes a single iteration
by passing through deep learning stages for AAE model training and the
outlier detection" — and the next iteration's simulations *restart from
the outliers*, steering sampling toward unexplored conformations.  The
paper credits this loop with accelerating sampling "by at least 2 orders
of magnitude" for folding; the reproducible shape is that adaptive
restarts explore more conformational space than the same simulation
budget spent restarting from the initial structure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.ddmd.aae import AAE, AAEConfig
from repro.ddmd.lof import lof_scores
from repro.ddmd.pointcloud import normalize_cloud
from repro.md.forcefield import ForceField
from repro.md.integrator import Langevin
from repro.md.observables import kabsch_rmsd
from repro.md.system import MDSystem
from repro.md.trajectory import Trajectory, simulate
from repro.util.config import FrozenConfig, validate_positive
from repro.util.rng import RngFactory

__all__ = ["AdaptiveSamplingConfig", "AdaptiveSamplingResult", "AdaptiveSampler"]


@dataclass(frozen=True)
class AdaptiveSamplingConfig(FrozenConfig):
    """Shape of one adaptive-sampling run."""

    rounds: int = 3
    simulations_per_round: int = 4
    steps_per_simulation: int = 60
    record_every: int = 5
    temperature: float = 300.0
    timestep_ps: float = 0.01
    lof_neighbors: int = 8
    aae: AAEConfig = AAEConfig(epochs=5, latent_dim=8, hidden=16)
    adaptive: bool = True  # False = control: always restart from start

    def __post_init__(self) -> None:
        validate_positive("rounds", self.rounds)
        validate_positive("simulations_per_round", self.simulations_per_round)
        validate_positive("steps_per_simulation", self.steps_per_simulation)


@dataclass
class AdaptiveSamplingResult:
    """Everything the sampler produced."""

    trajectories: list[Trajectory]  # all rounds, in launch order
    model: AAE | None  # final AAE (None when adaptive=False)
    coverage_per_round: list[float]  # mean RMSD from start, per round
    max_rmsd: float  # farthest conformation reached
    frames: np.ndarray = field(repr=False, default=None)  # (N, n_protein, 3)


class AdaptiveSampler:
    """Run the MD → AAE → LOF → restart loop on one system."""

    def __init__(
        self,
        system: MDSystem,
        config: AdaptiveSamplingConfig | None = None,
        forcefield: ForceField | None = None,
        seed: int = 0,
    ) -> None:
        self.template = system
        self.config = config or AdaptiveSamplingConfig()
        self.forcefield = forcefield or ForceField()
        self.factory = RngFactory(seed, prefix="ddmd/adaptive")

    def _run_simulation(
        self, start_positions: np.ndarray, key: str
    ) -> Trajectory:
        cfg = self.config
        rng = self.factory.stream(key)
        system = MDSystem(
            topology=self.template.topology,
            positions=start_positions.copy(),
            reference_positions=self.template.reference_positions.copy(),
        )
        system.initialize_velocities(cfg.temperature, rng)
        integrator = Langevin(timestep=cfg.timestep_ps, temperature=cfg.temperature)
        return simulate(
            system,
            self.forcefield,
            integrator,
            cfg.steps_per_simulation,
            rng,
            record_every=cfg.record_every,
        )

    def run(self) -> AdaptiveSamplingResult:
        """Execute all rounds; returns trajectories + coverage metrics."""
        cfg = self.config
        protein = self.template.topology.protein_atoms
        start = self.template.positions.copy()
        reference = start[protein]

        trajectories: list[Trajectory] = []
        all_frames: list[np.ndarray] = []  # protein-only frames
        full_frames: list[np.ndarray] = []  # full-system frames (restarts)
        coverage: list[float] = []
        model: AAE | None = None
        starting_points: list[np.ndarray] = [start] * cfg.simulations_per_round

        for rnd in range(cfg.rounds):
            round_rmsds = []
            n_sims = cfg.simulations_per_round
            for sim in range(n_sims):  # repro: disable=vectorization -- independent MD runs
                traj = self._run_simulation(
                    starting_points[sim % len(starting_points)],
                    f"round-{rnd}/sim-{sim}",
                )
                trajectories.append(traj)
                for frame in traj.frames:
                    all_frames.append(frame[protein])
                    full_frames.append(frame)
                    round_rmsds.append(kabsch_rmsd(frame[protein], reference))
            coverage.append(float(np.mean(round_rmsds)))

            if not cfg.adaptive or rnd == cfg.rounds - 1:
                # control mode keeps restarting from the initial structure;
                # the final round never needs new restart points
                continue

            # --- the DeepDriveMD steering step: AAE + LOF on everything
            clouds = np.array([normalize_cloud(f) for f in all_frames])
            model = AAE(
                cfg.aae, n_points=clouds.shape[1],
                seed=self.factory.spawn_seed(f"aae/{rnd}"),
            )
            model.fit(clouds)
            embeddings = model.embed(clouds)
            k = min(cfg.lof_neighbors, len(embeddings) - 1)
            scores = lof_scores(embeddings, k=k)
            order = np.argsort(-scores, kind="stable")
            picks = order[: cfg.simulations_per_round]
            starting_points = [full_frames[int(i)].copy() for i in picks]

        protein_frames = np.array(all_frames)
        rmsds = np.array(
            [kabsch_rmsd(f, reference) for f in protein_frames]
        )
        return AdaptiveSamplingResult(
            trajectories=trajectories,
            model=model,
            coverage_per_round=coverage,
            max_rmsd=float(rmsds.max()),
            frames=protein_frames,
        )
