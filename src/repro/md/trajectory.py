"""Trajectory container and a simulation runner that records frames."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.md.forcefield import ForceField
from repro.md.integrator import Langevin
from repro.md.system import MDSystem

__all__ = ["Trajectory", "simulate"]


@dataclass
class Trajectory:
    """Recorded frames of one MD run."""

    frames: np.ndarray  # (T, n, 3)
    times: np.ndarray  # (T,) ps
    potential_energies: np.ndarray  # (T,)
    interaction_energies: np.ndarray  # (T,) protein-ligand MM energy

    @property
    def n_frames(self) -> int:
        """Number of recorded frames."""
        return len(self.frames)

    def __len__(self) -> int:
        return self.n_frames

    def concatenate(self, other: "Trajectory") -> "Trajectory":
        """Join two trajectories end to end (times re-offset)."""
        offset = self.times[-1] if len(self.times) else 0.0
        return Trajectory(
            frames=np.concatenate([self.frames, other.frames]),
            times=np.concatenate([self.times, other.times + offset]),
            potential_energies=np.concatenate(
                [self.potential_energies, other.potential_energies]
            ),
            interaction_energies=np.concatenate(
                [self.interaction_energies, other.interaction_energies]
            ),
        )


def simulate(
    system: MDSystem,
    forcefield: ForceField,
    integrator: Langevin,
    n_steps: int,
    rng: np.random.Generator,
    record_every: int = 10,
) -> Trajectory:
    """Run Langevin dynamics, recording every ``record_every`` steps.

    The system is advanced in place; the returned trajectory holds copies
    of the recorded frames.
    """
    if n_steps < 0:
        raise ValueError("n_steps must be non-negative")
    if record_every < 1:
        raise ValueError("record_every must be >= 1")
    frames = []
    times = []
    pot = []
    inter = []
    t = 0.0
    steps_done = 0
    while steps_done < n_steps:
        chunk = min(record_every, n_steps - steps_done)
        integrator.run(system, forcefield, chunk, rng)
        steps_done += chunk
        t += chunk * integrator.timestep
        frames.append(system.positions.copy())
        times.append(t)
        pot.append(forcefield.potential_energy(system).total)
        inter.append(
            forcefield.interaction_energy(system.topology, system.positions)
        )
    return Trajectory(
        frames=np.array(frames) if frames else np.zeros((0, system.n_atoms, 3)),
        times=np.array(times),
        potential_energies=np.array(pot),
        interaction_energies=np.array(inter),
    )
