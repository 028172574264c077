"""Langevin (NVT) time integrator.

It uses the BAOAB splitting (Leimkuhler & Matthews), which stays
accurate at the large timesteps a coarse bead model allows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.md.forcefield import ForceField
from repro.md.system import MDSystem
from repro.util.config import FrozenConfig, validate_positive
from repro.util.units import BOLTZMANN_KCAL

__all__ = ["Langevin"]

#: kcal/mol → amu·A²/ps² conversion for force/mass arithmetic
_FORCE_CONV = 418.4


@dataclass(frozen=True)
class Langevin(FrozenConfig):
    """BAOAB Langevin thermostat.

    ``max_displacement`` caps how far any bead may move per drift
    half-step — the standard stability guard that keeps a pathologically
    strained starting structure (e.g. a clashed docked pose) from
    exploding instead of relaxing.  Equilibrium sampling is unaffected:
    thermal displacements are orders of magnitude below the cap.
    """

    timestep: float = 0.01  # ps
    temperature: float = 300.0  # K
    friction: float = 1.0  # 1/ps
    max_displacement: float = 0.5  # angstrom per drift half-step

    def __post_init__(self) -> None:
        validate_positive("timestep", self.timestep)
        validate_positive("temperature", self.temperature)
        validate_positive("friction", self.friction)
        validate_positive("max_displacement", self.max_displacement)

    def run(
        self,
        system: MDSystem,
        forcefield: ForceField,
        n_steps: int,
        rng: np.random.Generator,
    ) -> None:
        """Advance ``n_steps`` in place, coupling to the heat bath.

        ``system.positions`` and ``system.velocities`` are updated through
        ``out=`` on two scratch arrays, so the step's own arithmetic
        allocates nothing.
        """
        dt = self.timestep
        topology = system.topology
        x, v = system.positions, system.velocities
        m = topology.masses[:, None]
        kt = BOLTZMANN_KCAL * self.temperature * _FORCE_CONV  # amu A²/ps²
        c1 = np.exp(-self.friction * dt)
        c2 = np.sqrt(kt * (1 - c1 * c1)) / np.sqrt(m)
        max_half_step = self.max_displacement / (0.5 * dt)
        half_dt = 0.5 * dt

        step = np.empty(v.shape)  # scratch: squares, drifts, noise
        speed = np.empty((len(v), 1))

        def clamp() -> None:
            # |v| as np.linalg.norm(v, axis=1) computes it
            np.multiply(v, v, out=step)
            np.add.reduce(step, axis=1, keepdims=True, out=speed)
            np.sqrt(speed, out=speed)
            np.maximum(speed, 1e-12, out=speed)
            np.divide(max_half_step, speed, out=speed)
            np.minimum(speed, 1.0, out=speed)
            np.multiply(v, speed, out=v)

        def half_kick() -> np.ndarray:
            # 0.5·dt·F/m at the current positions; the kernel's force
            # array is fresh, so it is scaled in place
            acc = forcefield.forces(topology, x)
            np.multiply(acc, _FORCE_CONV, out=acc)
            np.divide(acc, m, out=acc)
            return np.multiply(acc, half_dt, out=acc)

        def drift() -> None:
            np.multiply(v, half_dt, out=step)
            np.add(x, step, out=x)

        kick = half_kick()
        for _ in range(n_steps):
            # B: half kick
            np.add(v, kick, out=v)
            # A: half drift (displacement-capped)
            clamp()
            drift()
            # O: Ornstein-Uhlenbeck velocity refresh
            np.multiply(v, c1, out=v)
            rng.standard_normal(out=step)
            np.multiply(step, c2, out=step)
            np.add(v, step, out=v)
            # A: half drift
            clamp()
            drift()
            # B: half kick with fresh forces (reused by the next step's opener)
            kick = half_kick()
            np.add(v, kick, out=v)
