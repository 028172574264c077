"""Test-side references for the MD kernels: the dense force kernel and
the allocating Langevin loop that shipped in ``repro.md`` up to PR 12.

:func:`compute` is the parent's ``ForceField.compute`` verbatim — ~45
NumPy temporaries per call, an ``(n, n, 3)`` displacement array, an
``einsum`` for the force reduction.  The production kernel in
``repro.md.forcefield`` must reproduce it bit for bit;
``test_kernel_identity.py`` fuzzes that.  The one departure from the
parent is that the pair tables are rebuilt on every call: the parent
cached them on the topology under ``id(forcefield)``, and a collected
force field hands its id to the next one (the stale-table bug).

:func:`langevin_run` is the parent's ``Langevin.run`` verbatim, so the
in-place integrator arithmetic is pinned too.
"""

from __future__ import annotations

import numpy as np

from repro.md.forcefield import EnergyBreakdown, ForceField
from repro.md.integrator import _FORCE_CONV, Langevin
from repro.md.system import MDSystem, Topology
from repro.util.units import BOLTZMANN_KCAL


def _pair_tables(ff: ForceField, topology: Topology) -> dict:
    mask = ~topology.exclusion_mask()
    sigma6 = (0.5 * (topology.radii[:, None] + topology.radii[None, :])) ** 6
    qq = (
        ff.coulomb_constant
        / ff.dielectric_slope
        * topology.charges[:, None]
        * topology.charges[None, :]
    ) * mask
    hh = (
        -ff.hydro_strength
        * topology.hydro[:, None]
        * topology.hydro[None, :]
    ) * mask
    return {
        "mask": mask,
        "eps4_sigma6": 4.0 * ff.lj_epsilon * sigma6 * mask,
        "eps4_sigma12": 4.0 * ff.lj_epsilon * sigma6**2 * mask,
        "qq": qq,
        "hh": hh,
    }


def compute(
    self: ForceField, topology: Topology, positions: np.ndarray
) -> tuple[np.ndarray, EnergyBreakdown]:
    """Forces (n, 3) and energy breakdown for one configuration."""
    n = topology.n_atoms
    forces = np.zeros((n, 3))

    # ----------------------------------------------------------- bonds
    e_bond = 0.0
    if len(topology.bonds):
        i, j = topology.bonds[:, 0], topology.bonds[:, 1]
        d = positions[i] - positions[j]
        r = np.sqrt((d * d).sum(axis=1))
        dr = r - topology.bond_lengths
        e_bond = float((topology.bond_k * dr * dr).sum())
        f = (2.0 * topology.bond_k * dr / np.maximum(r, 1e-9))[:, None] * d
        np.subtract.at(forces, i, f)
        np.add.at(forces, j, f)

    # ------------------------------------------------------- nonbonded
    tables = _pair_tables(self, topology)
    diff = positions[:, None, :] - positions[None, :, :]
    r2 = (diff * diff).sum(-1)
    r = np.sqrt(r2)
    r_safe = np.maximum(r, self.min_distance)
    inv_r = 1.0 / r_safe
    inv_r2 = inv_r * inv_r
    inv_r6 = inv_r2 * inv_r2 * inv_r2

    lj12 = tables["eps4_sigma12"] * inv_r6 * inv_r6
    lj6 = tables["eps4_sigma6"] * inv_r6
    e_lj_pair = lj12 - lj6
    de_lj = (-12.0 * lj12 + 6.0 * lj6) * inv_r

    e_coul_pair = tables["qq"] * inv_r2
    de_coul = -2.0 * e_coul_pair * inv_r

    gauss = np.exp(-(r_safe * r_safe) / self.hydro_range**2)
    e_hyd_pair = tables["hh"] * gauss
    de_hyd = e_hyd_pair * (-2.0 * r_safe / self.hydro_range**2)

    e_lj = float(e_lj_pair.sum() / 2.0)
    e_coul = float(e_coul_pair.sum() / 2.0)
    e_hyd = float(e_hyd_pair.sum() / 2.0)

    # force only beyond the soft-core plateau (energy capped inside)
    active = r > self.min_distance
    de_total = np.where(active, de_lj + de_coul + de_hyd, 0.0)
    coef = de_total * np.where(active, 1.0 / np.maximum(r, 1e-9), 0.0)
    forces -= np.einsum("ij,ijk->ik", coef, diff)

    # ------------------------------------------------------ confinement
    dist0 = np.sqrt((positions * positions).sum(axis=1))
    excess = np.maximum(dist0 - self.confine_radius, 0.0)
    e_conf = float((self.confine_k * excess * excess).sum())
    conf_coef = 2.0 * self.confine_k * excess / np.maximum(dist0, 1e-9)
    forces -= conf_coef[:, None] * positions

    return forces, EnergyBreakdown(e_bond, e_lj, e_coul, e_hyd, e_conf)


def langevin_run(
    self: Langevin,
    system: MDSystem,
    forcefield: ForceField,
    n_steps: int,
    rng: np.random.Generator,
) -> None:
    """Advance ``n_steps`` in place, coupling to the heat bath."""
    dt = self.timestep
    m = system.topology.masses[:, None]
    kt = BOLTZMANN_KCAL * self.temperature * _FORCE_CONV  # amu A²/ps²
    c1 = np.exp(-self.friction * dt)
    c2 = np.sqrt(kt * (1 - c1 * c1)) / np.sqrt(m)

    max_half_step = self.max_displacement / (0.5 * dt)

    def clamp(v: np.ndarray) -> np.ndarray:
        speed = np.linalg.norm(v, axis=1, keepdims=True)
        scale = np.minimum(1.0, max_half_step / np.maximum(speed, 1e-12))
        return v * scale

    forces, _ = forcefield.compute(system.topology, system.positions)
    acc = forces * _FORCE_CONV / m
    for _ in range(n_steps):
        # B: half kick
        system.velocities += 0.5 * dt * acc
        # A: half drift (displacement-capped)
        system.velocities = clamp(system.velocities)
        system.positions += 0.5 * dt * system.velocities
        # O: Ornstein-Uhlenbeck velocity refresh
        system.velocities = c1 * system.velocities + c2 * rng.normal(
            size=system.velocities.shape
        )
        # A: half drift
        system.velocities = clamp(system.velocities)
        system.positions += 0.5 * dt * system.velocities
        # B: half kick with fresh forces
        forces, _ = forcefield.compute(system.topology, system.positions)
        acc = forces * _FORCE_CONV / m
        system.velocities += 0.5 * dt * acc


def install(monkeypatch) -> None:
    """Swap the reference kernels in for the production ones.

    Everything in ``repro`` that evaluates forces or energies, or runs
    Langevin dynamics, then goes through this module's code.
    """
    monkeypatch.setattr(ForceField, "compute", compute)
    monkeypatch.setattr(
        ForceField, "forces", lambda self, top, pos: compute(self, top, pos)[0]
    )
    monkeypatch.setattr(
        ForceField, "energies", lambda self, top, pos: compute(self, top, pos)[1]
    )
    monkeypatch.setattr(Langevin, "run", langevin_run)
