"""Force field for the bead model.

Terms (all kcal/mol, distances in angstrom):

* harmonic bonds (chain connectivity + Gō native restraints are both
  encoded as bonds in the topology),
* Lennard-Jones nonbonded with Lorentz–Berthelot-style combination from
  bead radii, capped at short range for stability,
* screened Coulomb with distance-dependent dielectric,
* hydrophobic contact term rewarding greasy–greasy proximity,
* a confining sphere keeping the droplet together.

The nonbonded terms are one dense pass over all ``n * n`` ordered pairs
(systems here are ~100 beads; 11 k pairs).  At that size the arithmetic
is cheap and a fresh 88 KB NumPy temporary per operation is not — the
allocator, not the ufunc, sets the time.  So every ``(n, n)`` and
``(3, n, n)`` array of the pass lives in a :class:`_PairWorkspace`,
built lazily on first use, cached on the
:class:`~repro.md.system.Topology` (one per topology, keyed on the force
field's *value*, freed with the topology), and written only through
``out=``.  Displacements are component-major
``(3, n, n)``; there is no ``(n, n, 3)`` array.

The workspace is scratch memory shared by every evaluation on its
topology, so the kernel is **not re-entrant**: two threads must not
evaluate forces on the same ``Topology`` object at once (each ESMACS
replica, TIES window and DDMD sampler builds or owns its own).  Returned
force arrays are always fresh, never views of the workspace.

Three entry points share the pass: :meth:`ForceField.forces` (the
integrators — no energy reductions), :meth:`ForceField.energies` (frame
recording, TIES dU/dλ — no force assembly) and
:meth:`ForceField.compute` (the minimizer — both).  All three are
bit-identical to the dense reference kernel kept in
``tests/md/oracle.py``; the four exactness facts that make them so are
stated (as "Fact 1" … "Fact 4") next to the code that leans on them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.md.system import MDSystem, Topology
from repro.util.config import FrozenConfig, validate_positive

__all__ = ["ForceField", "EnergyBreakdown"]


@dataclass(frozen=True)
class EnergyBreakdown:
    """Potential-energy decomposition of one configuration."""

    bond: float
    lj: float
    coulomb: float
    hydrophobic: float
    confine: float

    @property
    def total(self) -> float:
        """Sum of all components."""
        return self.bond + self.lj + self.coulomb + self.hydrophobic + self.confine


@dataclass(frozen=True)
class ForceField(FrozenConfig):
    """Force-field parameters."""

    lj_epsilon: float = 0.15  # kcal/mol well depth scale
    coulomb_constant: float = 332.0  # kcal·A/(mol·e²)
    dielectric_slope: float = 4.0  # eps(r) = slope * r
    hydro_strength: float = 0.35  # kcal/mol per matched contact
    hydro_range: float = 4.0  # angstrom
    confine_k: float = 0.05  # kcal/mol/A² beyond confine_radius
    confine_radius: float = 26.0  # angstrom
    min_distance: float = 0.8  # short-range cap (soft core)

    def __post_init__(self) -> None:
        validate_positive("lj_epsilon", self.lj_epsilon)
        validate_positive("hydro_range", self.hydro_range)
        validate_positive("confine_radius", self.confine_radius)
        validate_positive("min_distance", self.min_distance)

    # ------------------------------------------------------------ kernels
    def _workspace(self, topology: Topology) -> "_PairWorkspace":
        """The pair workspace cached on ``topology`` for this force field."""
        ws = getattr(topology, "_ff_workspace", None)
        # keyed on the parameter values: an ``id`` outlives its object
        if ws is None or ws.forcefield != self:
            ws = _PairWorkspace(self, topology)
            object.__setattr__(topology, "_ff_workspace", ws)
        return ws

    def forces(self, topology: Topology, positions: np.ndarray) -> np.ndarray:
        """Forces (n, 3) for one configuration, skipping every energy sum."""
        ws = self._workspace(topology)
        ws.pair_pass(positions)
        return self._assemble_forces(ws, topology, positions)

    def energies(
        self, topology: Topology, positions: np.ndarray
    ) -> EnergyBreakdown:
        """Energy breakdown for one configuration, skipping the forces."""
        ws = self._workspace(topology)
        ws.pair_pass(positions)
        return self._reduce_energies(ws, topology, positions)

    def compute(
        self, topology: Topology, positions: np.ndarray
    ) -> tuple[np.ndarray, EnergyBreakdown]:
        """Forces (n, 3) and energy breakdown for one configuration."""
        ws = self._workspace(topology)
        ws.pair_pass(positions)
        # energies first: the force assembly consumes the pass's buffers
        energies = self._reduce_energies(ws, topology, positions)
        return self._assemble_forces(ws, topology, positions), energies

    def _reduce_energies(
        self, ws: "_PairWorkspace", topology: Topology, positions: np.ndarray
    ) -> EnergyBreakdown:
        e_bond = 0.0
        if len(topology.bonds):
            _, _, dr = _bond_geometry(topology, positions)
            e_bond = float((topology.bond_k * dr * dr).sum())
        e_lj, e_coul, e_hyd = ws.pair_energies()
        _, excess = self._confinement(positions)
        e_conf = float((self.confine_k * excess * excess).sum())
        return EnergyBreakdown(e_bond, e_lj, e_coul, e_hyd, e_conf)

    def _assemble_forces(
        self, ws: "_PairWorkspace", topology: Topology, positions: np.ndarray
    ) -> np.ndarray:
        n = topology.n_atoms
        if len(topology.bonds):
            d, r, dr = _bond_geometry(topology, positions)
            f = (2.0 * topology.bond_k * dr / np.maximum(r, 1e-9))[:, None] * d
            # bincount adds its weights in input order, starting from 0.0:
            # every -f in bond order, then every +f — the sums that
            # np.subtract.at(forces, i, f); np.add.at(forces, j, f) make
            forces = np.bincount(
                ws.bond_scatter, np.concatenate([-f, f]).ravel(), minlength=3 * n
            ).reshape(n, 3)
        else:
            forces = np.zeros((n, 3))
        forces -= ws.pair_forces().T
        dist0, excess = self._confinement(positions)
        conf_coef = 2.0 * self.confine_k * excess / np.maximum(dist0, 1e-9)
        forces -= conf_coef[:, None] * positions
        return forces

    def _confinement(self, positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Distance from the origin and its excess over the confining sphere."""
        dist0 = np.sqrt((positions * positions).sum(axis=1))
        return dist0, np.maximum(dist0 - self.confine_radius, 0.0)

    def potential_energy(self, system: MDSystem) -> EnergyBreakdown:
        """Energy breakdown at the system's current positions."""
        return self.energies(system.topology, system.positions)

    # --------------------------------------------------- interaction energy
    def interaction_energy(
        self, topology: Topology, positions: np.ndarray
    ) -> float:
        """Protein–ligand nonbonded interaction energy (kcal/mol).

        The MM piece of the MMPBSA-style estimator: LJ + Coulomb +
        hydrophobic terms restricted to protein–ligand pairs.
        """
        p = topology.protein_atoms
        l = topology.ligand_atoms
        diff = positions[p][:, None, :] - positions[l][None, :, :]
        r = np.sqrt((diff**2).sum(-1))
        r = np.maximum(r, self.min_distance)
        sigma = 0.5 * (topology.radii[p][:, None] + topology.radii[l][None, :])
        sr6 = (sigma / r) ** 6
        e_lj = 4.0 * self.lj_epsilon * (sr6**2 - sr6)
        qq = topology.charges[p][:, None] * topology.charges[l][None, :]
        e_coul = self.coulomb_constant * qq / (self.dielectric_slope * r**2)
        hh = topology.hydro[p][:, None] * topology.hydro[l][None, :]
        e_hyd = -self.hydro_strength * hh * np.exp(-((r / self.hydro_range) ** 2))
        return float((e_lj + e_coul + e_hyd).sum())


def _bond_geometry(
    topology: Topology, positions: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bond vectors ``x_i - x_j``, their lengths, and the stretches."""
    d = positions[topology.bonds[:, 0]] - positions[topology.bonds[:, 1]]
    r = np.sqrt((d * d).sum(axis=1))
    return d, r, r - topology.bond_lengths


class _PairWorkspace:
    """Static pair tables and scratch buffers of one (force field, topology).

    ``pair_pass`` fills the geometry and the per-pair LJ / Gaussian
    factors for one configuration; ``pair_energies`` reduces them to the
    three nonbonded energies and ``pair_forces`` to the ``(3, n)`` pair
    force, *consuming* ``lj12``, ``lj6`` and ``gauss`` — so energies are
    read before forces, and every call starts with a fresh ``pair_pass``.

    Layout.  All pair arrays are indexed ``[j, i]`` (partner first), so
    the force on bead ``i`` is a reduction over the *leading* pair axis.
    The geometry (``r``, ``inv_r``, …) and the LJ tables are exactly
    symmetric, so for them ``[j, i]`` and ``[i, j]`` are the same array.
    The charge and hydrophobic tables are not —
    ``qq[i, j] = ((K/ε)·q_i)·q_j`` rounds differently from ``qq[j, i]``
    — so the force path reads transposed copies while the energy sums
    read the ``[i, j]`` originals and add up in the reference order.
    """

    __slots__ = (
        "forcefield", "hydro_range2",
        "eps4_sigma6", "eps4_sigma12", "qq", "hh", "qq_m2_t", "hh_t",
        "d", "prod", "r", "r_safe", "inv_r", "inv_r2", "lj12", "lj6",
        "gauss", "tmp", "inactive", "pair_force", "bond_scatter",
    )

    def __init__(self, forcefield: ForceField, topology: Topology) -> None:
        ff = forcefield
        n = topology.n_atoms
        mask = ~topology.exclusion_mask()
        sigma6 = (0.5 * (topology.radii[:, None] + topology.radii[None, :])) ** 6
        self.forcefield = ff
        self.hydro_range2 = ff.hydro_range**2
        self.eps4_sigma6 = 4.0 * ff.lj_epsilon * sigma6 * mask
        self.eps4_sigma12 = 4.0 * ff.lj_epsilon * sigma6**2 * mask
        self.qq = (
            ff.coulomb_constant
            / ff.dielectric_slope
            * topology.charges[:, None]
            * topology.charges[None, :]
        ) * mask
        self.hh = (
            -ff.hydro_strength
            * topology.hydro[:, None]
            * topology.hydro[None, :]
        ) * mask
        # Fact 4: scaling by ±2^k is exact, so it commutes with a rounded
        # multiply or divide: -2.0 * (qq * inv_r2) == (-2.0 * qq) * inv_r2,
        # and the force path never needs the Coulomb pair energies.
        self.qq_m2_t = np.ascontiguousarray((-2.0 * self.qq).T)
        self.hh_t = np.ascontiguousarray(self.hh.T)
        self.d = np.empty((3, n, n))  # d[k, j, i] = x_i[k] - x_j[k]
        self.prod = np.empty((3, n, n))
        for name in ("r", "r_safe", "inv_r", "inv_r2", "lj12", "lj6", "gauss", "tmp"):
            setattr(self, name, np.empty((n, n)))
        self.inactive = np.empty((n, n), dtype=bool)
        self.pair_force = np.empty((3, n))
        # flat (atom, component) slots of the forces each bond touches:
        # all i ends, then all j ends
        ends = topology.bonds.T.reshape(-1, 1)
        self.bond_scatter = (3 * ends + np.arange(3)).ravel()

    def pair_pass(self, positions: np.ndarray) -> None:
        """Geometry and per-pair LJ / Gaussian factors at ``positions``."""
        d, prod, r, r_safe = self.d, self.prod, self.r, self.r_safe
        inv_r, inv_r2, lj12, lj6, gauss = (
            self.inv_r, self.inv_r2, self.lj12, self.lj6, self.gauss
        )
        xt = positions.T
        np.subtract(xt[:, None, :], xt[:, :, None], out=d)
        # Fact 1: a sum over a length-3 axis is dx*dx + dy*dy + dz*dz
        # added left to right.
        np.multiply(d, d, out=prod)
        np.add(prod[0], prod[1], out=r)
        np.add(r, prod[2], out=r)
        np.sqrt(r, out=r)
        np.maximum(r, self.forcefield.min_distance, out=r_safe)
        np.divide(1.0, r_safe, out=inv_r)
        np.multiply(inv_r, inv_r, out=inv_r2)
        inv_r6 = np.multiply(inv_r2, inv_r2, out=lj6)
        np.multiply(inv_r6, inv_r2, out=inv_r6)
        np.multiply(self.eps4_sigma12, inv_r6, out=lj12)
        np.multiply(lj12, inv_r6, out=lj12)
        np.multiply(self.eps4_sigma6, inv_r6, out=lj6)
        # exp(-(r_safe * r_safe) / range²), the sign moved by fact 4
        np.multiply(r_safe, r_safe, out=gauss)
        np.divide(gauss, -self.hydro_range2, out=gauss)
        np.exp(gauss, out=gauss)

    def pair_energies(self) -> tuple[float, float, float]:
        """(LJ, Coulomb, hydrophobic) energies of the last ``pair_pass``."""
        tmp = self.tmp
        e_lj = float(np.subtract(self.lj12, self.lj6, out=tmp).sum() / 2.0)
        e_coul = float(np.multiply(self.qq, self.inv_r2, out=tmp).sum() / 2.0)
        e_hyd = float(np.multiply(self.hh, self.gauss, out=tmp).sum() / 2.0)
        return e_lj, e_coul, e_hyd

    def pair_forces(self) -> np.ndarray:
        """(3, n) workspace view: sum over partners j of dE/dr · d/r."""
        inv_r, tmp = self.inv_r, self.tmp
        de, lj6, de_hyd = self.lj12, self.lj6, self.gauss
        np.multiply(de, -12.0, out=de)
        np.multiply(lj6, 6.0, out=lj6)
        np.add(de, lj6, out=de)
        np.multiply(de, inv_r, out=de)
        np.multiply(self.qq_m2_t, self.inv_r2, out=tmp)
        np.multiply(tmp, inv_r, out=tmp)
        np.add(de, tmp, out=de)
        np.multiply(de_hyd, self.hh_t, out=de_hyd)
        # e_hyd_pair * (-2.0 * r_safe / range²), the -2 moved by fact 4
        np.divide(self.r_safe, self.hydro_range2 / -2.0, out=tmp)
        np.multiply(de_hyd, tmp, out=de_hyd)
        np.add(de, de_hyd, out=de)
        # Fact 3: force acts only beyond the soft-core plateau (energy is
        # capped inside).  There r_safe == r, so the reference's
        # 1/max(r, 1e-9) *is* inv_r (for any min_distance >= 1e-9);
        # everywhere else the coefficient is 0.
        np.multiply(de, inv_r, out=de)
        np.greater(self.r, self.forcefield.min_distance, out=self.inactive)
        np.logical_not(self.inactive, out=self.inactive)
        np.copyto(de, 0.0, where=self.inactive)
        # Fact 2: reducing the partner axis j of the C-ordered [k, j, i]
        # products adds row after row — the same sequential sum over j
        # that einsum("ij,ijk->ik", coef, diff) makes in the reference.
        np.multiply(de, self.d, out=self.prod)
        return np.add.reduce(self.prod, axis=1, out=self.pair_force)
