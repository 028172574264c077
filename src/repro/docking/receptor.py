"""Receptor models: binding pockets as precomputed interaction grids.

AutoDock-style docking scores a ligand pose against *precomputed affinity
grids* of the receptor; searching moves the ligand, never the protein.  We
keep exactly that structure.  A :class:`Receptor` is a cubic box holding
three scalar fields sampled on a regular grid:

* ``phi``      — electrostatic potential (kcal/mol per unit charge),
* ``hydro``    — hydrophobic complementarity field,
* ``steric``   — soft-core repulsion from protein bulk.

Fields are generated from a seeded arrangement of *pocket sites* (charged,
hydrophobic and excluded-volume pseudo-atoms), so each target protein and
each crystal-structure variant (PDB id) yields a distinct, reproducible
binding landscape.  The four SARS-CoV-2 targets the paper screens —
3CLPro, PLPro, ADRP and NSP15 — ship as named presets.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.util.rng import RngFactory

__all__ = ["Receptor", "PocketSite", "make_receptor", "TARGETS"]

#: the four main SARS-CoV-2 targets from §7.1.1, with their paper PDB ids
TARGETS: dict[str, tuple[str, ...]] = {
    "3CLPro": ("6LU7", "6Y2E"),
    "PLPro": ("6W9C", "6WX4"),
    "ADRP": ("6W02",),
    "NSP15": ("6VWW",),
}


@dataclass(frozen=True)
class PocketSite:
    """A pseudo-atom shaping the pocket fields."""

    position: np.ndarray  # (3,) angstrom
    charge: float  # e
    hydrophobicity: float  # [-1, 1]
    radius: float  # angstrom (steric core)


@dataclass
class Receptor:
    """A pocket: grids + metadata.  Built via :func:`make_receptor`."""

    target: str
    pdb_id: str
    box_size: float  # angstrom, cube edge
    spacing: float  # angstrom between grid points
    sites: list[PocketSite]
    phi: np.ndarray = field(repr=False)  # (n, n, n)
    hydro: np.ndarray = field(repr=False)
    steric: np.ndarray = field(repr=False)

    @property
    def n_grid(self) -> int:
        """Grid points per axis."""
        return self.phi.shape[0]

    @property
    def stacked_grids(self) -> np.ndarray:
        """The three fields as one ``(3, n, n, n)`` stack, lazily cached.

        The fused scoring kernel interpolates all three fields with a
        single gather stencil; the stack is invalidated if the field
        arrays are replaced.
        """
        cached = self.__dict__.get("_stacked_grids")
        if (
            cached is None
            or cached[0] is not self.phi
            or cached[1] is not self.hydro
            or cached[2] is not self.steric
        ):
            stack = np.stack([self.phi, self.hydro, self.steric])
            cached = (self.phi, self.hydro, self.steric, stack)
            self.__dict__["_stacked_grids"] = cached
        return cached[3]

    @property
    def origin(self) -> float:
        """Coordinate of grid index 0 along each axis (box centred at 0)."""
        return -self.box_size / 2.0

    def contains(self, coords: np.ndarray, margin: float = 0.0) -> np.ndarray:
        """Boolean mask: which points lie inside the box (minus margin)."""
        half = self.box_size / 2.0 - margin
        return (np.abs(coords) <= half).all(axis=-1)


def _field_from_sites(
    sites: list[PocketSite], axis: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Evaluate the three fields on the grid (vectorized over grid points)."""
    n = len(axis)
    gx, gy, gz = np.meshgrid(axis, axis, axis, indexing="ij")
    grid = np.stack([gx, gy, gz], axis=-1).reshape(-1, 3)  # (n^3, 3)

    phi = np.zeros(len(grid))
    hydro = np.zeros(len(grid))
    steric = np.zeros(len(grid))
    for site in sites:
        d = np.linalg.norm(grid - site.position[None, :], axis=1)
        # soften the core so potentials stay in kcal/mol-scale and the
        # scoring function remains smooth enough for gradient local search
        d = np.maximum(d, 1.5)
        # screened Coulomb (distance-dependent dielectric, AutoDock-style)
        phi += 332.0 * site.charge / (4.0 * d * d)
        # short-range hydrophobic contact well
        hydro += site.hydrophobicity * np.exp(-((d / 2.5) ** 2))
        # soft-core repulsion from the site's excluded volume
        steric += 4.0 * np.exp(-((d / site.radius) ** 2) * 2.0)
    shape = (n, n, n)
    return phi.reshape(shape), hydro.reshape(shape), steric.reshape(shape)


def make_receptor(
    target: str,
    pdb_id: str | None = None,
    seed: int = 2021,
    box_size: float = 16.0,
    spacing: float = 0.8,
    n_sites: int = 24,
) -> Receptor:
    """Build a receptor for a named target (and optional PDB variant).

    The same (target, pdb_id, seed) triple always produces the same pocket.
    Different PDB ids of one target share most sites but jitter positions
    slightly — modelling the crystal-structure ensembles the paper docks
    against (§7.1.2 uses multiple structures per target).
    """
    if target not in TARGETS:
        raise ValueError(f"unknown target {target!r}; known: {sorted(TARGETS)}")
    if pdb_id is None:
        pdb_id = TARGETS[target][0]
    if pdb_id not in TARGETS[target]:
        raise ValueError(f"unknown PDB id {pdb_id!r} for target {target}")
    if box_size <= 0 or spacing <= 0:
        raise ValueError("box_size and spacing must be positive")

    factory = RngFactory(seed, prefix=f"receptor/{target}")
    base_rng = factory.stream("sites")
    half = box_size / 2.0
    sites: list[PocketSite] = []
    for _ in range(n_sites):
        # sites cluster toward the pocket centre: drug pockets are concave
        pos = base_rng.normal(scale=half * 0.45, size=3).clip(-half * 0.9, half * 0.9)
        charge = float(base_rng.normal(scale=0.45))
        hydro = float(base_rng.uniform(-1.0, 1.0))
        radius = float(base_rng.uniform(1.4, 2.4))
        sites.append(PocketSite(pos, charge, hydro, radius))

    # crystal-structure variation: small per-PDB positional jitter
    variant_rng = factory.stream(f"variant/{pdb_id}")
    jitter = variant_rng.normal(scale=0.35, size=(n_sites, 3))
    sites = [
        PocketSite(s.position + jitter[i], s.charge, s.hydrophobicity, s.radius)
        for i, s in enumerate(sites)
    ]

    n = int(np.floor(box_size / spacing)) + 1
    axis = -half + spacing * np.arange(n)
    phi, hydro_f, steric = _field_from_sites(sites, axis)
    return Receptor(
        target=target,
        pdb_id=pdb_id,
        box_size=box_size,
        spacing=spacing,
        sites=sites,
        phi=phi,
        hydro=hydro_f,
        steric=steric,
    )
