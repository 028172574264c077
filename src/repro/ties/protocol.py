"""TIES: Thermodynamic Integration with Enhanced Sampling.

The lead-optimization method of the paper's Table 2 ("BFE-TI, not
integrated": 64 nodes, ~640 node-hours per ligand — two orders of
magnitude beyond ESMACS-FG).  TIES computes the *relative* binding free
energy of transforming ligand A into ligand B:

``ΔΔG(A→B) = ΔG_transform(complex) − ΔG_transform(solvent)``

where each leg is a thermodynamic integration over λ-windows, each
window sampled by an *ensemble* of replicas (the "enhanced sampling"
part), and ``⟨dU/dλ⟩`` integrated by the trapezoid rule.  dU/dλ is
evaluated by central differences of the hybrid-parameter energy on the
sampled configurations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.chem.mol import Molecule
from repro.docking.receptor import Receptor
from repro.md.builder import build_lpc
from repro.md.forcefield import ForceField
from repro.md.integrator import Langevin
from repro.md.minimize import minimize
from repro.md.system import MDSystem, Topology
from repro.md.trajectory import simulate
from repro.ties.alchemical import HybridLigand, build_hybrid
from repro.util.config import FrozenConfig, validate_positive
from repro.util.rng import RngFactory

__all__ = ["TiesConfig", "TiesLeg", "TiesResult", "TiesRunner"]


@dataclass(frozen=True)
class TiesConfig(FrozenConfig):
    """Protocol shape (paper-style: 13 windows × 5 replicas at scale)."""

    n_windows: int = 5
    replicas_per_window: int = 3
    equilibration_steps: int = 20
    production_steps: int = 60
    record_every: int = 4
    n_residues: int = 70
    temperature: float = 300.0
    timestep_ps: float = 0.01
    minimize_iterations: int = 20
    dlambda: float = 0.02  # central-difference step for dU/dλ

    def __post_init__(self) -> None:
        validate_positive("n_windows", self.n_windows)
        validate_positive("replicas_per_window", self.replicas_per_window)
        validate_positive("production_steps", self.production_steps)
        validate_positive("dlambda", self.dlambda)
        if self.n_windows < 2:
            raise ValueError("need at least 2 lambda windows")

    def lambdas(self) -> np.ndarray:
        """The λ-window grid in [0, 1]."""
        return np.linspace(0.0, 1.0, self.n_windows)


@dataclass
class TiesLeg:
    """One TI leg (complex or solvent)."""

    lambdas: np.ndarray
    dudl_mean: np.ndarray  # (windows,) ensemble ⟨dU/dλ⟩
    dudl_sem: np.ndarray  # (windows,) SEM over replicas
    delta_g: float  # trapezoid integral
    sem: float


@dataclass
class TiesResult:
    """Relative binding free energy of A→B."""

    compound_a: str
    compound_b: str
    complex_leg: TiesLeg
    solvent_leg: TiesLeg

    @property
    def ddg(self) -> float:
        """ΔΔG(A→B) in kcal/mol; negative = B binds tighter."""
        return self.complex_leg.delta_g - self.solvent_leg.delta_g

    @property
    def sem(self) -> float:
        """Combined standard error of the two legs."""
        return float(np.hypot(self.complex_leg.sem, self.solvent_leg.sem))


def _with_ligand_params(
    topology: Topology, hybrid: HybridLigand, lam: float
) -> Topology:
    """Copy of ``topology`` with the ligand beads set to λ parameters."""
    charges = topology.charges.copy()
    hydro = topology.hydro.copy()
    radii = topology.radii.copy()
    q, h, r = hybrid.parameters_at(lam)
    lig = topology.ligand_atoms
    charges[lig] = q
    hydro[lig] = h
    radii[lig] = r
    return Topology(
        masses=topology.masses,
        charges=charges,
        hydro=hydro,
        radii=radii,
        bonds=topology.bonds,
        bond_lengths=topology.bond_lengths,
        bond_k=topology.bond_k,
        protein_atoms=topology.protein_atoms,
        ligand_atoms=topology.ligand_atoms,
    )


class TiesRunner:
    """Run TIES transformations against one receptor."""

    def __init__(
        self,
        receptor: Receptor,
        config: TiesConfig | None = None,
        forcefield: ForceField | None = None,
        seed: int = 0,
    ) -> None:
        self.receptor = receptor
        self.config = config or TiesConfig()
        self.forcefield = forcefield or ForceField()
        self.factory = RngFactory(seed, prefix=f"ties/{receptor.target}")

    # ----------------------------------------------------------- plumbing
    def _hybrid_base_system(
        self, mol_a: Molecule, hybrid: HybridLigand, ligand_coords: np.ndarray,
        with_protein: bool,
    ) -> MDSystem:
        """Build the λ=0 system with the hybrid bead count.

        The complex leg reuses the LPC builder (protein + pocket); the
        solvent leg strips the protein and keeps the confined droplet.
        """
        cfg = self.config
        n = hybrid.n_beads
        # pad/truncate starting coordinates to the hybrid bead count
        coords = np.zeros((n, 3))
        m = min(len(ligand_coords), n)
        coords[:m] = ligand_coords[:m]
        if n > m:
            rng = self.factory.stream("ghost-placement")
            coords[m:] = coords[:1] + rng.normal(scale=1.0, size=(n - m, 3))

        q0, h0, r0 = hybrid.parameters_at(0.0)
        if with_protein:
            # build an LPC around a stand-in molecule, then swap the
            # ligand block for the hybrid parameterization
            base = build_lpc(
                self.receptor, mol_a, ligand_coords, seed=self.factory.seed,
                n_residues=cfg.n_residues,
            )
            topo = base.topology
            n_p = len(topo.protein_atoms)
            masses = np.concatenate([topo.masses[:n_p], np.full(n, 14.0)])
            charges = np.concatenate([topo.charges[:n_p], q0])
            hydro = np.concatenate([topo.hydro[:n_p], h0])
            radii = np.concatenate([topo.radii[:n_p], r0])
            prot_bond_mask = (topo.bonds < n_p).all(axis=1)
            prot_bonds = topo.bonds[prot_bond_mask]
            prot_lengths = topo.bond_lengths[prot_bond_mask]
            prot_k = topo.bond_k[prot_bond_mask]
            lig_bonds = hybrid.bonds + n_p
            bonds = np.concatenate([prot_bonds, lig_bonds]).astype(int)
            lengths = np.concatenate([prot_lengths, hybrid.bond_lengths])
            ks = np.concatenate([prot_k, np.full(len(lig_bonds), 20.0)])
            topology = Topology(
                masses=masses, charges=charges, hydro=hydro, radii=radii,
                bonds=bonds, bond_lengths=lengths, bond_k=ks,
                protein_atoms=np.arange(n_p),
                ligand_atoms=np.arange(n_p, n_p + n),
            )
            positions = np.concatenate([base.positions[:n_p], coords])
        else:
            topology = Topology(
                masses=np.full(n, 14.0), charges=q0, hydro=h0, radii=r0,
                bonds=hybrid.bonds.astype(int),
                bond_lengths=hybrid.bond_lengths,
                bond_k=np.full(len(hybrid.bonds), 20.0),
                protein_atoms=np.zeros(0, dtype=int),
                ligand_atoms=np.arange(n),
            )
            positions = coords
        return MDSystem(topology=topology, positions=positions)

    def _window_dudl(
        self,
        base: MDSystem,
        start_positions: np.ndarray,
        hybrid: HybridLigand,
        lam: float,
        leg: str,
        pair_id: str,
    ) -> tuple[float, float, np.ndarray]:
        """⟨dU/dλ⟩ ± SEM for one window, ensemble over replicas.

        Returns the first replica's final positions so windows can
        cascade: starting each λ from the previous window's relaxed
        structure avoids the clash spikes a cold restart produces when
        interpolated radii meet a tight pocket (the role λ-window
        equilibration cascades play in production TI).
        """
        cfg = self.config
        topo_lam = _with_ligand_params(base.topology, hybrid, lam)
        lam_lo = max(0.0, lam - cfg.dlambda)
        lam_hi = min(1.0, lam + cfg.dlambda)
        topo_lo = _with_ligand_params(base.topology, hybrid, lam_lo)
        topo_hi = _with_ligand_params(base.topology, hybrid, lam_hi)
        denom = lam_hi - lam_lo

        integ = Langevin(timestep=cfg.timestep_ps, temperature=cfg.temperature)
        samples = []
        carry = start_positions
        for rep in range(cfg.replicas_per_window):
            rng = self.factory.stream(f"{pair_id}/{leg}/l{lam:.3f}/r{rep}")
            system = MDSystem(
                topology=topo_lam,
                positions=start_positions.copy(),
                reference_positions=base.reference_positions.copy(),
            )
            minimize(system, self.forcefield, max_iterations=cfg.minimize_iterations)
            system.initialize_velocities(cfg.temperature, rng)
            integ.run(system, self.forcefield, cfg.equilibration_steps, rng)
            traj = simulate(
                system, self.forcefield, integ, cfg.production_steps, rng,
                record_every=cfg.record_every,
            )
            dudls = []
            for frame in traj.frames:
                e_hi = self.forcefield.energies(topo_hi, frame)
                e_lo = self.forcefield.energies(topo_lo, frame)
                dudls.append((e_hi.total - e_lo.total) / denom)
            samples.append(float(np.mean(dudls)))
            if rep == 0:
                carry = system.positions.copy()
        samples = np.array(samples)
        sem = (
            float(samples.std(ddof=1) / np.sqrt(len(samples)))
            if len(samples) > 1
            else 0.0
        )
        return float(samples.mean()), sem, carry

    def _leg(
        self,
        mol_a: Molecule,
        hybrid: HybridLigand,
        ligand_coords: np.ndarray,
        with_protein: bool,
        pair_id: str,
    ) -> TiesLeg:
        base = self._hybrid_base_system(mol_a, hybrid, ligand_coords, with_protein)
        lambdas = self.config.lambdas()
        means = np.empty(len(lambdas))
        sems = np.empty(len(lambdas))
        leg_name = "complex" if with_protein else "solvent"
        positions = base.positions.copy()
        for i, lam in enumerate(lambdas):
            means[i], sems[i], positions = self._window_dudl(
                base, positions, hybrid, float(lam), leg_name, pair_id
            )
        dg = float(np.trapezoid(means, lambdas))
        # trapezoid error propagation with end-point half weights
        w = np.gradient(lambdas)
        sem = float(np.sqrt(((w * sems) ** 2).sum()))
        return TiesLeg(lambdas=lambdas, dudl_mean=means, dudl_sem=sems, delta_g=dg, sem=sem)

    # ------------------------------------------------------------- public
    def run(
        self,
        mol_a: Molecule,
        mol_b: Molecule,
        ligand_coords: np.ndarray,
        compound_a: str = "A",
        compound_b: str = "B",
    ) -> TiesResult:
        """Compute ΔΔG(A→B) starting from A's (docked) coordinates."""
        if ligand_coords.shape != (mol_a.n_atoms, 3):
            raise ValueError("ligand_coords must match mol_a's atom count")
        hybrid = build_hybrid(mol_a, mol_b)
        pair_id = f"{compound_a}->{compound_b}"
        complex_leg = self._leg(mol_a, hybrid, ligand_coords, True, pair_id)
        solvent_leg = self._leg(mol_a, hybrid, ligand_coords, False, pair_id)
        return TiesResult(
            compound_a=compound_a,
            compound_b=compound_b,
            complex_leg=complex_leg,
            solvent_leg=solvent_leg,
        )
