"""Ligand preparation: molecule → docking beads and pose parameters.

A docking *bead set* carries per-heavy-atom coordinates, partial charges,
hydrophobicities and radii derived from the molecular graph, plus the
molecule's **rotatable-bond torsions** — the internal degrees of freedom
AutoDock's genome optimizes alongside position and orientation.  A *pose*
is (conformer index, torsion angles, rigid-body placement); conformer
enumeration supplies ring-pucker-style variation the torsions cannot
reach.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.chem.descriptors import partial_charges
from repro.chem.embed3d import embed_conformer
from repro.chem.graph import components, hop_counts, reachable
from repro.chem.mol import Molecule

__all__ = [
    "LigandBeads",
    "PackPlan",
    "PackedLigands",
    "Pose",
    "Torsion",
    "find_torsions",
    "pack_ligands",
    "packed_single",
    "prepare_ligand",
]

#: intra-ligand clash stiffness (kcal/mol/A^2) and contact-distance scale.
#: These live here (not in scoring) because the pair contact distances are
#: ligand-intrinsic and precomputed at pack time.
INTRA_K = 10.0
INTRA_SCALE = 0.8


@dataclass(frozen=True)
class Torsion:
    """One rotatable bond: rotate ``moving`` atoms about axis a→b."""

    a: int
    b: int
    moving: np.ndarray  # atom indices on the b-side of the bond


def find_torsions(mol: Molecule) -> list[Torsion]:
    """Rotatable-bond torsions of a molecule.

    A bond is rotatable when it is a single, non-ring, non-terminal bond
    (the same definition the rotatable-bond descriptor uses).  The moving
    set is the connected component containing ``b`` once the bond is cut;
    the smaller side is chosen so rotations perturb as little as possible.
    """
    adj = mol.neighbor_lists()
    component = {v: comp for comp in components(adj) for v in comp}
    ring_bonds = set()
    for ring in mol.rings():
        for a, b in zip(ring, [*ring[1:], ring[0]]):
            ring_bonds.add(frozenset((a, b)))
    torsions = []
    for bond in mol.bonds:
        if bond.order != 1 or bond.aromatic:
            continue
        if frozenset((bond.a, bond.b)) in ring_bonds:
            continue
        if mol.degree(bond.a) < 2 or mol.degree(bond.b) < 2:
            continue
        # one walk from b with the bond cut; if it never reaches a, the
        # bond was a bridge and a's side is the rest of the component
        side_b = reachable(adj, bond.b, cut=(bond.a, bond.b))
        side_a = side_b if bond.a in side_b else component[bond.a] - side_b
        if len(side_b) <= len(side_a):
            a, b, moving = bond.a, bond.b, side_b - {bond.b}
        else:
            a, b, moving = bond.b, bond.a, side_a - {bond.a}
        if moving:
            torsions.append(
                Torsion(a=a, b=b, moving=np.array(sorted(moving), dtype=int))
            )
    return torsions


@dataclass
class LigandBeads:
    """Per-atom docking parameters, conformer bank and torsion tree."""

    charges: np.ndarray  # (n,)
    hydro: np.ndarray  # (n,)
    radii: np.ndarray  # (n,)
    conformers: np.ndarray  # (k, n, 3), centred
    torsions: list[Torsion] = field(default_factory=list)
    #: atom pairs ≥ 3 bonds apart: the intra-ligand clash term's domain
    #: (flexible ligands must not fold through themselves — AutoDock's
    #: "internal energy" role)
    intra_pairs: np.ndarray = field(
        default_factory=lambda: np.zeros((0, 2), dtype=int)
    )

    @property
    def n_atoms(self) -> int:
        """Number of atoms (beads)."""
        return self.conformers.shape[1]

    @property
    def n_conformers(self) -> int:
        """Number of conformers in the bank."""
        return self.conformers.shape[0]

    @property
    def n_torsions(self) -> int:
        """Number of rotatable-bond degrees of freedom."""
        return len(self.torsions)


@dataclass
class Pose:
    """Pose genes: conformer, torsion angles, translation, orientation."""

    conformer: int
    translation: np.ndarray  # (3,)
    quaternion: np.ndarray  # (4,), unit norm
    torsion_angles: np.ndarray | None = None  # (n_torsions,) radians

    def copy(self) -> "Pose":
        """Deep copy of this pose."""
        return Pose(
            self.conformer,
            self.translation.copy(),
            self.quaternion.copy(),
            None if self.torsion_angles is None else self.torsion_angles.copy(),
        )


def prepare_ligand(
    mol: Molecule, rng: np.random.Generator, n_conformers: int = 4
) -> LigandBeads:
    """Derive docking beads, conformers and torsions from a molecule."""
    if n_conformers < 1:
        raise ValueError("need at least one conformer")
    charges = partial_charges(mol)
    hydro = np.array([a.element.hydrophobicity for a in mol.atoms])
    # add lipophilicity for implicit Hs on carbon (CH3 more greasy than bare C)
    for a in mol.atoms:
        if a.symbol == "C":
            hydro[a.index] += 0.05 * mol.implicit_hydrogens(a.index)
    radii = np.array([a.element.radius for a in mol.atoms])
    confs = np.stack([embed_conformer(mol, rng) for _ in range(n_conformers)])
    # intra-ligand pairs: topological distance >= 3 (1-2 and 1-3 excluded,
    # the standard nonbonded exclusion)
    far = hop_counts(mol.neighbor_lists(), cutoff=2) < 0
    intra = np.argwhere(np.triu(far, k=1))  # (i, j), i < j, row-major
    return LigandBeads(
        charges=charges,
        hydro=hydro,
        radii=radii,
        conformers=confs,
        torsions=find_torsions(mol),
        intra_pairs=intra,
    )


@dataclass
class PackedLigands:
    """A shard of ligands packed into padded struct-of-arrays.

    This is the memory layout of the fused multi-ligand docking kernels:
    every per-atom array is padded to the widest ligand in the shard
    (``max_atoms``), torsion trees to the deepest (``max_torsions``) and
    intra-ligand pair lists to the longest, with boolean
    masks marking the real entries.  Padded atoms carry zero charge and
    hydrophobicity and are masked out of steric/wall terms, so they
    contribute exactly zero energy and zero gradient.

    The determinism contract: a ligand's kernel outputs depend only on
    its *own* rows and its *own* intrinsic sizes (``n_atoms[l]``,
    ``n_torsions[l]``, ``n_pairs[l]``), never on the pack's padded
    widths — reductions are taken over per-ligand slices of intrinsic
    length, which makes results bit-identical whether the ligand is
    docked alone, in a shard, or in a reordered shard.
    """

    beads: list  # list[LigandBeads], the unpacked originals
    n_atoms: np.ndarray  # (L,) int
    n_torsions: np.ndarray  # (L,) int
    n_conformers: np.ndarray  # (L,) int
    n_pairs: np.ndarray  # (L,) int
    atom_mask: np.ndarray  # (L, A) bool
    charges: np.ndarray  # (L, A), zero-padded
    hydro: np.ndarray  # (L, A), zero-padded
    conformers: np.ndarray  # (L, C, A, 3), zero-padded
    tor_a: np.ndarray  # (T, L) int, axis atom a per torsion slot
    tor_b: np.ndarray  # (T, L) int, axis atom b per torsion slot
    tor_valid: np.ndarray  # (T, L) bool, slot < n_torsions[l]
    tor_moving: np.ndarray  # (T, L, A) bool, moving-atom masks
    pair_idx: np.ndarray  # (L, M, 2) int, intra pairs, (0, 0)-padded
    pair_sigma: np.ndarray  # (L, M), contact distances, zero-padded

    @property
    def n_ligands(self) -> int:
        """Number of ligands in the shard."""
        return len(self.beads)

    @property
    def max_atoms(self) -> int:
        """Padded atom count (widest ligand)."""
        return self.conformers.shape[2]

    @property
    def max_torsions(self) -> int:
        """Padded torsion count (deepest torsion tree)."""
        return self.tor_a.shape[0]

    def plan(self, rows_per_ligand: int) -> "PackPlan":
        """Cached :class:`PackPlan` for ``rows_per_ligand`` rows per ligand.

        The scoring kernels are called thousands of times per docking run
        with the same pack and the same batch geometry; building the
        row-level index arithmetic once per ``(pack, rows_per_ligand)``
        keeps it off the kernel hot path.
        """
        plans = self.__dict__.setdefault("_plans", {})
        plan = plans.get(rows_per_ligand)
        if plan is None:
            plan = plans[rows_per_ligand] = PackPlan(self, rows_per_ligand)
        return plan


def pack_ligands(beads_list: list[LigandBeads]) -> PackedLigands:
    """Pack a shard of prepared ligands for the fused docking kernels."""
    if not beads_list:
        raise ValueError("cannot pack an empty shard")
    lcount = len(beads_list)
    n_atoms = np.array([b.n_atoms for b in beads_list], dtype=int)
    n_tors = np.array([b.n_torsions for b in beads_list], dtype=int)
    n_confs = np.array([b.n_conformers for b in beads_list], dtype=int)
    n_pairs = np.array([len(b.intra_pairs) for b in beads_list], dtype=int)
    a_max = int(n_atoms.max())
    t_max = int(n_tors.max())
    c_max = int(n_confs.max())
    m_max = int(n_pairs.max())

    atom_mask = np.zeros((lcount, a_max), dtype=bool)
    charges = np.zeros((lcount, a_max))
    hydro = np.zeros((lcount, a_max))
    conformers = np.zeros((lcount, c_max, a_max, 3))
    tor_a = np.zeros((t_max, lcount), dtype=int)
    tor_b = np.zeros((t_max, lcount), dtype=int)
    tor_valid = np.zeros((t_max, lcount), dtype=bool)
    tor_moving = np.zeros((t_max, lcount, a_max), dtype=bool)
    pair_idx = np.zeros((lcount, m_max, 2), dtype=int)
    pair_sigma = np.zeros((lcount, m_max))

    # per-ligand shapes make the pack loop genuinely sequential
    for li, b in enumerate(beads_list):  # repro: disable=vectorization -- ragged shapes
        n = b.n_atoms
        atom_mask[li, :n] = True
        charges[li, :n] = b.charges
        hydro[li, :n] = b.hydro
        conformers[li, : b.n_conformers, :n] = b.conformers
        for t, tor in enumerate(b.torsions):  # repro: disable=vectorization -- ragged moving sets
            # each torsion slot scatters its own mask
            tor_a[t, li] = tor.a
            tor_b[t, li] = tor.b
            tor_valid[t, li] = True
            tor_moving[t, li, tor.moving] = True
        if len(b.intra_pairs):
            m = len(b.intra_pairs)
            pair_idx[li, :m] = b.intra_pairs
            pi, pj = b.intra_pairs[:, 0], b.intra_pairs[:, 1]
            # exactly the scoring-kernel expression, so packed sigmas are
            # bit-identical to the per-call single-ligand computation
            pair_sigma[li, :m] = INTRA_SCALE * 0.5 * (b.radii[pi] + b.radii[pj])
    return PackedLigands(
        beads=list(beads_list),
        n_atoms=n_atoms,
        n_torsions=n_tors,
        n_conformers=n_confs,
        n_pairs=n_pairs,
        atom_mask=atom_mask,
        charges=charges,
        hydro=hydro,
        conformers=conformers,
        tor_a=tor_a,
        tor_b=tor_b,
        tor_valid=tor_valid,
        tor_moving=tor_moving,
        pair_idx=pair_idx,
        pair_sigma=pair_sigma,
    )


def packed_single(beads: LigandBeads) -> PackedLigands:
    """Pack-of-one view of ``beads``, cached on the instance.

    The single-ligand scoring and local-search API routes through the
    same packed kernels as the fused shard path; caching the trivial pack
    keeps the wrapper overhead off repeated calls.
    """
    pack = beads.__dict__.get("_packed1")
    if pack is None:
        pack = pack_ligands([beads])
        beads.__dict__["_packed1"] = pack
    return pack


class PackPlan:
    """Precomputed row↔ligand indexing for the packed scoring kernels.

    A plan fixes the batch geometry — ``rows_per_ligand`` poses per
    ligand, ligand blocks contiguous — and precomputes everything the
    kernels would otherwise rebuild per call: per-row parameter gathers
    (charges, hydrophobicities, masks, intra-pair tables), per-torsion-
    slot row gathers, reduction row sets grouped by intrinsic width, and
    the flat intra-pair scatter index.

    Width grouping is the fused path's answer to the per-ligand
    reduction loop without giving up bit-identity: reductions are still
    taken per row over each ligand's *intrinsic* width (never the padded
    width), but all ligands sharing a width reduce in one call.  Row
    lanes reduce independently, so gathering same-width rows together
    cannot change any lane's summation grouping.
    """

    def __init__(self, pack: PackedLigands, rows_per_ligand: int) -> None:
        lcount = pack.n_ligands
        r = int(rows_per_ligand)
        k = lcount * r
        self.rows_per_ligand = r
        self.n_rows = k
        self.lig_idx = np.repeat(np.arange(lcount), r)
        self.row_ids = np.arange(k)
        self.row_col = self.row_ids[:, None]
        # per-row parameter gathers; a pack-of-one keeps the (1, A)
        # broadcast row so a single-ligand call pays no gather at all
        sel = slice(0, 1) if lcount == 1 else self.lig_idx
        self.charges = pack.charges[sel]
        self.hydro = pack.hydro[sel]
        self.atom_mask = pack.atom_mask[sel]
        # inverted mask, precomputed so the kernels' masked in-place
        # writes (np.copyto ... where=) pay no per-call negation
        self.atom_notmask = ~self.atom_mask
        # per-slot torsion gathers: axis atoms and the combined
        # valid-and-moving selection mask per row
        self.tor_a = pack.tor_a[:, self.lig_idx]
        self.tor_b = pack.tor_b[:, self.lig_idx]
        self.tor_sel = (
            pack.tor_valid[:, self.lig_idx, None]
            & pack.tor_moving[:, self.lig_idx]
        )
        self.tor_slots = [
            t for t in range(pack.max_torsions) if bool(pack.tor_valid[t].any())
        ]
        # slot-stacked views of the same gathers, for kernels that process
        # every torsion slot in one fused pass (the torsion-gradient field
        # has no slot-order dependency, unlike applying the rotations)
        self.tor_slot_arr = np.array(self.tor_slots, dtype=int)
        if len(self.tor_slots) == pack.max_torsions:
            self.tor_a_s = self.tor_a
            self.tor_b_s = self.tor_b
            self.tor_sel_s = self.tor_sel
        else:
            self.tor_a_s = self.tor_a[self.tor_slot_arr]
            self.tor_b_s = self.tor_b[self.tor_slot_arr]
            self.tor_sel_s = self.tor_sel[self.tor_slot_arr]
        self.tor_notsel_s = ~self.tor_sel_s
        self.atom_groups = self._width_groups(pack.n_atoms, lcount, r, k)
        # flat real-atom layout: one entry per *real* (row, atom), laid
        # out per row with atoms ascending.  The kernels' elementwise
        # phase (gather stencil, channel products, wall, intra pairs)
        # runs entirely on this axis, so atom padding costs zero
        # arithmetic — a 6-atom fragment bucketed next to a 31-atom
        # ligand pays only its own six lanes.  Every lane is elementwise
        # and each reduction lane keeps its intrinsic width, so the
        # layout cannot change any bit of any ligand's result
        n_atoms_row = pack.n_atoms[self.lig_idx]  # (K,)
        self.row_flat_start = np.zeros(k + 1, dtype=int)
        np.cumsum(n_atoms_row, out=self.row_flat_start[1:])
        n_flat = int(self.row_flat_start[-1])
        if n_flat == k * pack.max_atoms:
            # no padding anywhere (e.g. a pack-of-one): the flat layout
            # is exactly the row-major reshape, so the kernels use free
            # views instead of gather/scatter round-trips
            self.atom_flat: np.ndarray | None = None
        else:
            within = np.arange(n_flat) - np.repeat(
                self.row_flat_start[:-1], n_atoms_row
            )
            self.atom_flat = (
                np.repeat(self.row_ids * pack.max_atoms, n_atoms_row) + within
            )
            self.charges_flat = self.charges.ravel()[self.atom_flat]
            self.hydro_flat = self.hydro.ravel()[self.atom_flat]
        # reduction gathers on the flat axis, aligned with atom_groups:
        # adjacent same-width rows give a contiguous flat slice
        self.atom_groups_flat: list[
            tuple[int, slice | np.ndarray, slice | np.ndarray]
        ] = []
        for n, rows in self.atom_groups:
            if isinstance(rows, slice):
                fidx: slice | np.ndarray = slice(
                    int(self.row_flat_start[rows.start]),
                    int(self.row_flat_start[rows.stop]),
                )
            else:
                fidx = self.row_flat_start[rows][:, None] + np.arange(n)
            self.atom_groups_flat.append((n, rows, fidx))
        # flat intra-pair layout: one entry per *real* (row, pair), laid
        # out per ligand block, per row, pairs ascending — the same
        # accumulation order as a per-ligand scatter.  The whole intra
        # elementwise phase runs on this flat axis, so padded pair slots
        # cost nothing (a torsion-homogeneous bucket can mix a 2-pair
        # fragment with a 382-pair ligand without the small one paying
        # the wide one's pair width)
        rs, ais, ajs, sigs = [], [], [], []
        flat_off = np.zeros(lcount + 1, dtype=int)
        for li in range(lcount):  # repro: disable=vectorization -- ragged pair lists
            # runs once per plan, not per call
            m = int(pack.n_pairs[li])
            flat_off[li + 1] = flat_off[li] + m * r
            if m == 0:
                continue
            pairs = pack.beads[li].intra_pairs
            rows = np.arange(li * r, (li + 1) * r)
            rs.append(np.repeat(rows, m))
            ais.append(np.tile(pairs[:, 0], r))
            ajs.append(np.tile(pairs[:, 1], r))
            sigs.append(np.tile(pack.pair_sigma[li, :m], r))
        # per-width flat reduction gathers: each same-width ligand group
        # reduces its (rows, m) overlap block in one call; adjacent
        # ligands give a contiguous flat slice (zero-copy reshape),
        # scattered ones a fancy gather
        self.pair_groups: list[
            tuple[int, slice | np.ndarray, slice | np.ndarray]
        ] = []
        for m, rows in self._width_groups(pack.n_pairs, lcount, r, k):
            if m == 0:
                continue
            slots = np.flatnonzero(pack.n_pairs == m)
            if len(slots) == slots[-1] - slots[0] + 1:
                idx: slice | np.ndarray = slice(
                    int(flat_off[slots[0]]), int(flat_off[slots[-1] + 1])
                )
            else:
                idx = (
                    flat_off[slots][:, None] + np.arange(r * m)
                ).reshape(len(slots) * r, m)
            self.pair_groups.append((m, rows, idx))
        if rs:
            row_sc = np.concatenate(rs)
            ai = np.concatenate(ais)
            aj = np.concatenate(ajs)
            # pair endpoints as indices into the flat real-atom axis
            # (row_flat_start[row] + atom); with no padding this equals
            # row * max_atoms + atom, so both kernel layouts share them
            self.pair_fi: np.ndarray | None = self.row_flat_start[row_sc] + ai
            self.pair_fj: np.ndarray | None = self.row_flat_start[row_sc] + aj
            self.pair_sig_flat: np.ndarray | None = np.concatenate(sigs)
            # element-level indices into the flat gradient's ravel(): the
            # i-scatter block then the j-scatter block, preserving the
            # accumulation order of two separate scatters (1-D ufunc.at
            # is ~10× the speed of the multi-axis form, identical bits)
            comp = np.arange(3)
            flat_i = ((self.pair_fi[:, None] * 3 + comp)).ravel()
            flat_j = ((self.pair_fj[:, None] * 3 + comp)).ravel()
            self.pair_scatter: np.ndarray | None = np.concatenate(
                [flat_i, flat_j]
            )
        else:
            self.pair_fi = self.pair_fj = None
            self.pair_sig_flat = self.pair_scatter = None

    @staticmethod
    def _width_groups(
        widths: np.ndarray, lcount: int, r: int, k: int
    ) -> list[tuple[int, slice | np.ndarray]]:
        """Reduction row sets per distinct intrinsic width.

        When a width's ligands sit adjacent in the pack (always true for
        the size-sorted shard buckets), the rows form a contiguous range
        and a ``slice`` keeps the reduction input a zero-copy view —
        reductions over strided views and gathered copies group lanes
        identically, so the bits don't change, only the gather traffic.
        Non-adjacent ligands fall back to a fancy index.
        """
        groups: list[tuple[int, slice | np.ndarray]] = []
        for w in sorted({int(x) for x in widths}):
            slots = np.flatnonzero(widths == w)
            if len(slots) == slots[-1] - slots[0] + 1:
                rows: slice | np.ndarray = slice(
                    int(slots[0]) * r, (int(slots[-1]) + 1) * r
                )
            else:
                rows = (slots[:, None] * r + np.arange(r)).ravel()
            groups.append((w, rows))
        return groups
