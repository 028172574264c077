"""Grid-based scoring function with analytic pose gradients — batch-native.

Scores follow the AutoDock decomposition: per-atom lookups into the
receptor's electrostatic, hydrophobic and steric grids, summed with the
ligand's per-atom parameters.  Trilinear interpolation makes the score a
piecewise-trilinear function of atom positions, so the gradient needed by
the ADADELTA local search comes from the same interpolation stencil — no
finite differencing at search time.

AutoDock-GPU processes "ligand-receptor poses in parallel over multiple
compute units" (§5.1.1); the NumPy analogue is batching.  The kernels
here are *packed*: they take a :class:`~repro.docking.ligand.PackedLigands`
shard plus a row→ligand map, so one kernel call can score poses of many
different ligands at once.  The three receptor fields are stacked into a
``(3, n, n, n)`` array and interpolated with a single gather stencil, and
padded atoms (masked out in the pack) contribute exactly zero energy and
zero gradient.

Determinism contract: every reduction (energy sums, rigid-body and
torsion gradients, intra-ligand terms) runs over a per-ligand slice of
the ligand's *intrinsic* width, never the pack's padded width.  NumPy's
pairwise summation then groups terms identically regardless of shard
composition, which makes a ligand's scores and gradients bit-identical
whether it is scored alone (the single-ligand wrappers build a cached
pack-of-one) or fused into a shard.  Scores are negative-better
(kcal/mol-like).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.docking.ligand import (
    INTRA_K,
    LigandBeads,
    PackedLigands,
    PackPlan,
    Pose,
    packed_single,
)
from repro.docking.receptor import Receptor

__all__ = [
    "ScoreBreakdown",
    "score_pose",
    "score_and_gradient",
    "score_poses_batch",
    "score_and_gradient_batch",
    "batch_pose_coordinates",
    "apply_rigid_step",
    "apply_rigid_steps_batch",
    "interpolate_stacked",
    "packed_pose_coordinates",
    "apply_packed_torsions",
    "packed_atom_energies",
    "packed_score_batch",
    "packed_score_and_gradient_batch",
]

#: penalty per angstrom^2 for atoms escaping the box
_WALL_K = 10.0

#: intra-ligand clash stiffness (defined next to the pack that
#: precomputes the pair contact distances)
_INTRA_K = INTRA_K


@dataclass(frozen=True)
class ScoreBreakdown:
    """Score decomposition (all kcal/mol; total = sum of parts)."""

    electrostatic: float
    hydrophobic: float
    steric: float
    wall: float

    @property
    def total(self) -> float:
        """Sum of all components."""
        return self.electrostatic + self.hydrophobic + self.steric + self.wall


def interpolate_stacked(
    grids: np.ndarray,
    receptor: Receptor,
    coords: np.ndarray,
    want_grad: bool = True,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Trilinear interpolation of a ``(g, n, n, n)`` grid stack at once.

    One gather stencil serves all ``g`` fields: the cell indices, the
    fractional offsets and the eight corner gathers are computed a single
    time and broadcast across the leading grid axis.  Returns
    ``(values (g, …), gradients (g, …, 3))``; ``gradients`` is ``None``
    when ``want_grad`` is false (score-only kernel calls skip the
    stencil's gradient arithmetic entirely).
    """
    n = receptor.n_grid
    rel = coords - receptor.origin
    rel /= receptor.spacing
    i0 = np.clip(np.floor(rel).astype(int), 0, n - 2)
    f = rel
    f -= i0
    np.clip(f, 0.0, 1.0, out=f)

    fx, fy, fz = f[..., 0], f[..., 1], f[..., 2]

    # one flat cell index per point; the eight corners are fixed offsets
    # on it, so a single fancy gather pulls every corner of every field
    # out of the contiguous stack at once, then corner views unpack it
    n2 = n * n
    base = (i0[..., 0] * n + i0[..., 1]) * n + i0[..., 2]
    flat = grids.reshape(len(grids), -1)
    offs = np.array([0, n2, n, n2 + n, 1, n2 + 1, n + 1, n2 + n + 1])
    idx = offs[(slice(None),) + (None,) * base.ndim] + base
    corners = flat[:, idx]  # (g, 8, …) — corner planes stay contiguous
    c000, c100, c010, c110 = (
        corners[:, 0], corners[:, 1], corners[:, 2], corners[:, 3]
    )
    c001, c101, c011, c111 = (
        corners[:, 4], corners[:, 5], corners[:, 6], corners[:, 7]
    )

    # the lerp chains below accumulate in place (``a * w; += b * w``),
    # which runs the exact same IEEE add/multiply sequence as the
    # textbook ``a * w + b * w`` expressions while skipping one
    # temporary per line — on fused batches these temporaries are the
    # dominant memory traffic of the whole stencil
    gx, gy, gz = 1 - fx, 1 - fy, 1 - fz
    c00 = c000 * gx
    c00 += c100 * fx
    c10 = c010 * gx
    c10 += c110 * fx
    c01 = c001 * gx
    c01 += c101 * fx
    c11 = c011 * gx
    c11 += c111 * fx
    c0 = c00 * gy
    c0 += c10 * fy
    c1 = c01 * gy
    c1 += c11 * fy
    value = c0 * gz
    value += c1 * fz

    if not want_grad:
        return value, None
    grad = np.empty(value.shape + (3,))
    d_dx = c100 - c000
    d_dx *= gy
    t = c110 - c010
    t *= fy
    d_dx += t
    d_dx *= gz
    u = c101 - c001
    u *= gy
    t = c111 - c011
    t *= fy
    u += t
    u *= fz
    d_dx += u
    grad[..., 0] = d_dx
    d_dy = c010 - c000
    d_dy *= gx
    t = c110 - c100
    t *= fx
    d_dy += t
    d_dy *= gz
    u = c011 - c001
    u *= gx
    t = c111 - c101
    t *= fx
    u += t
    u *= fz
    d_dy += u
    grad[..., 1] = d_dy
    np.subtract(c1, c0, out=grad[..., 2])
    grad /= receptor.spacing
    return value, grad


# ------------------------------------------------------------------- batch


def _norm_last(x: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(x, axis=-1, keepdims=True)`` without the wrapper.

    For real input norm computes ``sqrt(add.reduce(x * x, axis))`` — the
    exact ufunc sequence below — so the result is bit-identical; this
    just skips ``norm``'s Python-level dispatch, which the kernels pay
    tens of thousands of times per docking run.
    """
    return np.sqrt((x * x).sum(axis=-1, keepdims=True))


def batch_quaternion_to_matrix(q: np.ndarray) -> np.ndarray:
    """Rotation matrices for a batch of quaternions (k, 4) → (k, 3, 3)."""
    q = q / _norm_last(q)
    x, y, z, w = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    m = np.empty(q.shape[:-1] + (3, 3))
    m[..., 0, 0] = 1 - 2 * (y * y + z * z)
    m[..., 0, 1] = 2 * (x * y - w * z)
    m[..., 0, 2] = 2 * (x * z + w * y)
    m[..., 1, 0] = 2 * (x * y + w * z)
    m[..., 1, 1] = 1 - 2 * (x * x + z * z)
    m[..., 1, 2] = 2 * (y * z - w * x)
    m[..., 2, 0] = 2 * (x * z - w * y)
    m[..., 2, 1] = 2 * (y * z + w * x)
    m[..., 2, 2] = 1 - 2 * (x * x + y * y)
    return m


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross product over the last axis, broadcasting like ``np.cross``.

    Bit-identical to ``np.cross`` for 3-vectors (the same three
    multiply/subtract expressions) without its Python-level axis
    shuffling, which dominates on the small arrays the kernels pass
    thousands of times per docking run.
    """
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    out = np.empty(np.broadcast(a, b).shape)
    out[..., 0] = a1 * b2 - a2 * b1
    out[..., 1] = a2 * b0 - a0 * b2
    out[..., 2] = a0 * b1 - a1 * b0
    return out


def apply_packed_torsions(
    pack: PackedLigands,
    plan: PackPlan,
    coords: np.ndarray,
    angles: np.ndarray,
) -> np.ndarray:
    """Rotate every ligand's moving atoms about its bond axes, fused.

    ``coords`` is (K, A, 3) local conformer coordinates for a batch of
    poses of possibly-different ligands, ``angles`` is (K, T) padded
    torsion genes.  Torsion *slots* apply sequentially in definition
    order (the torsion-tree convention) but each slot rotates all poses
    of all ligands at once; rows whose ligand has no torsion at a slot
    are preserved bit-exactly via the plan's selection mask.
    """
    out = coords.copy()
    rows = plan.row_ids
    # each slot's origin/axis come from coordinates already rotated by
    # earlier slots, so the (short) slot axis is genuinely sequential;
    # every line inside is batched over the (long) pose axis
    for t in plan.tor_slots:
        a = plan.tor_a[t]
        b = plan.tor_b[t]
        sel = plan.tor_sel[t]  # (K, A)
        origin = out[rows, a]  # (K, 3)
        axis = out[rows, b] - origin
        axis = axis / (_norm_last(axis) + 1e-12)
        theta = angles[:, t]
        cos = np.cos(theta)[:, None, None]
        sin = np.sin(theta)[:, None, None]
        v = out - origin[:, None, :]  # (K, A, 3)
        k_vec = axis[:, None, :]  # (K, 1, 3)
        cross = _cross(k_vec, v)
        dot = (k_vec * v).sum(-1, keepdims=True)
        # Rodrigues accumulated in place over v's own buffer — identical
        # op order to ``v*cos + cross*sin + k_vec*dot*(1-cos)``, minus
        # three (K, A, 3) temporaries per slot
        v *= cos
        cross *= sin
        v += cross
        axial = k_vec * dot
        axial *= 1.0 - cos
        v += axial
        v += origin[:, None, :]
        # in-place masked write: selected atoms take the rotated value,
        # everything else keeps its bits (out is this kernel's own copy)
        np.copyto(out, v, where=sel[..., None])
    return out


def packed_pose_coordinates(
    pack: PackedLigands,
    plan: PackPlan,
    conformer_idx: np.ndarray,
    translations: np.ndarray,
    quaternions: np.ndarray,
    torsion_angles: np.ndarray | None = None,
) -> np.ndarray:
    """World coordinates for a fused batch of poses → (K, A, 3).

    ``torsion_angles`` (K, T) applies the rotatable-bond genes in the
    local frame before the rigid-body transform; ``None`` keeps every
    conformer rigid.
    """
    if pack.n_ligands == 1:
        conf = pack.conformers[0, conformer_idx]
    else:
        conf = pack.conformers[plan.lig_idx, conformer_idx]  # (K, A, 3)
    if torsion_angles is not None and pack.max_torsions:
        conf = apply_packed_torsions(pack, plan, conf, torsion_angles)
    rot = batch_quaternion_to_matrix(quaternions)  # (K, 3, 3)
    return np.einsum("kni,kji->knj", conf, rot) + translations[:, None, :]


def packed_atom_energies(
    receptor: Receptor,
    pack: PackedLigands,
    plan: PackPlan,
    coords: np.ndarray,
    want_grad: bool = True,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Fused energies + per-atom gradients over a multi-ligand pose batch.

    ``coords`` is (K, A, 3) with ligand blocks laid out per ``plan``.
    Returns ``(totals (K,), components (K, 4), atom_grad (K, A, 3) or
    None)`` where components order is (electrostatic, hydrophobic,
    steric+intra, wall).  The whole elementwise phase (gather stencil,
    field products, wall and clash terms) runs on the plan's flat
    real-atom axis — one lane per actual (row, atom) — so padded atoms
    cost zero arithmetic and come back with exactly zero energy and
    zero gradient.  Reductions run per row over each ligand's intrinsic
    width, batched across same-width ligands via the plan's width
    groups (the determinism spine — see the module docstring).
    """
    k_total, a_max = coords.shape[:2]

    flat_view = coords.reshape(-1, 3)
    if plan.atom_flat is None:
        flat_c = flat_view  # no padding: flat layout is the free reshape
    else:
        flat_c = flat_view[plan.atom_flat]
    vals, grads = interpolate_stacked(
        receptor.stacked_grids, receptor, flat_c, want_grad=want_grad
    )
    # channel products, written straight back into the interpolation
    # buffer (its raw values are not needed again); every flat lane is a
    # real atom, so the steric channel needs no mask at all
    prod3 = vals  # (3, N)
    if plan.atom_flat is None:
        pv = vals.reshape(3, k_total, a_max)
        pv[0] *= plan.charges
        pv[1] *= plan.hydro
    else:
        vals[0] *= plan.charges_flat
        vals[1] *= plan.hydro_flat

    half = receptor.box_size / 2.0
    excess = np.abs(flat_c)
    excess -= half
    outside = excess > 0
    not_outside = ~outside
    wall_sq = excess * excess
    np.copyto(wall_sq, 0.0, where=not_outside)

    # intra-ligand clash terms (flexible ligands must not fold through
    # themselves — AutoDock's internal-energy role), elementwise phase:
    # runs on the plan's flat real-pair axis (one entry per actual
    # (row, pair)), so pair padding costs no arithmetic at all
    overlap = diff = d = None
    if plan.pair_fi is not None:
        ci = flat_c[plan.pair_fi]  # (P, 3)
        cj = flat_c[plan.pair_fj]
        diff = ci - cj
        d = np.sqrt((diff * diff).sum(-1))
        overlap = np.maximum(plan.pair_sig_flat - d, 0.0)

    atom_grad = None
    if want_grad:
        # accumulate the field gradients in place in the stencil's own
        # buffer: ``(q·∇phi − h·∇hyd) + ∇ste`` with the identical
        # operation order as the former expression, minus the temporaries
        dphi, dhyd, dste = grads  # (N, 3) each
        if plan.atom_flat is None:
            dphi_v = dphi.reshape(k_total, a_max, 3)
            dphi_v *= plan.charges[..., None]
            dhyd_v = dhyd.reshape(k_total, a_max, 3)
            dhyd_v *= plan.hydro[..., None]
        else:
            dphi *= plan.charges_flat[:, None]
            dhyd *= plan.hydro_flat[:, None]
        np.subtract(dphi, dhyd, out=dphi)
        np.add(dphi, dste, out=dphi)
        grad_flat = dphi
        wall_grad = excess * (2.0 * _WALL_K)
        wall_grad *= np.sign(flat_c)
        np.copyto(wall_grad, 0.0, where=not_outside)
        grad_flat += wall_grad
        # internal clash forces are equal-and-opposite, so the pair
        # scatter leaves rigid-body gradients untouched and flows only
        # into torsions; the flat index visits (row, pair) in the same
        # row-major i-then-j order as a per-ligand scatter, so the
        # accumulation order per atom — and therefore every bit — is
        # unchanged
        if plan.pair_scatter is not None:
            coef = overlap * (-2.0 * _INTRA_K)  # dE/dd / d
            coef /= np.maximum(d, 1e-9)
            pg = diff  # reuse: diff is not needed past this point
            pg *= coef[:, None]
            flat = pg.ravel()
            updates = np.empty(2 * flat.size)
            updates[: flat.size] = flat
            np.negative(flat, out=updates[flat.size :])
            np.add.at(grad_flat.ravel(), plan.pair_scatter, updates)
        if plan.atom_flat is None:
            atom_grad = grad_flat.reshape(k_total, a_max, 3)
        else:
            atom_grad = np.zeros((k_total, a_max, 3))
            atom_grad.reshape(-1, 3)[plan.atom_flat] = grad_flat

    # reductions over intrinsic widths, batched across same-width ligands
    components = np.empty((k_total, 4))
    for n, rows, fidx in plan.atom_groups_flat:
        if isinstance(fidx, slice):
            ch = prod3[:, fidx].reshape(3, -1, n).sum(axis=2)  # (3, rows)
            wall = wall_sq[fidx].reshape(-1, n, 3).sum(axis=(1, 2))
        else:
            ch = prod3[:, fidx].sum(axis=2)
            wall = wall_sq[fidx].sum(axis=(1, 2))
        components[rows, 0] = ch[0]
        components[rows, 1] = -ch[1]
        components[rows, 2] = ch[2]
        components[rows, 3] = _WALL_K * wall
    for m, rows, idx in plan.pair_groups:
        ov = (
            overlap[idx].reshape(-1, m)
            if isinstance(idx, slice)
            else overlap[idx]
        )
        components[rows, 2] += _INTRA_K * (ov * ov).sum(axis=1)
    totals = components.sum(axis=1)
    return totals, components, atom_grad


def packed_score_batch(
    receptor: Receptor,
    pack: PackedLigands,
    plan: PackPlan,
    conformer_idx: np.ndarray,
    translations: np.ndarray,
    quaternions: np.ndarray,
    torsion_angles: np.ndarray | None = None,
) -> np.ndarray:
    """Total scores for a fused multi-ligand pose batch → (K,)."""
    coords = packed_pose_coordinates(
        pack, plan, conformer_idx, translations, quaternions, torsion_angles
    )
    totals, _, _ = packed_atom_energies(
        receptor, pack, plan, coords, want_grad=False
    )
    return totals


def packed_score_and_gradient_batch(
    receptor: Receptor,
    pack: PackedLigands,
    plan: PackPlan,
    conformer_idx: np.ndarray,
    translations: np.ndarray,
    quaternions: np.ndarray,
    torsion_angles: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Fused pose score + gradients over all gene blocks.

    Returns ``(totals (K,), d_translation (K, 3), d_rotation (K, 3),
    d_torsion (K, T))``.  ``d_rotation`` is the axis-angle gradient about
    the ligand centre, ``dE/dω = Σ_i r_i × (dE/dx_i)``; ``d_torsion``
    chains atom gradients through each torsion's rotation axis,
    ``dE/dθ_t = Σ_{i∈moving_t} (dE/dx_i) · (â_t × (x_i − x_a))``,
    treating torsions independently (exact for disjoint subtrees, the
    standard torsion-tree approximation otherwise).  The per-slot
    lever-arm fields are computed fused across all rows; only the final
    sums are width-grouped (masked to the moving set, reduced over each
    ligand's intrinsic atom count).
    """
    has_tor = torsion_angles is not None and pack.max_torsions > 0
    if pack.n_ligands == 1:
        local = pack.conformers[0, conformer_idx]
    else:
        local = pack.conformers[plan.lig_idx, conformer_idx]
    if has_tor:
        local = apply_packed_torsions(pack, plan, local, torsion_angles)
    rot = batch_quaternion_to_matrix(quaternions)
    coords = np.einsum("kni,kji->knj", local, rot) + translations[:, None, :]
    totals, _, atom_grad = packed_atom_energies(
        receptor, pack, plan, coords, want_grad=True
    )
    rel = coords - translations[:, None, :]
    cross_all = _cross(rel, atom_grad)

    k_total = len(coords)
    t_max = pack.max_torsions if has_tor else 0
    d_trans = np.empty((k_total, 3))
    d_rot = np.empty((k_total, 3))
    d_tor = np.zeros((k_total, t_max))
    for n, rows in plan.atom_groups:
        d_trans[rows] = atom_grad[rows, :n].sum(axis=1)
        d_rot[rows] = cross_all[rows, :n].sum(axis=1)
    if t_max:
        # torsion-gradient fields for *all* slots in one stacked pass —
        # unlike applying the rotations, the gradient of each slot
        # depends only on the already-torsioned local frame, so the slot
        # axis stacks on top of the pose axis (S, K, A, 3).  Rows whose
        # ligand lacks a slot are masked to zero, so their reduced
        # entries stay exactly 0.0
        rows_all = plan.row_ids
        slots = plan.tor_slot_arr
        origin_l = local[rows_all, plan.tor_a_s]  # (S, K, 3), local frame
        axis_l = local[rows_all, plan.tor_b_s] - origin_l
        axis_l = axis_l / (_norm_last(axis_l) + 1e-12)
        # world-frame axes and lever arms
        axis_w = np.einsum("ski,kji->skj", axis_l, rot)
        origin_w = np.einsum("ski,kji->skj", origin_l, rot) + translations
        arm = coords - origin_w[:, :, None, :]
        dxdtheta = _cross(axis_w[:, :, None, :], arm)
        # reuse the stencil's own (S, K, A, 3) buffer for the product and
        # mask it in place — two fewer full-size temporaries
        dxdtheta *= atom_grad
        np.copyto(dxdtheta, 0.0, where=plan.tor_notsel_s[..., None])
        prod = dxdtheta
        for n, rows in plan.atom_groups:
            res = prod[:, rows, :n].sum(axis=(2, 3))  # (S, rows)
            if isinstance(rows, slice):
                d_tor[rows][:, slots] = res.T  # writes through the view
            else:
                d_tor[rows[:, None], slots[None, :]] = res.T
    return totals, d_trans, d_rot, d_tor


# ---------------------------------------------------------- single ligand


def _single_call(beads: LigandBeads, k: int) -> tuple[PackedLigands, PackPlan]:
    """Pack-of-one calling convention for the packed kernels."""
    pack = packed_single(beads)
    return pack, pack.plan(k)


def batch_pose_coordinates(
    beads: LigandBeads,
    conformer_idx: np.ndarray,
    translations: np.ndarray,
    quaternions: np.ndarray,
    torsion_angles: np.ndarray | None = None,
) -> np.ndarray:
    """World coordinates for a batch of poses of one ligand → (k, n, 3)."""
    pack, plan = _single_call(beads, len(conformer_idx))
    return packed_pose_coordinates(
        pack, plan, conformer_idx, translations, quaternions, torsion_angles
    )


def score_poses_batch(
    receptor: Receptor,
    beads: LigandBeads,
    conformer_idx: np.ndarray,
    translations: np.ndarray,
    quaternions: np.ndarray,
    torsion_angles: np.ndarray | None = None,
) -> np.ndarray:
    """Total scores for a batch of poses of one ligand → (k,)."""
    pack, plan = _single_call(beads, len(conformer_idx))
    return packed_score_batch(
        receptor,
        pack,
        plan,
        conformer_idx,
        translations,
        quaternions,
        torsion_angles,
    )


def score_and_gradient_batch(
    receptor: Receptor,
    beads: LigandBeads,
    conformer_idx: np.ndarray,
    translations: np.ndarray,
    quaternions: np.ndarray,
    torsion_angles: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Single-ligand wrapper over :func:`packed_score_and_gradient_batch`.

    Returns ``(totals (k,), d_translation (k, 3), d_rotation (k, 3),
    d_torsion (k, n_torsions))``.
    """
    pack, plan = _single_call(beads, len(conformer_idx))
    return packed_score_and_gradient_batch(
        receptor,
        pack,
        plan,
        conformer_idx,
        translations,
        quaternions,
        torsion_angles,
    )


def _pose_rows(
    pose: Pose,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]:
    """One pose as the batch-of-one ``(conformer_idx, translations,
    quaternions, torsion_angles)`` the batch kernels take."""
    return (
        np.array([pose.conformer]),
        pose.translation[None],
        pose.quaternion[None],
        None if pose.torsion_angles is None else pose.torsion_angles[None],
    )


def score_pose(receptor: Receptor, beads: LigandBeads, pose: Pose) -> ScoreBreakdown:
    """Energy breakdown of one pose (lower total = better).

    Same packed geometry and kernel as the batch scorers, so ``total``
    equals the score a docking run reports for the pose, bit for bit.
    """
    pack, plan = _single_call(beads, 1)
    coords = packed_pose_coordinates(pack, plan, *_pose_rows(pose))
    _, components, _ = packed_atom_energies(
        receptor, pack, plan, coords, want_grad=False
    )
    e = components[0]
    return ScoreBreakdown(float(e[0]), float(e[1]), float(e[2]), float(e[3]))


def score_and_gradient(
    receptor: Receptor, beads: LigandBeads, pose: Pose
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """Single-pose wrapper over :func:`score_and_gradient_batch`."""
    totals, d_trans, d_rot, d_tor = score_and_gradient_batch(
        receptor, beads, *_pose_rows(pose)
    )
    return float(totals[0]), d_trans[0], d_rot[0], d_tor[0]


# -------------------------------------------------------------- pose moves


def _quat_multiply(q1: np.ndarray, q2: np.ndarray) -> np.ndarray:
    """Hamilton product, (x, y, z, w) convention; broadcasts over batches."""
    x1, y1, z1, w1 = q1[..., 0], q1[..., 1], q1[..., 2], q1[..., 3]
    x2, y2, z2, w2 = q2[..., 0], q2[..., 1], q2[..., 2], q2[..., 3]
    return np.stack(
        [
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
        ],
        axis=-1,
    )


def apply_rigid_steps_batch(
    translations: np.ndarray,
    quaternions: np.ndarray,
    d_trans: np.ndarray,
    d_rot: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Apply per-pose translation + axis-angle rotation increments (batched)."""
    new_t = translations + d_trans
    angle = _norm_last(d_rot)
    safe = np.maximum(angle, 1e-12)
    axis = d_rot / safe
    half = angle / 2.0
    dq = np.concatenate([axis * np.sin(half), np.cos(half)], axis=-1)
    new_q = _quat_multiply(dq, quaternions)
    new_q = new_q / _norm_last(new_q)
    # zero-rotation rows keep the original quaternion exactly
    still = (angle < 1e-12)[..., 0]
    new_q[still] = quaternions[still]
    return new_t, new_q


def apply_rigid_step(pose: Pose, d_trans: np.ndarray, d_rot: np.ndarray) -> Pose:
    """Single-pose wrapper over :func:`apply_rigid_steps_batch`; the
    conformer and torsion genes carry through unchanged."""
    t, q = apply_rigid_steps_batch(
        pose.translation[None], pose.quaternion[None], d_trans[None], d_rot[None]
    )
    return Pose(pose.conformer, t[0], q[0], pose.torsion_angles)
