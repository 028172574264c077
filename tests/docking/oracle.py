"""Test-side reference for docking: the per-ligand LGA and local searches
and the unpacked pose geometry ``repro.docking`` shipped up to PR 16, bodies
verbatim.  Draw helpers, ``apply_genetics`` and the scoring kernels are
*imported* from ``src`` — shared by both sides, so the bitwise tests compare
loop structure: one ligand at a time here, a fused shard there.

:func:`find_torsions` and :func:`prepare_ligand` are the ligand-prep
bodies from before ``repro.chem.graph``: a ``networkx`` graph copy per
rotatable bond, all-pairs shortest paths for the intra-ligand pairs.
"""

import networkx as nx
import numpy as np

from repro.chem.descriptors import partial_charges
from repro.chem.embed3d import embed_conformer
from repro.chem.mol import Molecule
from repro.docking.lga import DockingRun, LGAConfig, _random_quaternions
from repro.docking.lga import apply_genetics, draw_generation, draw_initial_genes
from repro.docking.ligand import LigandBeads, Pose, Torsion
from repro.docking.local_search import AdadeltaConfig, BatchRefinement
from repro.docking.local_search import SolisWetsConfig, draw_solis_wets
from repro.docking.scoring import apply_rigid_steps_batch, interpolate_stacked
from repro.docking.scoring import score_and_gradient_batch, score_poses_batch
from tests.chem.oracle import to_networkx


def find_torsions(mol: Molecule) -> list[Torsion]:
    """Rotatable-bond torsions of a molecule.

    A bond is rotatable when it is a single, non-ring, non-terminal bond
    (the same definition the rotatable-bond descriptor uses).  The moving
    set is the connected component containing ``b`` once the bond is cut;
    the smaller side is chosen so rotations perturb as little as possible.
    """
    g = to_networkx(mol)
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
        h = g.copy()
        h.remove_edge(bond.a, bond.b)
        side_b = nx.node_connected_component(h, bond.b)
        side_a = nx.node_connected_component(h, bond.a)
        if len(side_b) <= len(side_a):
            a, b, moving = bond.a, bond.b, side_b - {bond.b}
        else:
            a, b, moving = bond.b, bond.a, side_a - {bond.a}
        if moving:
            torsions.append(
                Torsion(a=a, b=b, moving=np.array(sorted(moving), dtype=int))
            )
    return torsions


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
    g = to_networkx(mol)
    sp = dict(nx.all_pairs_shortest_path_length(g, cutoff=2))
    pairs = [
        (i, j)
        for i in range(mol.n_atoms)
        for j in range(i + 1, mol.n_atoms)
        if j not in sp.get(i, {})
    ]
    intra = (
        np.array(pairs, dtype=int) if pairs else np.zeros((0, 2), dtype=int)
    )
    return LigandBeads(
        charges=charges,
        hydro=hydro,
        radii=radii,
        conformers=confs,
        torsions=find_torsions(mol),
        intra_pairs=intra,
    )


def random_quaternion(rng):
    """Uniform random unit quaternion: the production batch draw, of one."""
    return _random_quaternions(rng, 1)[0]


def quaternion_to_matrix(q):
    """Rotation matrix of a unit quaternion (x, y, z, w convention)."""
    q = q / np.linalg.norm(q)
    x, y, z, w = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def apply_torsions_batch(coords, torsions, angles):
    """Rotate each torsion's moving atoms about its bond axis, in order."""
    if not torsions or angles is None or angles.shape[-1] == 0:
        return coords
    if angles.shape != (len(coords), len(torsions)):
        raise ValueError(
            f"angles shape {angles.shape} != ({len(coords)}, {len(torsions)})"
        )
    out = coords.copy()
    for t, tor in enumerate(torsions):
        origin = out[:, tor.a]  # (k, 3)
        axis = out[:, tor.b] - origin
        axis = axis / (np.linalg.norm(axis, axis=1, keepdims=True) + 1e-12)
        theta = angles[:, t]
        cos = np.cos(theta)[:, None, None]
        sin = np.sin(theta)[:, None, None]
        v = out[:, tor.moving] - origin[:, None, :]  # (k, m, 3)
        k_vec = axis[:, None, :]  # (k, 1, 3)
        cross = np.cross(k_vec, v)
        dot = (k_vec * v).sum(-1, keepdims=True)
        rotated = v * cos + cross * sin + k_vec * dot * (1.0 - cos)
        out[:, tor.moving] = rotated + origin[:, None, :]
    return out


def pose_coordinates(beads, pose):
    """World coordinates of the ligand atoms under ``pose``."""
    conf = beads.conformers[pose.conformer][None]
    if pose.torsion_angles is not None and beads.n_torsions:
        conf = apply_torsions_batch(
            conf, beads.torsions, pose.torsion_angles[None]
        )
    rot = quaternion_to_matrix(pose.quaternion)
    return conf[0] @ rot.T + pose.translation[None, :]


def interpolate(grid, receptor, coords):
    """Single-grid trilinear interpolation → ``(values, gradients)``."""
    value, grad = interpolate_stacked(grid[None], receptor, coords)
    return value[0], grad[0]


def _angles_or_zeros(beads, k, torsion_angles):
    if beads.n_torsions == 0:
        return None
    if torsion_angles is None:
        return np.zeros((k, beads.n_torsions))
    return torsion_angles.copy()


class SolisWets:
    def __init__(self, config=None):
        self.config = config or SolisWetsConfig()

    def refine_batch(
        self, receptor, beads, conformer_idx, translations, quaternions, rng,
        torsion_angles=None,
    ):
        cfg = self.config
        k = len(conformer_idx)
        n_tor = beads.n_torsions
        best_t = translations.copy()
        best_q = quaternions.copy()
        best_a = _angles_or_zeros(beads, k, torsion_angles)
        best_s = score_poses_batch(
            receptor, beads, conformer_idx, best_t, best_q, best_a
        )
        n_evals = k

        rho_t = np.full(k, cfg.rho_trans)
        rho_r = np.full(k, cfg.rho_rot)
        rho_a = np.full(k, cfg.rho_torsion)
        bias_t = np.zeros((k, 3))
        bias_r = np.zeros((k, 3))
        bias_a = np.zeros((k, n_tor))
        succ = np.zeros(k, dtype=int)
        fail = np.zeros(k, dtype=int)

        for _ in range(cfg.max_iters):
            raw_t, raw_r, raw_a = draw_solis_wets(rng, k, n_tor)
            dt = raw_t * rho_t[:, None] + bias_t
            dr = raw_r * rho_r[:, None] + bias_r
            da = raw_a * rho_a[:, None] + bias_a if n_tor else None

            t1, q1 = apply_rigid_steps_batch(best_t, best_q, dt, dr)
            a1 = None if best_a is None else best_a + da
            s1 = score_poses_batch(receptor, beads, conformer_idx, t1, q1, a1)
            t2, q2 = apply_rigid_steps_batch(best_t, best_q, -dt, -dr)
            a2 = None if best_a is None else best_a - da
            s2 = score_poses_batch(receptor, beads, conformer_idx, t2, q2, a2)
            n_evals += 2 * k

            fwd = s1 < best_s
            back = (~fwd) & (s2 < best_s)
            neither = ~(fwd | back)

            best_t[fwd], best_q[fwd], best_s[fwd] = t1[fwd], q1[fwd], s1[fwd]
            best_t[back], best_q[back], best_s[back] = t2[back], q2[back], s2[back]
            if best_a is not None:
                best_a[fwd] = a1[fwd]
                best_a[back] = a2[back]

            bias_t[fwd] = 0.4 * bias_t[fwd] + 0.2 * dt[fwd]
            bias_r[fwd] = 0.4 * bias_r[fwd] + 0.2 * dr[fwd]
            bias_t[back] = bias_t[back] - 0.4 * dt[back]
            bias_r[back] = bias_r[back] - 0.4 * dr[back]
            bias_t[neither] *= 0.5
            bias_r[neither] *= 0.5
            if n_tor:
                bias_a[fwd] = 0.4 * bias_a[fwd] + 0.2 * da[fwd]
                bias_a[back] = bias_a[back] - 0.4 * da[back]
                bias_a[neither] *= 0.5

            improved = fwd | back
            succ = np.where(improved, succ + 1, 0)
            fail = np.where(improved, 0, fail + 1)

            expand = succ >= cfg.success_expand
            contract = fail >= cfg.failure_contract
            scale = np.where(expand, 2.0, np.where(contract, 0.5, 1.0))
            rho_t *= scale
            rho_r *= scale
            rho_a *= scale
            succ[expand] = 0
            fail[contract] = 0

            if (rho_t < cfg.rho_min).all() and (rho_r < cfg.rho_min).all():
                break
        return BatchRefinement(best_t, best_q, best_s, n_evals, best_a)


class Adadelta:
    def __init__(self, config=None):
        self.config = config or AdadeltaConfig()

    def refine_batch(
        self, receptor, beads, conformer_idx, translations, quaternions, rng,
        torsion_angles=None,
    ):
        cfg = self.config
        k = len(conformer_idx)
        n_tor = beads.n_torsions
        cur_t, cur_q = translations.copy(), quaternions.copy()
        cur_a = _angles_or_zeros(beads, k, torsion_angles)
        scores, g_t, g_r, g_a = score_and_gradient_batch(
            receptor, beads, conformer_idx, cur_t, cur_q, cur_a
        )
        n_evals = k
        best_t, best_q, best_s = cur_t.copy(), cur_q.copy(), scores.copy()
        best_a = None if cur_a is None else cur_a.copy()

        dim = 6 + n_tor
        eg2 = np.zeros((k, dim))
        ex2 = np.zeros((k, dim))
        for _ in range(cfg.max_iters):
            g = np.concatenate(
                [g_t, g_r] + ([g_a] if n_tor else []), axis=1
            )
            eg2 = cfg.rho * eg2 + (1 - cfg.rho) * g * g
            step = -np.sqrt(ex2 + cfg.eps) / np.sqrt(eg2 + cfg.eps) * g
            step = np.clip(step, -cfg.clip, cfg.clip)
            ex2 = cfg.rho * ex2 + (1 - cfg.rho) * step * step
            cur_t, cur_q = apply_rigid_steps_batch(
                cur_t, cur_q, step[:, :3], step[:, 3:6]
            )
            if n_tor:
                cur_a = cur_a + step[:, 6:]
            scores, g_t, g_r, g_a = score_and_gradient_batch(
                receptor, beads, conformer_idx, cur_t, cur_q, cur_a
            )
            n_evals += k
            better = scores < best_s
            best_t[better], best_q[better] = cur_t[better], cur_q[better]
            best_s[better] = scores[better]
            if best_a is not None:
                best_a[better] = cur_a[better]
        return BatchRefinement(best_t, best_q, best_s, n_evals, best_a)


class LamarckianGA:
    def __init__(self, config=None, local_search="adadelta"):
        self.config = config or LGAConfig()
        self.local_search = {"adadelta": Adadelta, "solis-wets": SolisWets}[local_search]()

    def dock(self, receptor, beads, rng):
        """Run the LGA; returns best pose, score and evaluation count."""
        cfg = self.config
        p = cfg.population
        half = receptor.box_size / 2.0
        n_tor = beads.n_torsions

        conf, trans, quat, tors = draw_initial_genes(
            rng, p, half, beads.n_conformers, n_tor
        )
        scores = score_poses_batch(receptor, beads, conf, trans, quat, tors)
        n_evals = p
        history: list[float] = [float(scores.min())]
        n_conf_rows = np.full(cfg.n_children, beads.n_conformers)

        for _ in range(cfg.generations):
            d = draw_generation(rng, cfg, beads.n_conformers, n_tor)
            order = np.argsort(scores)
            elite = order[: cfg.elitism]
            new_conf, new_trans, new_quat, new_tors = apply_genetics(
                cfg, scores, conf, trans, quat, tors, n_conf_rows, d
            )

            conf = np.concatenate([conf[elite], new_conf])
            trans = np.concatenate([trans[elite], new_trans])
            quat = np.concatenate([quat[elite], new_quat])
            if n_tor:
                tors = np.concatenate([tors[elite], new_tors])
            scores = score_poses_batch(receptor, beads, conf, trans, quat, tors)
            n_evals += p

            # Lamarckian step: refine a random subset, write back the genes
            chosen = d.chosen
            refined = self.local_search.refine_batch(
                receptor,
                beads,
                conf[chosen],
                trans[chosen],
                quat[chosen],
                rng,
                None if tors is None else tors[chosen],
            )
            n_evals += refined.n_evals
            better = refined.scores < scores[chosen]
            idx = chosen[better]
            trans[idx] = refined.translations[better]
            quat[idx] = refined.quaternions[better]
            if n_tor and refined.torsion_angles is not None:
                tors[idx] = refined.torsion_angles[better]
            scores[idx] = refined.scores[better]
            history.append(float(scores.min()))

        best = int(np.argmin(scores))
        return DockingRun(
            best_pose=Pose(
                int(conf[best]),
                trans[best].copy(),
                quat[best].copy(),
                None if tors is None else tors[best].copy(),
            ),
            best_score=float(scores[best]),
            n_evals=n_evals,
            history=history,
        )


def dock_shard(receptor, beads_list, rngs, config=None, local_search="adadelta", tracer=None):
    """``repro.docking.batch.dock_shard``'s contract, one ligand at a time."""
    ga = LamarckianGA(config, local_search)
    return [ga.dock(receptor, b, rng) for b, rng in zip(beads_list, rngs)]


def install(monkeypatch) -> None:
    """Run every ``DockingEngine`` entry point on the per-ligand reference,
    with each ligand prepared by the ``networkx`` prep above."""
    from repro.docking import batch, engine

    monkeypatch.setattr(batch, "dock_shard", dock_shard)
    monkeypatch.setattr(engine, "prepare_ligand", prepare_ligand)
