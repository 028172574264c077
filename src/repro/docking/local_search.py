"""Local search methods for pose refinement — batched, torsion-aware.

AutoDock-GPU ships two local searches (§5.1.1): the legacy Solis–Wets
stochastic hill-climber and the newer gradient-based ADADELTA method that
"increases significantly the docking quality".  Both are implemented over
the same pose parameterization — translation, orientation **and
rotatable-bond torsions** — so the ablation bench can compare them
like-for-like, and both refine a whole *batch* of poses at once (the
GPU-parallelism analogue), using masked updates where poses diverge in
control flow.

Each method lives once, as ``refine_packed`` over a
:class:`~repro.docking.ligand.PackedLigands` shard — the call the fused
LGA (:mod:`repro.docking.batch`) makes with ``n_local_search`` rows per
ligand.  ``refine_batch``/``refine`` are the pack-of-one call into it, the
same convention the single-ligand scoring wrappers use.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.docking.ligand import (
    LigandBeads,
    PackedLigands,
    PackPlan,
    Pose,
    packed_single,
)
from repro.docking.receptor import Receptor
from repro.docking.scoring import (
    _pose_rows,
    apply_rigid_steps_batch,
    packed_score_and_gradient_batch,
    packed_score_batch,
)
from repro.util.config import FrozenConfig, validate_positive

__all__ = [
    "SolisWets",
    "Adadelta",
    "LocalSearchResult",
    "BatchRefinement",
    "SolisWetsConfig",
    "AdadeltaConfig",
    "draw_solis_wets",
    "local_search_named",
]


def draw_solis_wets(
    rng: np.random.Generator, k: int, n_torsions: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """One Solis–Wets iteration's raw Gaussian draws for ``k`` poses.

    Returns unit-scale normals ``(dt (k, 3), dr (k, 3), da (k, T) or
    None)``; the caller applies its per-pose step sizes and biases.
    One call per active ligand per iteration, from that ligand's own
    stream — the draw order is part of the determinism contract.
    """
    dt = rng.normal(size=(k, 3))
    dr = rng.normal(size=(k, 3))
    da = rng.normal(size=(k, n_torsions)) if n_torsions else None
    return dt, dr, da


@dataclass(frozen=True)
class LocalSearchResult:
    """Outcome of one single-pose local-search invocation."""

    pose: Pose
    score: float
    n_evals: int  # scoring-function evaluations consumed


@dataclass(frozen=True)
class BatchRefinement:
    """Outcome of refining a batch of poses."""

    translations: np.ndarray  # (k, 3)
    quaternions: np.ndarray  # (k, 4)
    scores: np.ndarray  # (k,)
    n_evals: int  # total pose evaluations across the batch
    torsion_angles: np.ndarray | None = None  # (k, T) when the ligand flexes


class _LocalSearch:
    """Single-ligand wrappers over the packed implementations."""

    def refine(
        self,
        receptor: Receptor,
        beads: LigandBeads,
        pose: Pose,
        rng: np.random.Generator,
    ) -> LocalSearchResult:
        """Refine a single pose; see :meth:`refine_batch`."""
        conformer_idx, translations, quaternions, torsion_angles = _pose_rows(pose)
        out = self.refine_batch(
            receptor, beads, conformer_idx, translations, quaternions, rng,
            torsion_angles,
        )
        new_tor = (
            None if out.torsion_angles is None else out.torsion_angles[0]
        )
        return LocalSearchResult(
            pose=Pose(pose.conformer, out.translations[0], out.quaternions[0], new_tor),
            score=float(out.scores[0]),
            n_evals=out.n_evals,
        )

    def refine_batch(
        self,
        receptor: Receptor,
        beads: LigandBeads,
        conformer_idx: np.ndarray,
        translations: np.ndarray,
        quaternions: np.ndarray,
        rng: np.random.Generator,
        torsion_angles: np.ndarray | None = None,
    ) -> BatchRefinement:
        """Refine ``k`` poses of one ligand: a pack of one, ``k`` rows.

        A flexible ligand given no ``torsion_angles`` starts from zeros; a
        rigid one ignores them.
        """
        k = len(conformer_idx)
        if beads.n_torsions == 0:
            torsion_angles = None
        elif torsion_angles is None:
            torsion_angles = np.zeros((k, beads.n_torsions))
        pack = packed_single(beads)
        best_t, best_q, best_s, best_a, evals = self.refine_packed(
            receptor,
            pack,
            pack.plan(k),
            conformer_idx,
            translations,
            quaternions,
            torsion_angles,
            [rng],
        )
        return BatchRefinement(best_t, best_q, best_s, int(evals[0]), best_a)

    def refine_packed(self, *args, **kwargs):  # pragma: no cover
        """Refine a fused multi-ligand pose batch; see the subclasses."""
        raise NotImplementedError


@dataclass(frozen=True)
class SolisWetsConfig(FrozenConfig):
    """Solis–Wets hyper-parameters (AutoDock defaults, scaled down)."""

    max_iters: int = 40
    rho_trans: float = 1.0  # initial translation step (angstrom)
    rho_rot: float = 0.25  # initial rotation step (radians)
    rho_torsion: float = 0.35  # initial torsion step (radians)
    success_expand: int = 4  # consecutive successes before expanding
    failure_contract: int = 4  # consecutive failures before contracting
    rho_min: float = 0.01

    def __post_init__(self) -> None:
        validate_positive("max_iters", self.max_iters)
        validate_positive("rho_trans", self.rho_trans)
        validate_positive("rho_rot", self.rho_rot)
        validate_positive("rho_torsion", self.rho_torsion)


class SolisWets(_LocalSearch):
    """Adaptive random-walk local search (Solis & Wets 1981).

    Per pose: sample a Gaussian move (plus bias) over all gene blocks;
    on failure try the mirrored move; adapt step size from runs of
    successes/failures.  All poses in a batch advance in lock-step with
    masked bookkeeping.
    """

    name = "solis-wets"

    def __init__(self, config: SolisWetsConfig | None = None) -> None:
        self.config = config or SolisWetsConfig()

    def refine_packed(
        self,
        receptor: Receptor,
        pack: PackedLigands,
        plan: PackPlan,
        conformer_idx: np.ndarray,
        translations: np.ndarray,
        quaternions: np.ndarray,
        torsion_angles: np.ndarray | None,
        rngs: list[np.random.Generator],
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray | None, np.ndarray]:
        """Solis–Wets refinement fused across the shard.

        The hill-climber's iteration count is score-dependent (each ligand
        stops once all its step sizes shrink below ``rho_min``), so ligands
        carry an ``active`` flag: a retired ligand draws no further
        randomness, accrues no evaluations and keeps its state frozen via
        row masks — exactly where docking it alone would break out.

        Returns ``(best_t, best_q, best_s, best_a, per_ligand_evals)``.
        """
        cfg = self.config
        n_lig = pack.n_ligands
        t_max = pack.max_torsions
        k = len(conformer_idx)
        n_ls = k // n_lig
        n_tor = pack.n_torsions

        best_t = translations.copy()
        best_q = quaternions.copy()
        best_a = torsion_angles.copy() if t_max else None
        best_s = packed_score_batch(
            receptor, pack, plan, conformer_idx, best_t, best_q, best_a
        )
        evals = np.full(n_lig, n_ls, dtype=np.int64)

        rho_t = np.full(k, cfg.rho_trans)
        rho_r = np.full(k, cfg.rho_rot)
        rho_a = np.full(k, cfg.rho_torsion)
        bias_t = np.zeros((k, 3))
        bias_r = np.zeros((k, 3))
        bias_a = np.zeros((k, t_max))
        succ = np.zeros(k, dtype=int)
        fail = np.zeros(k, dtype=int)
        active = np.ones(n_lig, dtype=bool)

        for _ in range(cfg.max_iters):
            if not active.any():
                break
            raw_t = np.zeros((k, 3))
            raw_r = np.zeros((k, 3))
            raw_a = np.zeros((k, t_max)) if t_max else None
            # per-stream draws: each active ligand consumes its own generator,
            # one iteration's worth at a time
            for li in np.flatnonzero(active):
                rt, rr, ra = draw_solis_wets(rngs[li], n_ls, int(n_tor[li]))
                rows = slice(li * n_ls, (li + 1) * n_ls)
                raw_t[rows] = rt
                raw_r[rows] = rr
                if ra is not None:
                    raw_a[rows, : ra.shape[1]] = ra
            act_rows = np.repeat(active, n_ls)

            dt = raw_t * rho_t[:, None] + bias_t
            dr = raw_r * rho_r[:, None] + bias_r
            da = raw_a * rho_a[:, None] + bias_a if t_max else None

            t1, q1 = apply_rigid_steps_batch(best_t, best_q, dt, dr)
            a1 = None if best_a is None else best_a + da
            s1 = packed_score_batch(
                receptor, pack, plan, conformer_idx, t1, q1, a1
            )
            t2, q2 = apply_rigid_steps_batch(best_t, best_q, -dt, -dr)
            a2 = None if best_a is None else best_a - da
            s2 = packed_score_batch(
                receptor, pack, plan, conformer_idx, t2, q2, a2
            )
            evals[active] += 2 * n_ls

            fwd = (s1 < best_s) & act_rows
            back = (~fwd) & (s2 < best_s) & act_rows
            neither = act_rows & ~(fwd | back)

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
            if t_max:
                bias_a[fwd] = 0.4 * bias_a[fwd] + 0.2 * da[fwd]
                bias_a[back] = bias_a[back] - 0.4 * da[back]
                bias_a[neither] *= 0.5

            improved = fwd | back
            succ = np.where(act_rows, np.where(improved, succ + 1, 0), succ)
            fail = np.where(act_rows, np.where(improved, 0, fail + 1), fail)

            expand = (succ >= cfg.success_expand) & act_rows
            contract = (fail >= cfg.failure_contract) & act_rows
            scale = np.where(expand, 2.0, np.where(contract, 0.5, 1.0))
            rho_t *= scale
            rho_r *= scale
            rho_a *= scale
            succ[expand] = 0
            fail[contract] = 0

            # a ligand retires when all its rows' steps have converged
            done = (
                (rho_t < cfg.rho_min).reshape(n_lig, n_ls).all(axis=1)
                & (rho_r < cfg.rho_min).reshape(n_lig, n_ls).all(axis=1)
            )
            active &= ~done
        return best_t, best_q, best_s, best_a, evals


@dataclass(frozen=True)
class AdadeltaConfig(FrozenConfig):
    """ADADELTA hyper-parameters."""

    max_iters: int = 40
    rho: float = 0.8  # decay of running averages
    eps: float = 1e-2
    clip: float = 0.5  # max step per iteration (angstrom / radians)

    def __post_init__(self) -> None:
        validate_positive("max_iters", self.max_iters)
        validate_positive("eps", self.eps)


class Adadelta(_LocalSearch):
    """Gradient local search with the ADADELTA update rule (Zeiler 2012).

    Uses the analytic pose gradient over translation, orientation and
    torsions; each iteration is one fused score+gradient evaluation per
    pose.
    """

    name = "adadelta"

    def __init__(self, config: AdadeltaConfig | None = None) -> None:
        self.config = config or AdadeltaConfig()

    def refine_packed(
        self,
        receptor: Receptor,
        pack: PackedLigands,
        plan: PackPlan,
        conformer_idx: np.ndarray,
        translations: np.ndarray,
        quaternions: np.ndarray,
        torsion_angles: np.ndarray | None,
        rngs: list[np.random.Generator],  # unused; interface parity with SolisWets
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray | None, np.ndarray]:
        """ADADELTA refinement fused across the shard (gradient descent
        consumes no RNG, so rows advance in lock-step; padded torsion columns
        see zero gradient and stay exactly zero).

        Returns ``(best_t, best_q, best_s, best_a, per_ligand_evals)``.
        """
        cfg = self.config
        t_max = pack.max_torsions
        n_ls = len(conformer_idx) // pack.n_ligands
        cur_t, cur_q = translations.copy(), quaternions.copy()
        cur_a = torsion_angles.copy() if t_max else None
        scores, g_t, g_r, g_a = packed_score_and_gradient_batch(
            receptor, pack, plan, conformer_idx, cur_t, cur_q, cur_a
        )
        best_t, best_q, best_s = cur_t.copy(), cur_q.copy(), scores.copy()
        best_a = None if cur_a is None else cur_a.copy()

        k = len(conformer_idx)
        dim = 6 + t_max
        eg2 = np.zeros((k, dim))
        ex2 = np.zeros((k, dim))
        for _ in range(cfg.max_iters):
            g = np.concatenate([g_t, g_r] + ([g_a] if t_max else []), axis=1)
            eg2 = cfg.rho * eg2 + (1 - cfg.rho) * g * g
            step = -np.sqrt(ex2 + cfg.eps) / np.sqrt(eg2 + cfg.eps) * g
            step = np.clip(step, -cfg.clip, cfg.clip)
            ex2 = cfg.rho * ex2 + (1 - cfg.rho) * step * step
            cur_t, cur_q = apply_rigid_steps_batch(
                cur_t, cur_q, step[:, :3], step[:, 3:6]
            )
            if t_max:
                cur_a = cur_a + step[:, 6:]
            scores, g_t, g_r, g_a = packed_score_and_gradient_batch(
                receptor, pack, plan, conformer_idx, cur_t, cur_q, cur_a
            )
            better = scores < best_s
            best_t[better], best_q[better] = cur_t[better], cur_q[better]
            best_s[better] = scores[better]
            if best_a is not None:
                best_a[better] = cur_a[better]
        evals = np.full(pack.n_ligands, n_ls * (1 + cfg.max_iters), dtype=np.int64)
        return best_t, best_q, best_s, best_a, evals


def local_search_named(name: str) -> SolisWets | Adadelta:
    """The default-configured local search AutoDock-GPU calls ``name``."""
    for method in (Adadelta, SolisWets):
        if method.name == name:
            return method()
    raise ValueError(
        f"unknown local search {name!r} "
        "(expected 'adadelta' or 'solis-wets')"
    )
