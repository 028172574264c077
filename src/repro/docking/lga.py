"""Lamarckian genetic algorithm for pose search.

The search loop of AutoDock(-GPU): a genetic algorithm over pose genes
(conformer index, translation, orientation) where a fraction of each
generation undergoes local search and — the Lamarckian part — writes the
refined genes back into the population.  AutoDock-GPU parallelizes this
over ligand–receptor poses on a GPU; the NumPy analogue keeps the
population as struct-of-arrays and scores whole generations in one batched
kernel call.  Evaluation counts are surfaced so throughput/FLOP accounting
(Tables 2/3) can charge docking cost honestly.

This module holds the loop's parts: the stochastic part is factored into
:func:`draw_initial_genes` and :func:`draw_generation`, the deterministic
genetics arithmetic into :func:`apply_genetics`.  The loop itself — fused
over a whole shard of ligands, one compound being a shard of one — is
:func:`repro.docking.batch.dock_shard`, which draws per ligand stream and
stacks, so a compound's result is independent of the shard it rides in.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.docking.ligand import Pose
from repro.docking.scoring import apply_rigid_steps_batch
from repro.util.config import FrozenConfig, validate_positive, validate_range

__all__ = [
    "LGAConfig",
    "DockingRun",
    "GenerationDraws",
    "draw_initial_genes",
    "draw_generation",
    "apply_genetics",
]


@dataclass(frozen=True)
class LGAConfig(FrozenConfig):
    """GA hyper-parameters (AutoDock-flavoured defaults, scaled down)."""

    population: int = 24
    generations: int = 10
    tournament: int = 3
    crossover_rate: float = 0.8
    mutation_rate: float = 0.3
    mutation_trans: float = 1.2  # angstrom
    mutation_rot: float = 0.4  # radians
    local_search_rate: float = 0.25  # fraction refined per generation
    elitism: int = 1

    def __post_init__(self) -> None:
        validate_positive("population", self.population)
        validate_positive("generations", self.generations)
        validate_range("crossover_rate", self.crossover_rate, 0, 1)
        validate_range("mutation_rate", self.mutation_rate, 0, 1)
        validate_range("local_search_rate", self.local_search_rate, 0, 1)
        if self.elitism >= self.population:
            raise ValueError("elitism must be smaller than population")

    @property
    def n_children(self) -> int:
        """Offspring rows per generation (population minus elites)."""
        return self.population - self.elitism

    @property
    def n_local_search(self) -> int:
        """Poses refined by local search per generation."""
        return max(1, int(round(self.local_search_rate * self.population)))


@dataclass
class DockingRun:
    """Result of one LGA docking run."""

    best_pose: Pose
    best_score: float
    n_evals: int
    history: list[float] = field(default_factory=list)  # best score/generation


def _random_quaternions(rng: np.random.Generator, k: int) -> np.ndarray:
    """Batch of uniform random unit quaternions (Shoemake)."""
    u1, u2, u3 = rng.random((3, k))
    return np.stack(
        [
            np.sqrt(1 - u1) * np.sin(2 * np.pi * u2),
            np.sqrt(1 - u1) * np.cos(2 * np.pi * u2),
            np.sqrt(u1) * np.sin(2 * np.pi * u3),
            np.sqrt(u1) * np.cos(2 * np.pi * u3),
        ],
        axis=1,
    )


def draw_initial_genes(
    rng: np.random.Generator,
    p: int,
    half: float,
    n_conformers: int,
    n_torsions: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]:
    """Draw the initial population's genes from one ligand's stream.

    Returns ``(conf (p,), trans (p, 3), quat (p, 4), tors (p, T) or
    None)``.  Draw order is part of the determinism contract — the fused
    loop draws exactly this sequence from each ligand's stream.
    """
    conf = rng.integers(n_conformers, size=p)
    trans = rng.uniform(-half * 0.7, half * 0.7, size=(p, 3))
    quat = _random_quaternions(rng, p)
    tors = rng.uniform(-np.pi, np.pi, size=(p, n_torsions)) if n_torsions else None
    return conf, trans, quat, tors


@dataclass
class GenerationDraws:
    """One generation's randomness for one ligand stream.

    Candidate/`chosen` indices are *local* (0 … population−1); the fused
    path offsets them into its stacked population.  Coins are kept raw
    (uniform draws) so thresholding stays in :func:`apply_genetics`.
    """

    cand_a: np.ndarray  # (n_children, tournament) tournament candidates
    cand_b: np.ndarray
    do_cross: np.ndarray  # (n_children,) bool
    mix: np.ndarray  # (n_children, 1) crossover blend
    pick_b_coin: np.ndarray  # (n_children,) conformer-inheritance coin
    mut_t: np.ndarray  # (n_children,) bool, translation mutation
    jolt_t: np.ndarray  # (n_children, 3) translation jolt
    mut_r: np.ndarray  # (n_children,) bool, rotation mutation
    axis: np.ndarray  # (n_children, 3) unit rotation axes
    angle: np.ndarray  # (n_children, 1) rotation angles
    mut_c_coin: np.ndarray  # (n_children,) conformer-mutation coin
    conf_draw: np.ndarray  # (n_children,) replacement conformer indices
    mut_a: np.ndarray | None  # (n_children,) bool, torsion mutation
    jolt_a: np.ndarray | None  # (n_children, T) torsion jolt
    chosen: np.ndarray  # (n_ls,) local-search subset (local indices)


def draw_generation(
    rng: np.random.Generator,
    cfg: LGAConfig,
    n_conformers: int,
    n_torsions: int,
) -> GenerationDraws:
    """Draw one generation's GA randomness from one ligand's stream.

    The sequence (selection candidates, crossover coins, mutation coins
    and jolts, local-search subset) is part of the determinism contract;
    none of these draws depend on scores, so the whole generation can be
    drawn up front.
    """
    p = cfg.population
    n_children = cfg.n_children
    cand_a = rng.integers(p, size=(n_children, cfg.tournament))
    cand_b = rng.integers(p, size=(n_children, cfg.tournament))
    do_cross = rng.random(n_children) < cfg.crossover_rate
    mix = rng.random((n_children, 1))
    pick_b_coin = rng.random(n_children)
    mut_t = rng.random(n_children) < cfg.mutation_rate
    jolt_t = rng.normal(scale=cfg.mutation_trans, size=(n_children, 3))
    mut_r = rng.random(n_children) < cfg.mutation_rate
    axis = rng.normal(size=(n_children, 3))
    axis /= np.linalg.norm(axis, axis=1, keepdims=True) + 1e-12
    angle = rng.normal(scale=cfg.mutation_rot, size=(n_children, 1))
    mut_c_coin = rng.random(n_children)
    conf_draw = rng.integers(n_conformers, size=n_children)
    if n_torsions:
        mut_a = rng.random(n_children) < cfg.mutation_rate
        jolt_a = rng.normal(scale=cfg.mutation_rot, size=(n_children, n_torsions))
    else:
        mut_a = jolt_a = None
    chosen = rng.choice(p, size=cfg.n_local_search, replace=False)
    return GenerationDraws(
        cand_a=cand_a,
        cand_b=cand_b,
        do_cross=do_cross,
        mix=mix,
        pick_b_coin=pick_b_coin,
        mut_t=mut_t,
        jolt_t=jolt_t,
        mut_r=mut_r,
        axis=axis,
        angle=angle,
        mut_c_coin=mut_c_coin,
        conf_draw=conf_draw,
        mut_a=mut_a,
        jolt_a=jolt_a,
        chosen=chosen,
    )


def apply_genetics(
    cfg: LGAConfig,
    scores: np.ndarray,
    conf: np.ndarray,
    trans: np.ndarray,
    quat: np.ndarray,
    tors: np.ndarray | None,
    n_conf_rows: np.ndarray,
    d: GenerationDraws,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]:
    """Selection + crossover + mutation over population rows, vectorized.

    ``d``'s candidate indices must already address rows of
    ``scores``/``conf``/… (the fused path offsets each ligand's local
    draws into the stacked population; one ligand at a time they are the
    identity).  ``n_conf_rows`` carries each child row's ligand conformer
    count so the conformer-swap mutation gates per row.  Pure arithmetic,
    no RNG.
    """
    n_rows = len(d.do_cross)
    rows = np.arange(n_rows)

    # tournament selection: keep the best-scoring candidate per row
    parents_a = d.cand_a[rows, np.argmin(scores[d.cand_a], axis=1)]
    parents_b = d.cand_b[rows, np.argmin(scores[d.cand_b], axis=1)]

    mix = d.mix
    new_trans = np.where(
        d.do_cross[:, None],
        mix * trans[parents_a] + (1 - mix) * trans[parents_b],
        trans[parents_a],
    )
    qa = quat[parents_a]
    qb = quat[parents_b]
    sign = np.where((qa * qb).sum(axis=1, keepdims=True) < 0, -1.0, 1.0)
    q_mix = mix * qa + (1 - mix) * sign * qb
    q_mix = q_mix / np.linalg.norm(q_mix, axis=1, keepdims=True)
    new_quat = np.where(d.do_cross[:, None], q_mix, qa)
    pick_b = d.do_cross & (d.pick_b_coin < 0.5)
    new_conf = np.where(pick_b, conf[parents_b], conf[parents_a])
    new_tors = None
    if tors is not None:
        new_tors = np.where(
            d.do_cross[:, None],
            mix * tors[parents_a] + (1 - mix) * tors[parents_b],
            tors[parents_a],
        )

    # mutation: Gaussian translation jolt + random small rotation
    new_trans = new_trans + np.where(d.mut_t[:, None], d.jolt_t, 0.0)
    d_rot = np.where(d.mut_r[:, None], d.axis * d.angle, 0.0)
    new_trans, new_quat = apply_rigid_steps_batch(
        new_trans, new_quat, np.zeros_like(new_trans), d_rot
    )
    mut_c = (d.mut_c_coin < 0.1 * cfg.mutation_rate) & (n_conf_rows > 1)
    new_conf = np.where(mut_c, d.conf_draw, new_conf)
    if tors is not None and d.mut_a is not None:
        new_tors = new_tors + np.where(d.mut_a[:, None], d.jolt_a, 0.0)
    return new_conf, new_trans, new_quat, new_tors
