"""Fused multi-ligand docking: one LGA over a whole library shard.

AutoDock-GPU gets its throughput by evaluating many ligand–receptor poses
"in parallel over multiple compute units" (§5.1.1); batching only within
one ligand (``population`` poses per kernel call) would make a library
screen pay full NumPy dispatch overhead per ligand per generation.
:func:`dock_shard` — the only LGA loop in the package — packs a shard of
prepared ligands into padded struct-of-arrays
(:func:`~repro.docking.ligand.pack_ligands`) and runs the *entire* LGA —
initialization, generation scoring, selection/crossover/mutation, and
either local search — over ``(n_ligands × population)`` poses per kernel
call.  Docking one compound is a shard of one.

Determinism contract (the correctness spine): every ligand's randomness
comes from its own generator, drawn per stream in a fixed order
(:func:`~repro.docking.lga.draw_initial_genes`,
:func:`~repro.docking.lga.draw_generation`,
:func:`~repro.docking.local_search.draw_solis_wets`), and all arithmetic
runs through the packed kernels with per-ligand reductions over
intrinsic widths.  A compound therefore gets bit-identical poses, scores,
histories and ``n_evals`` whatever shard it is docked in — alone, fused or
reordered — and the per-ligand reference in ``tests/docking/oracle.py``
reproduces them bit for bit.  Only per-stream draw loops and per-ligand
result assembly remain Python loops; everything on the pose axis is
vectorized.
"""

from __future__ import annotations

import numpy as np

from repro.docking.lga import (
    DockingRun,
    GenerationDraws,
    LGAConfig,
    apply_genetics,
    draw_generation,
    draw_initial_genes,
)
from repro.docking.ligand import LigandBeads, Pose, pack_ligands
from repro.docking.local_search import Adadelta, SolisWets, local_search_named
from repro.docking.receptor import Receptor
from repro.docking.scoring import packed_score_batch
from repro.telemetry import NULL_TRACER, Tracer

__all__ = ["dock_shard"]

#: smallest worthwhile fused bucket — below this, torsion-slot padding
#: is cheaper than a separate LGA's kernel dispatch (measured)
_MIN_BUCKET = 6


def _stack_draws(
    draws: list[GenerationDraws], cfg: LGAConfig, t_max: int
) -> GenerationDraws:
    """Stack per-ligand generation draws into shard-global arrays.

    Candidate and ``chosen`` indices are offset into the stacked
    population (ligand ``li`` owns rows ``[li*p, (li+1)*p)``); ragged
    torsion draws land in zero-padded ``(rows, t_max)`` arrays so padded
    slots mutate by exactly zero.
    """
    p = cfg.population
    nc = cfg.n_children
    n_lig = len(draws)
    pop_off = np.repeat(np.arange(n_lig) * p, nc)[:, None]
    if t_max:
        mut_a = np.zeros(n_lig * nc, dtype=bool)
        jolt_a = np.zeros((n_lig * nc, t_max))
        # ragged per-ligand torsion draws into padded slots
        for li, d in enumerate(draws):
            if d.jolt_a is not None:
                rows = slice(li * nc, (li + 1) * nc)
                mut_a[rows] = d.mut_a
                jolt_a[rows, : d.jolt_a.shape[1]] = d.jolt_a
    else:
        mut_a = jolt_a = None
    return GenerationDraws(
        cand_a=np.concatenate([d.cand_a for d in draws]) + pop_off,
        cand_b=np.concatenate([d.cand_b for d in draws]) + pop_off,
        do_cross=np.concatenate([d.do_cross for d in draws]),
        mix=np.concatenate([d.mix for d in draws]),
        pick_b_coin=np.concatenate([d.pick_b_coin for d in draws]),
        mut_t=np.concatenate([d.mut_t for d in draws]),
        jolt_t=np.concatenate([d.jolt_t for d in draws]),
        mut_r=np.concatenate([d.mut_r for d in draws]),
        axis=np.concatenate([d.axis for d in draws]),
        angle=np.concatenate([d.angle for d in draws]),
        mut_c_coin=np.concatenate([d.mut_c_coin for d in draws]),
        conf_draw=np.concatenate([d.conf_draw for d in draws]),
        mut_a=mut_a,
        jolt_a=jolt_a,
        chosen=np.concatenate(
            [d.chosen + li * p for li, d in enumerate(draws)]
        ),
    )


def _partition_by_size(beads_list: list[LigandBeads]) -> list[list[int]]:
    """Bucket ligand indices so padded widths hug the intrinsic sizes.

    The packed kernels pay for every row at the pack's *padded* widths;
    fusing a 6-atom rigid fragment with a 31-atom, 6-torsion ligand makes
    the small one ~5× more expensive than docking it alone.  Buckets
    group by torsion count: torsion slots are the costliest padding (each
    slot is a full Rodrigues rotation plus a gradient pass over every
    pose), while atom/pair padding only widens element-wise ops that are
    dispatch-dominated at shard sizes — measured end-to-end, splitting
    further on atom count loses more to extra kernel dispatch than it
    saves in padding.  Conversely a bucket below ``_MIN_BUCKET`` ligands
    amortizes too little dispatch to justify its own LGA, so small
    torsion groups merge with their neighbour and pay the extra (masked)
    slots instead.  Per-ligand determinism makes the partition invisible
    in the results — it only moves throughput.
    """
    order = sorted(
        range(len(beads_list)),
        key=lambda i: (
            beads_list[i].n_torsions,
            beads_list[i].n_atoms,
            len(beads_list[i].intra_pairs),
        ),
    )
    buckets: list[list[int]] = [[order[0]]]
    for i in order[1:]:
        same_t = (
            beads_list[i].n_torsions
            == beads_list[buckets[-1][-1]].n_torsions
        )
        if same_t or len(buckets[-1]) < _MIN_BUCKET:
            buckets[-1].append(i)
        else:
            buckets.append([i])
    if len(buckets) > 1 and len(buckets[-1]) < _MIN_BUCKET:
        tail = buckets.pop()
        buckets[-1].extend(tail)
    return buckets


def dock_shard(
    receptor: Receptor,
    beads_list: list[LigandBeads],
    rngs: list[np.random.Generator],
    config: LGAConfig | None = None,
    local_search: str = "adadelta",
    tracer: Tracer | None = None,
) -> list[DockingRun]:
    """Dock a shard of prepared ligands with one fused LGA.

    ``rngs[i]`` must be ligand ``i``'s own stream, which is what keeps
    results independent of shard composition and ordering.  Returns one
    :class:`DockingRun` per ligand.

    Internally the shard is partitioned into size buckets
    (:func:`_partition_by_size`) and each bucket runs its own fused LGA;
    because every ligand's randomness and reductions are its own, the
    partition cannot change any result bit.
    """
    if len(beads_list) != len(rngs):
        raise ValueError("need exactly one RNG stream per ligand")
    if not beads_list:
        return []
    if tracer is None:
        tracer = NULL_TRACER
    cfg = config or LGAConfig()
    refiner = local_search_named(local_search)
    buckets = _partition_by_size(beads_list)
    if len(buckets) == 1:
        return _dock_packed(receptor, beads_list, rngs, cfg, refiner, tracer)
    runs: list[DockingRun | None] = [None] * len(beads_list)
    for bucket in buckets:
        sub = _dock_packed(
            receptor,
            [beads_list[i] for i in bucket],
            [rngs[i] for i in bucket],
            cfg,
            refiner,
            tracer,
        )
        for i, run in zip(bucket, sub):
            runs[i] = run
    return runs  # type: ignore[return-value]


def _dock_packed(
    receptor: Receptor,
    beads_list: list[LigandBeads],
    rngs: list[np.random.Generator],
    cfg: LGAConfig,
    refiner: Adadelta | SolisWets,
    tracer: Tracer = NULL_TRACER,
) -> list[DockingRun]:
    """One fused LGA over an (ideally size-homogeneous) ligand bucket."""
    n_lig = len(beads_list)
    p = cfg.population
    n_ls = cfg.n_local_search
    half = receptor.box_size / 2.0
    with tracer.span("pack", category="docking.kernel", n_ligands=n_lig):
        pack = pack_ligands(beads_list)
        t_max = pack.max_torsions
        plan_pop = pack.plan(p)
        plan_ls = pack.plan(n_ls)

    # initial population: per-stream draws, stacked into ligand blocks
    with tracer.span("init-score", category="docking.kernel", n_ligands=n_lig):
        conf = np.empty(n_lig * p, dtype=np.int64)
        trans = np.empty((n_lig * p, 3))
        quat = np.empty((n_lig * p, 4))
        tors = np.zeros((n_lig * p, t_max)) if t_max else None
        for li, (beads, rng) in enumerate(zip(beads_list, rngs)):
            c, t, q, a = draw_initial_genes(
                rng, p, half, beads.n_conformers, beads.n_torsions
            )
            rows = slice(li * p, (li + 1) * p)
            conf[rows] = c
            trans[rows] = t
            quat[rows] = q
            if a is not None:
                tors[rows, : beads.n_torsions] = a

        scores = packed_score_batch(
            receptor, pack, plan_pop, conf, trans, quat, tors
        )
    n_evals = np.full(n_lig, p, dtype=np.int64)
    histories: list[list[float]] = [
        [float(s)] for s in scores.reshape(n_lig, p).min(axis=1)
    ]
    n_conf_rows = np.repeat(pack.n_conformers, cfg.n_children)
    lig_off = np.arange(n_lig) * p

    for gen in range(cfg.generations):
        # one generation of randomness per ligand stream, then stacked
        with tracer.span("genetics", category="docking.kernel", gen=gen):
            per_lig = [
                draw_generation(rng, cfg, beads.n_conformers, beads.n_torsions)
                for beads, rng in zip(beads_list, rngs)
            ]
            d = _stack_draws(per_lig, cfg, t_max)

            order = np.argsort(scores.reshape(n_lig, p), axis=1)
            elite_rows = (order[:, : cfg.elitism] + lig_off[:, None]).ravel()
            new_conf, new_trans, new_quat, new_tors = apply_genetics(
                cfg, scores, conf, trans, quat, tors, n_conf_rows, d
            )

            e = cfg.elitism
            nc = cfg.n_children
            conf = np.concatenate(
                [conf[elite_rows].reshape(n_lig, e), new_conf.reshape(n_lig, nc)],
                axis=1,
            ).reshape(n_lig * p)
            trans = np.concatenate(
                [trans[elite_rows].reshape(n_lig, e, 3), new_trans.reshape(n_lig, nc, 3)],
                axis=1,
            ).reshape(n_lig * p, 3)
            quat = np.concatenate(
                [quat[elite_rows].reshape(n_lig, e, 4), new_quat.reshape(n_lig, nc, 4)],
                axis=1,
            ).reshape(n_lig * p, 4)
            if t_max:
                tors = np.concatenate(
                    [
                        tors[elite_rows].reshape(n_lig, e, t_max),
                        new_tors.reshape(n_lig, nc, t_max),
                    ],
                    axis=1,
                ).reshape(n_lig * p, t_max)
        with tracer.span("score", category="docking.kernel", gen=gen):
            scores = packed_score_batch(
                receptor, pack, plan_pop, conf, trans, quat, tors
            )
        n_evals += p

        # Lamarckian step: refine each ligand's chosen subset, write back
        with tracer.span("local-search", category="docking.kernel", gen=gen):
            chosen = d.chosen
            chosen_a = None if tors is None else tors[chosen]
            ref_t, ref_q, ref_s, ref_a, ref_evals = refiner.refine_packed(
                receptor, pack, plan_ls,
                conf[chosen], trans[chosen], quat[chosen], chosen_a, rngs,
            )
            n_evals += ref_evals
            better = ref_s < scores[chosen]
            idx = chosen[better]
            trans[idx] = ref_t[better]
            quat[idx] = ref_q[better]
            if t_max and ref_a is not None:
                tors[idx] = ref_a[better]
            scores[idx] = ref_s[better]
        gen_best = scores.reshape(n_lig, p).min(axis=1)
        for li, s in enumerate(gen_best):  # repro: disable=vectorization — list-of-lists append
            histories[li].append(float(s))

    # per-ligand result assembly (ragged torsion slices)
    best_local = np.argmin(scores.reshape(n_lig, p), axis=1)
    runs: list[DockingRun] = []
    for li, beads in enumerate(beads_list):  # repro: disable=vectorization — ragged
        row = li * p + int(best_local[li])
        n_tor = beads.n_torsions
        pose = Pose(
            int(conf[row]),
            trans[row].copy(),
            quat[row].copy(),
            None if n_tor == 0 else tors[row, :n_tor].copy(),
        )
        runs.append(
            DockingRun(
                best_pose=pose,
                best_score=float(scores[row]),
                n_evals=int(n_evals[li]),
                history=histories[li],
            )
        )
    return runs

