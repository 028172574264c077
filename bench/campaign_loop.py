"""``campaign_loop``: the paper's Fig 1 loop, driven unit by unit.

The only workload where ``md``/``esmacs``/``ddmd`` and surrogate training
do real work (S3 >= 50 % of the wall, ML1 <= 5 %).
"""

from __future__ import annotations

import math
import time

import numpy as np

import workloads
from harness import (
    OVERHEAD, Outcome, check, median, peak_rss_mb, run_passes, timed, trace_overhead,
)
from repro.chem import generate_library, parse_smiles
from repro.core.campaign import ImpeccableCampaign
from repro.ddmd import AAEConfig, AdaptiveConfig, lof_scores, run_s2, train_aae
from repro.docking import DockingEngine
from repro.esmacs import BindingEstimator, EsmacsRunner
from repro.md import ForceField, Langevin, build_lpc, minimize
from repro.service.work import campaign_result_digest
from repro.surrogate import train_surrogate

NAME = "campaign_loop"
STAGES = ("seed", "ML1", "S1", "S3-CG", "S2", "S3-FG", "retrain")
_STAGE_KEY = {
    "seed": "seed_s", "ML1": "ml1_s", "S1": "s1_s", "S3-CG": "s3cg_s",
    "S2": "s2_s", "S3-FG": "s3fg_s", "retrain": "retrain_s",
}
LAYER_METRICS = {
    **{f"core.campaign.{key}": "s" for key in _STAGE_KEY.values()},
    "core.campaign.overhead_s": "s",
    "core.campaign.units": "count",
    "core.campaign.units_dropped": "count",
    "chem.library.generate_per_s": "1/s",
    "surrogate.train.samples_per_s": "1/s",
    "surrogate.train.steps_per_s": "1/s",
    "docking.engine.ligands_per_s": "1/s",
    "md.build_lpc_s": "s",
    "md.minimize.iters_per_s": "1/s",
    "md.langevin.steps_per_s": "1/s",
    "md.langevin.atom_steps_per_s": "1/s",
    "esmacs.run.replica_steps_per_s": "1/s",
    "esmacs.run.fg_s": "s",
    "esmacs.mmpbsa.frames_per_s": "1/s",
    "ddmd.s2.run_s": "s",
    "ddmd.aae.train_steps_per_s": "1/s",
    "ddmd.lof.points_per_s": "1/s",
}


def drive(campaign: ImpeccableCampaign, rec=None) -> tuple[float, list[tuple[str, int]]]:
    """The timed region: every stage unit, in order, to completion."""
    units = []
    t0 = time.perf_counter()
    if rec is None:
        for unit in campaign.iter_units():
            unit.complete()
            units.append((unit.stage, unit.n_items))
    else:
        with rec.span("iter_units", "core.campaign"):
            for unit in campaign.iter_units():
                with rec.span(unit.stage, "core.campaign"):
                    unit.complete()
                units.append((unit.stage, unit.n_items))
    return time.perf_counter() - t0, units


def verify(campaign: ImpeccableCampaign, units: list[tuple[str, int]]) -> str:
    """Every stage visited, FG results in every iteration; returns the digest."""
    result = campaign.result
    visited = {stage for stage, _ in units}
    check(visited == set(STAGES), f"stages visited: {sorted(visited)}")
    check(
        len(result.iterations) == campaign.config.iterations,
        "campaign stopped before its last iteration",
    )
    for it in result.iterations:
        check(len(it.fg_results) >= 1, f"iteration {it.iteration} has no FG result")
    return campaign_result_digest(result)


def run(seed: int, seconds: float, rec, sizes: dict) -> Outcome:
    cfg = workloads.campaign_config(seed, sizes)
    setups = [timed(ImpeccableCampaign, cfg)[0] for _ in range(2)]

    def one_pass(recorder) -> dict:
        dt, campaign = timed(ImpeccableCampaign, cfg)
        setups.append(dt)
        wall, units = drive(campaign, recorder)
        return dict(wall=wall, digest=verify(campaign, units),
                    campaign=campaign, units=units)

    plain, traced = run_passes(one_pass, seconds, 1, rec)
    digests = {p["digest"] for p in plain + traced}
    check(len(digests) == 1, f"digest differs between passes: {sorted(digests)}")

    campaign, units = plain[-1]["campaign"], plain[-1]["units"]
    attempted = sum(n for _, n in units)
    failed = campaign.result.failure_summary.n_dropped
    wall = median(p["wall"] for p in plain)
    out = Outcome(
        attempted=attempted,
        failed=failed,
        e2e={
            "setup_s": median(setups),
            "makespan_s": wall,
            "ops_per_s": attempted / wall,
            "peak_rss_mb": peak_rss_mb(),
        },
        info={"digest": digests.pop(), "units": len(units),
              "pass_walls": [p["wall"] for p in plain + traced]},
    )
    if rec is not None:
        layers = {
            f"core.campaign.{key}": rec.total("core.campaign", stage) / len(traced)
            for stage, key in _STAGE_KEY.items()
        }
        roots = [s for s in rec.spans if s["name"] == "iter_units"]
        layers["core.campaign.overhead_s"] = sum(map(rec.self_time, roots)) / len(traced)
        layers["core.campaign.units"] = len(units)
        layers["core.campaign.units_dropped"] = failed
        traced_wall = median(p["wall"] for p in traced)
        layers[OVERHEAD] = trace_overhead(plain, traced)
        out.info["share_s3"] = (
            layers["core.campaign.s3cg_s"] + layers["core.campaign.s3fg_s"]
        ) / traced_wall
        out.info["share_ml1"] = layers["core.campaign.ml1_s"] / traced_wall
        layers.update(probes(campaign, rec, sizes))
        out.layers = layers
    return out


def probes(campaign: ImpeccableCampaign, rec, sizes: dict) -> dict[str, float]:
    """Each science layer's public entry points, on this campaign's inputs."""
    cfg, p = campaign.config, sizes["probe"]
    receptor, library = campaign.receptor, campaign.library
    smiles = library.smiles()
    m: dict[str, float] = {}

    with rec.span("generate_library", "chem") as s:
        generate_library(cfg.library_size, seed=cfg.seed, name="OZD")
    m["chem.library.generate_per_s"] = cfg.library_size / rec.duration(s)

    n = min(p["train_pairs"], len(smiles))
    labels = np.random.default_rng([cfg.seed, 1]).normal(-7.0, 1.5, size=n)
    with rec.span("train_surrogate", "surrogate") as s:
        train_surrogate(smiles[:n], labels, cfg.surrogate, seed=cfg.seed)
    tc = cfg.surrogate
    steps = tc.epochs * math.ceil((n - round(tc.validation_fraction * n)) / tc.batch_size)
    m["surrogate.train.samples_per_s"] = tc.epochs * n / rec.duration(s)
    m["surrogate.train.steps_per_s"] = steps / rec.duration(s)

    engine = DockingEngine(receptor, seed=cfg.seed, config=cfg.docking)
    entries = list(library)[: p["dock"]]
    with rec.span("dock_smiles", "docking") as s:
        for e in entries:
            engine.dock_smiles(e.smiles, e.compound_id)
    m["docking.engine.ligands_per_s"] = len(entries) / rec.duration(s)

    # S3/S2 inputs: the campaign's own best docked poses
    docked = sorted(campaign.result.iterations[0].docked, key=lambda d: d.score)
    docked = docked[: max(2, cfg.s2_top_compounds + 1)]
    mols = [parse_smiles(d.smiles) for d in docked]
    poses = [campaign.engine.pose_coordinates(d) for d in docked]
    ff = ForceField()

    with rec.span("build_lpc", "md") as s:
        system = build_lpc(receptor, mols[0], poses[0], seed=cfg.seed,
                           n_residues=cfg.cg.n_residues)
    m["md.build_lpc_s"] = rec.duration(s)
    with rec.span("minimize", "md") as s:
        mini = minimize(system, ff, max_iterations=cfg.cg.minimize_iterations)
    m["md.minimize.iters_per_s"] = mini.n_iterations / rec.duration(s)
    rng = np.random.default_rng([cfg.seed, 2])
    system.initialize_velocities(cfg.cg.temperature, rng)
    n_steps = cfg.cg.production_steps
    with rec.span("langevin", "md") as s:
        Langevin(timestep=cfg.cg.timestep_ps, temperature=cfg.cg.temperature).run(
            system, ff, n_steps, rng
        )
    m["md.langevin.steps_per_s"] = n_steps / rec.duration(s)
    m["md.langevin.atom_steps_per_s"] = n_steps * system.n_atoms / rec.duration(s)

    runner = EsmacsRunner(receptor, cfg.cg, seed=cfg.seed)
    with rec.span("esmacs_cg", "esmacs") as s:
        cg = [runner.run(mol, pose, d.compound_id)
              for mol, pose, d in zip(mols, poses, docked)]
    m["esmacs.run.replica_steps_per_s"] = sum(r.md_steps for r in cg) / rec.duration(s)
    with rec.span("esmacs_fg", "esmacs") as s:
        EsmacsRunner(receptor, cfg.fg, seed=cfg.seed).run(
            mols[0], poses[0], docked[0].compound_id, keep_trajectories=False
        )
    m["esmacs.run.fg_s"] = rec.duration(s)

    systems = [
        build_lpc(receptor, mol, pose, seed=cfg.seed, n_residues=cfg.cg.n_residues)
        for mol, pose in zip(mols, poses)
    ]
    estimator, n_frames = BindingEstimator(), 0
    with rec.span("mmpbsa", "esmacs") as s:
        for r, lpc in zip(cg, systems):
            for traj in r.trajectories:
                estimator.estimate_trajectory(ff, lpc.topology, traj.frames)
                n_frames += traj.n_frames
    m["esmacs.mmpbsa.frames_per_s"] = n_frames / rec.duration(s)

    ligand_atoms = {d.compound_id: lpc.topology.ligand_atoms
                    for d, lpc in zip(docked, systems)}
    reference = systems[0].positions[systems[0].topology.protein_atoms]
    s2_cfg = AdaptiveConfig(
        top_compounds=min(cfg.s2_top_compounds, len(cg)),
        outliers_per_compound=cfg.s2_outliers_per_compound,
        lof_neighbors=8,
    )
    with rec.span("run_s2", "ddmd") as s:
        s2 = run_s2(cg, reference, ligand_atoms, s2_cfg, seed=cfg.seed)
    m["ddmd.s2.run_s"] = rec.duration(s)
    clouds, ac = s2.dataset.clouds, AAEConfig()
    n_val = max(1, round(ac.validation_fraction * len(clouds)))
    with rec.span("train_aae", "ddmd") as s:
        train_aae(clouds, ac, seed=cfg.seed)
    m["ddmd.aae.train_steps_per_s"] = (
        ac.epochs * math.ceil((len(clouds) - n_val) / ac.batch_size) / rec.duration(s)
    )
    repeats = 20
    with rec.span("lof_scores", "ddmd") as s:
        for _ in range(repeats):
            lof_scores(s2.embeddings, k=8)
    m["ddmd.lof.points_per_s"] = repeats * len(s2.embeddings) / rec.duration(s)
    return m
