"""Fig 5 — CG-ESMACS energies, RMSD distributions and the 3D-AAE latent
space for PLPro (PDB 6W9C).

Three panels are quantitative and reproduced here:

* **5A** — the distribution of CG binding free energies "typically lies
  between −60 to +20 kcal/mol";
* **5B** — per-LPC ensemble RMSDs show "a rather tight distribution with
  a few LPCs that exhibit greater fluctuations" (outliers > 1.9 Å);
* **5C** — the 3D-AAE latent space, t-SNE-projected, separates the RMSD
  outliers from the bulk.

Panels 5D/E are structural renderings; their quantitative content (the
selected compound binds tighter after FG) is Fig 6's bench.
"""

import numpy as np
import pytest

from repro.chem import generate_library, parse_smiles
from repro.ddmd import AAEConfig, AdaptiveConfig, run_s2, tsne
from repro.docking import DockingEngine, LGAConfig, make_receptor
from repro.esmacs import EsmacsConfig, EsmacsRunner, ranking_correlation
from repro.md import build_lpc

N_COMPOUNDS = 24

CG_SCALED = EsmacsConfig(
    replicas=6,
    equilibration_ns=1.0,
    production_ns=4.0,
    steps_per_ns=10,
    n_residues=90,
    record_every=4,
    minimize_iterations=20,
)


@pytest.fixture(scope="module")
def experiment():
    receptor = make_receptor("PLPro", "6W9C", seed=2021)
    library = generate_library(N_COMPOUNDS, seed=42)
    engine = DockingEngine(
        receptor, seed=0, config=LGAConfig(population=12, generations=5)
    )
    runner = EsmacsRunner(receptor, CG_SCALED, seed=0)

    cg_results = []
    ligand_atoms = {}
    reference = None
    for i in range(N_COMPOUNDS):
        dock = engine.dock_smiles(library[i].smiles, library[i].compound_id)
        mol = parse_smiles(dock.smiles)
        coords = engine.pose_coordinates(dock)
        cg_results.append(runner.run(mol, coords, dock.compound_id))
        system = build_lpc(
            receptor, mol, coords, seed=0, n_residues=CG_SCALED.n_residues
        )
        ligand_atoms[dock.compound_id] = system.topology.ligand_atoms
        reference = system.positions[system.topology.protein_atoms]

    s2 = run_s2(
        cg_results,
        reference,
        ligand_atoms,
        AdaptiveConfig(
            top_compounds=5,
            outliers_per_compound=5,
            lof_neighbors=10,
            aae=AAEConfig(epochs=10, latent_dim=8, hidden=16),
        ),
        seed=0,
    )
    return cg_results, s2


def test_fig5a_energy_distribution(benchmark, experiment):
    cg_results, _ = experiment
    dgs = benchmark(
        lambda: np.array([r.binding_free_energy for r in cg_results])
    )
    print(f"\nFig 5A — CG ΔG over {len(dgs)} compounds: "
          f"min {dgs.min():.1f}, median {np.median(dgs):.1f}, "
          f"max {dgs.max():.1f} kcal/mol")
    hist, edges = np.histogram(dgs, bins=6)
    for h, lo, hi in zip(hist, edges, edges[1:]):
        print(f"  [{lo:7.1f}, {hi:7.1f})  {'#' * h}")
    # the paper's stated range: values typically within −60…+20
    assert dgs.min() > -90.0
    assert dgs.max() < 30.0
    assert (dgs < 0).mean() > 0.5  # docked poses mostly bind favourably
    assert dgs.std() > 3.0  # compounds genuinely differ


def test_fig5b_rmsd_distribution(benchmark, experiment):
    _, s2 = experiment
    rmsd = benchmark(lambda: s2.dataset.rmsd)
    q50, q90 = np.percentile(rmsd, [50, 90])
    outlier_threshold = np.percentile(rmsd, 95)
    print(f"\nFig 5B — ensemble RMSD: median {q50:.2f} Å, p90 {q90:.2f} Å, "
          f"max {rmsd.max():.2f} Å ({len(rmsd)} frames)")
    # tight bulk with a small tail of larger-fluctuation frames
    assert q50 < 2.5
    assert rmsd.max() > q50 * 1.3  # a tail exists
    assert (rmsd > outlier_threshold).mean() <= 0.08


def test_fig5c_latent_space_separates_outliers(benchmark, experiment):
    """The latent manifold places RMSD-outlier frames at its periphery —
    the structure the paper's coloured t-SNE scatter shows.  t-SNE
    scatters outliers in all directions, so the robust summary is the
    distance to the bulk centroid in the *full* latent space plus the
    rank correlation between RMSD and that distance."""
    _, s2 = experiment
    emb2d = benchmark.pedantic(
        lambda: tsne(s2.embeddings, n_iter=250, perplexity=25.0, seed=3),
        rounds=1,
        iterations=1,
    )
    assert emb2d.shape == (len(s2.dataset), 2)
    assert np.isfinite(emb2d).all()

    threshold = np.percentile(s2.dataset.rmsd, 90)
    hi = s2.dataset.rmsd > threshold
    lo = ~hi
    centroid = s2.embeddings[lo].mean(axis=0)
    dist = np.linalg.norm(s2.embeddings - centroid, axis=1)
    rho = ranking_correlation(s2.dataset.rmsd, dist)
    print(f"\nFig 5C — latent space: outlier dist-to-centroid "
          f"{dist[hi].mean():.3f} vs bulk {dist[lo].mean():.3f}; "
          f"spearman(RMSD, latent distance) = {rho:.2f}")
    assert dist[hi].mean() > 1.15 * dist[lo].mean()
    assert rho > 0.25


def test_aae_learned(benchmark, experiment):
    """S2's learning measure: train/val reconstruction losses improve."""
    _, s2 = experiment
    hist = benchmark(lambda: s2.model.history)
    print(f"\nAAE reconstruction: train {hist.train_reconstruction[0]:.3f} → "
          f"{hist.train_reconstruction[-1]:.3f}; "
          f"val {hist.val_reconstruction[-1]:.3f}")
    assert hist.train_reconstruction[-1] < hist.train_reconstruction[0]
    assert hist.val_reconstruction[-1] < hist.val_reconstruction[0] * 1.1
