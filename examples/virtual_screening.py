#!/usr/bin/env python
"""ML1 virtual screening: train a docking surrogate, deploy it at FP16
over compressed shards, and read its Regression Enrichment Surface.

Reproduces the §6.1.1/§7.1.1 workflow in miniature:

1. dock a training library against PLPro (the "offline docking runs"),
2. train the SmilesNet surrogate on (depiction, score) pairs,
3. compile to FP16 and stream a *different* library (the paper's
   OZD→ORD transfer test) through the sharded prefetch pipeline,
4. compute the RES and the enrichment of the surrogate's top picks.

Run:  python examples/virtual_screening.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro.chem import generate_library
from repro.docking import DockingEngine, LGAConfig, make_receptor
from repro.surrogate import (
    InferenceEngine,
    TrainConfig,
    res_surface,
    top_fraction_recall,
    train_surrogate,
)


def main() -> None:
    receptor = make_receptor("PLPro", "6W9C", seed=2021)
    fast = LGAConfig(population=12, generations=5)

    # OZD (train) and ORD (transfer) libraries with controlled overlap
    ozd = generate_library(150, seed=10, name="OZD", shared_fraction=0.2, shared_seed=99)
    ord_ = generate_library(100, seed=20, name="ORD", shared_fraction=0.2, shared_seed=99)
    print(f"libraries: OZD={len(ozd)}, ORD={len(ord_)}")

    print("docking OZD for training labels ...")
    engine = DockingEngine(receptor, seed=0, config=fast)
    train_results = engine.dock_library(ozd)
    train_scores = np.array([r.score for r in train_results])
    print(f"  docking scores: mean {train_scores.mean():.1f}, "
          f"best {train_scores.min():.1f} kcal/mol")

    print("training SmilesNet surrogate ...")
    surrogate = train_surrogate(
        ozd.smiles(), train_scores, TrainConfig(epochs=10, batch_size=24), seed=1
    )
    print(f"  val loss: {surrogate.val_losses[-1]:.4f}")

    # deploy at FP16 over gzip shards, as §6.1.1 does with TensorRT
    print("scoring ORD through the sharded FP16 inference pipeline ...")
    inference = InferenceEngine(surrogate, precision="fp16", batch_size=32)
    with tempfile.TemporaryDirectory() as tmp:
        shards = ord_.to_shards(Path(tmp), shard_size=25)
        scored = inference.score_shards(shards)
    print(f"  scored {len(scored)} compounds")

    # ground truth for ORD: dock it too, then measure enrichment
    print("docking ORD for evaluation ...")
    truth = {r.compound_id: r.score for r in DockingEngine(
        receptor, seed=0, config=fast).dock_library(ord_)}
    y_true = np.array([truth[s.compound_id] for s in scored])
    y_pred = -np.array([s.score for s in scored])  # higher pred = better

    res = res_surface(y_true, y_pred, n_budget=5, n_top=4)
    print("\n" + res.ascii_plot())
    r10 = top_fraction_recall(y_true, y_pred, 0.1, 0.1)
    print(f"\nrecall of true top-10% within predicted top-10%: {r10:.2f} "
          f"(random would be 0.10)")


if __name__ == "__main__":
    main()
