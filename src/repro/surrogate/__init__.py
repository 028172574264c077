"""ML1 — the deep-learning docking surrogate.

SMILES → 2D depiction → residual CNN → normalized docking score, plus the
streaming FP16 inference engine and the RES enrichment analysis (Fig 4).
"""

from repro.surrogate.featurize import (
    IMAGE_SIZE,
    ScoreNormalizer,
    featurize_batch,
)
from repro.surrogate.infer import InferenceEngine, ScoredCompound
from repro.surrogate.model import SmilesNet, build_smilesnet
from repro.surrogate.res import RESResult, res_surface, top_fraction_recall
from repro.surrogate.train import TrainConfig, TrainedSurrogate, train_surrogate

__all__ = [
    "IMAGE_SIZE",
    "InferenceEngine",
    "RESResult",
    "ScoreNormalizer",
    "ScoredCompound",
    "SmilesNet",
    "TrainConfig",
    "TrainedSurrogate",
    "build_smilesnet",
    "featurize_batch",
    "res_surface",
    "top_fraction_recall",
    "train_surrogate",
]
