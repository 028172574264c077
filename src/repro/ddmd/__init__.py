"""S2 — DeepDriveMD: AI-driven adaptive sampling over LPC ensembles.

3D adversarial autoencoder (PointNet encoder, Chamfer reconstruction,
WGAN-GP latent prior), LOF outlier selection, t-SNE visualization, and
the adaptive driver that filters S3-CG output into S3-FG input.
"""

from repro.ddmd.aae import AAE, AAEConfig, AAEHistory, train_aae
from repro.ddmd.cmvae import CMVAEConfig, ContactMapVAE, contact_map
from repro.ddmd.adaptive import AdaptiveConfig, S2Result, Selection, run_s2
from repro.ddmd.driver import (
    AdaptiveSampler,
    AdaptiveSamplingConfig,
    AdaptiveSamplingResult,
)
from repro.ddmd.lof import lof_scores
from repro.ddmd.pointcloud import PointCloudDataset, build_dataset, normalize_cloud
from repro.ddmd.tsne import tsne

__all__ = [
    "AAE",
    "AAEConfig",
    "AAEHistory",
    "AdaptiveConfig",
    "AdaptiveSampler",
    "AdaptiveSamplingConfig",
    "AdaptiveSamplingResult",
    "CMVAEConfig",
    "ContactMapVAE",
    "PointCloudDataset",
    "contact_map",
    "S2Result",
    "Selection",
    "build_dataset",
    "lof_scores",
    "normalize_cloud",
    "run_s2",
    "train_aae",
    "tsne",
]
