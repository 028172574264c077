"""ML1 featurization: SMILES → 2D depiction image + normalized targets.

§6.1.1: "it transforms image representations of ligand molecules into a
docking score … target scores are binding energies which are mapped into
the interval [0, 1], with higher scores representing lower binding
energies and thus higher docking probabilities."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.chem.depict import N_CHANNELS, depict_batch
from repro.chem.smiles import parse_smiles

__all__ = ["featurize_batch", "ScoreNormalizer", "IMAGE_SIZE"]

#: depiction resolution used by the surrogate
IMAGE_SIZE = 24


def featurize_batch(
    smiles_list: Sequence[str], size: int = IMAGE_SIZE, out: np.ndarray | None = None
) -> np.ndarray:
    """Stacked image features: (batch, N_CHANNELS, size, size).

    With ``out`` (e.g. a slice of one of the inference engine's feature
    buffers), features are written in place and no batch-sized temporary
    is allocated; the filled ``out`` is returned.  The whole batch goes
    through one layout + raster kernel
    (:func:`repro.chem.depict.depict_batch`), which parses and depicts a
    fixed-size chunk at a time, so memory does not grow with the batch.
    """
    if out is None:
        out = np.empty(
            (len(smiles_list), N_CHANNELS, size, size), dtype=np.float32
        )
    if out.shape != (len(smiles_list), N_CHANNELS, size, size):
        raise ValueError(
            f"out has shape {out.shape}, need "
            f"{(len(smiles_list), N_CHANNELS, size, size)}"
        )
    return depict_batch(map(parse_smiles, smiles_list), out)


@dataclass
class ScoreNormalizer:
    """Map docking scores (kcal/mol, lower = better) into [0, 1].

    Higher normalized score = lower binding energy = better docking
    probability, matching the paper's target convention.  Fitted bounds
    use robust percentiles so a single pathological score cannot squash
    the whole scale.
    """

    lo: float = 0.0  # score mapped to 1.0 (best binding energy)
    hi: float = 0.0  # score mapped to 0.0 (worst)
    fitted: bool = False

    def fit(self, scores: np.ndarray) -> "ScoreNormalizer":
        """Fit to data; returns self."""
        scores = np.asarray(scores, dtype=np.float64)
        if scores.size < 2:
            raise ValueError("need at least two scores to fit a normalizer")
        self.lo = float(np.percentile(scores, 1))
        self.hi = float(np.percentile(scores, 99))
        if self.hi <= self.lo:
            raise ValueError("degenerate score range")
        self.fitted = True
        return self

    def transform(self, scores: np.ndarray) -> np.ndarray:
        """Apply the fitted mapping."""
        if not self.fitted:
            raise RuntimeError("normalizer not fitted")
        scores = np.asarray(scores, dtype=np.float64)
        return np.clip((self.hi - scores) / (self.hi - self.lo), 0.0, 1.0)

    def inverse(self, normalized: np.ndarray) -> np.ndarray:
        """Map normalized values back to the original scale."""
        if not self.fitted:
            raise RuntimeError("normalizer not fitted")
        return self.hi - np.asarray(normalized) * (self.hi - self.lo)
