"""Surrogate training loop.

Trains SmilesNet on (SMILES, docking score) pairs produced offline by S1
— the paper pre-trains on 500k OZD samples per receptor; we scale the
sample count down and keep the procedure: normalize targets to [0, 1],
mini-batch Adam, fixed train/validation split, per-epoch loss tracking.

The step loop runs one :class:`~repro.nn.graph.train.TrainStep`:
forward+backward+Adam traced through the autograd interpreter on the
first call per batch shape, replayed as compiled kernels after.  The
interpreted step it is **bitwise identical** to (weights, losses,
optimizer state) is ``tests/nn/oracle.py``'s ``EagerStep``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.nn.autograd import Tensor, no_grad
from repro.nn.graph.train import TrainStep
from repro.nn.losses import mse_loss
from repro.nn.optim import Adam
from repro.surrogate.featurize import IMAGE_SIZE, ScoreNormalizer, featurize_batch
from repro.surrogate.model import SmilesNet, build_smilesnet
from repro.telemetry import NULL_TRACER
from repro.util.config import FrozenConfig, validate_positive, validate_range
from repro.util.rng import RngFactory

__all__ = ["TrainConfig", "TrainedSurrogate", "train_surrogate", "validation_loss"]


@dataclass(frozen=True)
class TrainConfig(FrozenConfig):
    """Hyper-parameters for surrogate training."""

    epochs: int = 12
    batch_size: int = 32
    learning_rate: float = 3e-3
    validation_fraction: float = 0.2
    width: int = 12
    image_size: int = IMAGE_SIZE

    def __post_init__(self) -> None:
        validate_positive("epochs", self.epochs)
        validate_positive("batch_size", self.batch_size)
        validate_positive("learning_rate", self.learning_rate)
        validate_range("validation_fraction", self.validation_fraction, 0.0, 0.9)


@dataclass
class TrainedSurrogate:
    """A trained model + its target normalizer + training curves."""

    model: SmilesNet
    normalizer: ScoreNormalizer
    train_losses: list[float] = field(default_factory=list)
    val_losses: list[float] = field(default_factory=list)
    image_size: int = IMAGE_SIZE

    def predict_normalized(self, smiles_list: list[str]) -> np.ndarray:
        """Predicted normalized scores in [0, 1] (higher = better binder)."""
        from repro.nn.autograd import no_grad

        self.model.eval()
        feats = featurize_batch(smiles_list, size=self.image_size)
        with no_grad():
            out = self.model(Tensor(feats))
        return out.data.reshape(-1)

    def predict_scores(self, smiles_list: list[str]) -> np.ndarray:
        """Predictions mapped back to the docking-score scale (kcal/mol)."""
        return self.normalizer.inverse(self.predict_normalized(smiles_list))

    # ------------------------------------------------------- checkpointing
    def save(self, path) -> None:
        """Write weights + normalizer + curves to a ``.npz`` checkpoint."""
        from pathlib import Path

        from repro.nn.layers import BatchNorm

        state = self.model.state_dict()
        for i, m in enumerate(self.model.modules()):
            if isinstance(m, BatchNorm):
                state[f"bn{i}_mean"] = m.running_mean
                state[f"bn{i}_var"] = m.running_var
        state["meta_normalizer"] = np.array([self.normalizer.lo, self.normalizer.hi])
        state["meta_width"] = np.array([self.model.width, self.image_size])
        state["meta_train_losses"] = np.array(self.train_losses)
        state["meta_val_losses"] = np.array(self.val_losses)
        np.savez_compressed(Path(path), **state)

    @classmethod
    def load(cls, path) -> "TrainedSurrogate":
        """Rebuild a surrogate from a checkpoint written by :meth:`save`."""
        from pathlib import Path

        from repro.nn.layers import BatchNorm
        from repro.surrogate.model import build_smilesnet

        with np.load(Path(path)) as blob:
            state = {k: blob[k] for k in blob.files}
        width, image_size = (int(v) for v in state.pop("meta_width"))
        lo, hi = state.pop("meta_normalizer")
        train_losses = state.pop("meta_train_losses").tolist()
        val_losses = state.pop("meta_val_losses").tolist()
        model = build_smilesnet(seed=0, width=width)
        model.load_state_dict({k: v for k, v in state.items() if k.startswith("p")})
        for i, m in enumerate(model.modules()):
            if isinstance(m, BatchNorm):
                m.running_mean = state[f"bn{i}_mean"].copy()
                m.running_var = state[f"bn{i}_var"].copy()
        model.eval()
        normalizer = ScoreNormalizer(lo=float(lo), hi=float(hi), fitted=True)
        return cls(
            model=model,
            normalizer=normalizer,
            train_losses=train_losses,
            val_losses=val_losses,
            image_size=image_size,
        )


def validation_loss(model, X_val: np.ndarray, y_val: np.ndarray, batch_size: int) -> float:
    """Full-dataset MSE evaluated in ``batch_size`` chunks.

    Replaces the single-pass ``mse_loss(model(X_val), y_val)`` with one
    that bounds peak activation memory by a chunk instead of the whole
    validation split.  The loss arithmetic is reproduced exactly: squared
    errors land in one preallocated ``(n, 1)`` buffer and the final
    reduction is the very same whole-array pairwise ``sum`` (times
    ``1/n``) the eager loss ran.  Eval-mode forwards are per-sample
    independent, so chunking agrees with the single pass bitwise whenever
    BLAS row-blocking is chunk-invariant (it is at the shipped batch
    sizes; a degenerate tail chunk of a few rows can select a different
    GEMM kernel and differ in the last ulp).
    """
    n = len(X_val)
    sq: np.ndarray | None = None
    with no_grad():
        for start in range(0, n, batch_size):  # repro: disable=vectorization -- chunked eval
            stop = min(start + batch_size, n)
            pred = model(Tensor(X_val[start:stop]))
            # mirrors mse_loss: diff = pred + (target * -1.0); diff * diff
            d = pred.data + (np.asarray(y_val[start:stop], dtype=pred.data.dtype) * -1.0)
            if sq is None:
                sq = np.empty((n, 1), dtype=d.dtype)
            np.multiply(d, d, out=sq[start:stop])
    if sq is None:
        return 0.0
    return float(sq.sum() * (1.0 / n))


def train_surrogate(
    smiles: list[str],
    docking_scores: np.ndarray,
    config: TrainConfig | None = None,
    seed: int = 0,
    tracer=None,
) -> TrainedSurrogate:
    """Train a SmilesNet to predict docking scores from depictions.

    Parameters
    ----------
    smiles:
        Training compounds.
    docking_scores:
        Matching docking scores (kcal/mol, lower = better binding).
    tracer:
        Optional :class:`repro.telemetry.Tracer`; emits ``train.epoch`` /
        ``train.step`` spans plus loss / gradient-norm gauges.  Defaults
        to the zero-cost null tracer.
    """
    cfg = config or TrainConfig()
    tracer = tracer if tracer is not None else NULL_TRACER
    scores = np.asarray(docking_scores, dtype=np.float64)
    if len(smiles) != len(scores):
        raise ValueError("smiles and docking_scores must be the same length")
    if len(smiles) < 4:
        raise ValueError("need at least 4 training examples")

    factory = RngFactory(seed, prefix="surrogate/train")
    normalizer = ScoreNormalizer().fit(scores)
    y = normalizer.transform(scores).reshape(-1, 1)
    X = featurize_batch(smiles, size=cfg.image_size)

    n = len(smiles)
    perm = factory.stream("split").permutation(n)
    n_val = int(round(cfg.validation_fraction * n))
    val_idx, train_idx = perm[:n_val], perm[n_val:]

    model = build_smilesnet(seed=factory.spawn_seed("init"), width=cfg.width)
    opt = Adam(model.parameters(), lr=cfg.learning_rate)
    shuffle_rng = factory.stream("shuffle")

    step = TrainStep(lambda xb, yb: mse_loss(model(xb), yb), opt)

    train_losses: list[float] = []
    val_losses: list[float] = []
    for epoch in range(cfg.epochs):
        model.train()
        order = shuffle_rng.permutation(train_idx)
        epoch_loss = 0.0
        n_batches = 0
        # minibatches are genuinely sequential (each SGD step depends on
        # the last), so slice the index batches up front
        index_batches = [
            order[start : start + cfg.batch_size]
            for start in range(0, len(order), cfg.batch_size)
        ]
        with tracer.span("train.epoch", "train", epoch=epoch) as epoch_span:
            for idx in index_batches:
                with tracer.span("train.step", "train"):
                    loss_val = step(X[idx], y[idx])
                if tracer.enabled:
                    tracer.metrics.counter("train.steps").inc()
                    tracer.metrics.gauge("train.loss").set(loss_val)
                    tracer.metrics.gauge("train.grad_norm").set(step.grad_norm())
                epoch_loss += loss_val
                n_batches += 1
            train_losses.append(epoch_loss / max(1, n_batches))
            epoch_span.set_attr("train_loss", train_losses[-1])

            if len(val_idx):
                model.eval()
                val_losses.append(
                    validation_loss(model, X[val_idx], y[val_idx], cfg.batch_size)
                )
                epoch_span.set_attr("val_loss", val_losses[-1])

    model.eval()
    return TrainedSurrogate(
        model=model,
        normalizer=normalizer,
        train_losses=train_losses,
        val_losses=val_losses,
        image_size=cfg.image_size,
    )
