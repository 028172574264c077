"""3D adversarial autoencoder (3D-AAE) for MD conformation analysis.

The architecture of §5.1.4/§7.1.3, scaled to laptop width:

* **encoder** — PointNet: shared per-point MLP, symmetric max-pool over
  points, dense head to a latent code constrained by a Gaussian prior
  (the paper uses σ = 0.2);
* **decoder** — dense layers emitting a point cloud, trained with the
  **Chamfer distance** reconstruction loss (scaled by 0.5, the paper's
  hyper-parameter);
* **critic** — Wasserstein discriminator on latent codes with **gradient
  penalty** (scaled by 10, the paper's value), pulling the aggregate
  posterior toward the prior;
* optimized with **RMSprop**, the paper's optimizer.

The critic step (including double backward through the gradient
penalty) and the autoencoder step each run as one replayed
:class:`~repro.nn.graph.train.TrainStep`, bitwise identical (weights,
losses, optimizer state) to the interpreted ``EagerStep`` in
``tests/nn/oracle.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.nn import autograd as ag
from repro.nn.autograd import Tensor, no_grad
from repro.nn.graph.train import TrainStep
from repro.nn.layers import (
    Dense,
    Module,
    PointwiseDense,
    ReLU,
    Sequential,
    Tanh,
)
from repro.nn.losses import chamfer_distance, gradient_penalty_at
from repro.nn.optim import RMSprop
from repro.telemetry import NULL_TRACER
from repro.util.config import FrozenConfig, validate_positive, validate_range
from repro.util.rng import RngFactory

__all__ = ["AAEConfig", "AAE", "AAEHistory", "train_aae"]


@dataclass(frozen=True)
class AAEConfig(FrozenConfig):
    """3D-AAE hyper-parameters (paper loss scales; widths scaled down)."""

    latent_dim: int = 16  # paper: 64
    hidden: int = 32
    prior_std: float = 0.2  # paper: Gaussian prior σ=0.2
    reconstruction_scale: float = 0.5  # paper: 0.5
    gradient_penalty_scale: float = 10.0  # paper: 10
    adversarial_scale: float = 0.1
    learning_rate: float = 1e-3  # paper uses 1e-5 at full scale
    epochs: int = 15  # paper: 100
    batch_size: int = 32  # paper: 64
    critic_steps: int = 1
    validation_fraction: float = 0.2  # paper: 80/20 split

    def __post_init__(self) -> None:
        validate_positive("latent_dim", self.latent_dim)
        validate_positive("hidden", self.hidden)
        validate_positive("prior_std", self.prior_std)
        validate_positive("learning_rate", self.learning_rate)
        validate_positive("epochs", self.epochs)
        validate_positive("batch_size", self.batch_size)
        validate_range("validation_fraction", self.validation_fraction, 0.0, 0.9)


class PointNetEncoder(Module):
    """Shared per-point MLP + max-pool + dense head → latent code."""

    def __init__(self, config: AAEConfig, n_points: int, rng: np.random.Generator):
        super().__init__()
        h = config.hidden
        self.point_mlp = Sequential(
            PointwiseDense(3, h, rng),
            ReLU(),
            PointwiseDense(h, 2 * h, rng),
            ReLU(),
        )
        self.head = Sequential(
            Dense(2 * h, h, rng), Tanh(), Dense(h, config.latent_dim, rng)
        )

    def forward(self, x: Tensor) -> Tensor:
        """Forward pass."""
        feat = self.point_mlp(x)  # (B, n, 2h)
        pooled = ag.tensor_max(feat, axis=1)  # (B, 2h) — permutation invariant
        return self.head(pooled)


class PointCloudDecoder(Module):
    """Latent code → reconstructed point cloud."""

    def __init__(self, config: AAEConfig, n_points: int, rng: np.random.Generator):
        super().__init__()
        h = config.hidden
        self.n_points = n_points
        self.net = Sequential(
            Dense(config.latent_dim, 2 * h, rng),
            ReLU(),
            Dense(2 * h, 4 * h, rng),
            ReLU(),
            Dense(4 * h, n_points * 3, rng),
        )

    def forward(self, z: Tensor) -> Tensor:
        """Forward pass."""
        flat = self.net(z)
        return ag.reshape(flat, (flat.shape[0], self.n_points, 3))


class LatentCritic(Module):
    """Wasserstein critic on latent codes."""

    def __init__(self, config: AAEConfig, rng: np.random.Generator):
        super().__init__()
        h = config.hidden
        self.net = Sequential(
            Dense(config.latent_dim, h, rng), Tanh(), Dense(h, 1, rng)
        )

    def forward(self, z: Tensor) -> Tensor:
        """Forward pass."""
        return self.net(z)


@dataclass
class AAEHistory:
    """Per-epoch loss curves (the paper's 'training and validation loss
    metrics' measure of S2 learning performance)."""

    train_reconstruction: list[float] = field(default_factory=list)
    train_adversarial: list[float] = field(default_factory=list)
    val_reconstruction: list[float] = field(default_factory=list)


class AAE:
    """The assembled 3D-AAE with its training procedure."""

    def __init__(self, config: AAEConfig, n_points: int, seed: int = 0) -> None:
        self.config = config
        self.n_points = n_points
        factory = RngFactory(seed, prefix="ddmd/aae")
        self.encoder = PointNetEncoder(
            config, n_points, np.random.default_rng(factory.spawn_seed("enc"))
        )
        self.decoder = PointCloudDecoder(
            config, n_points, np.random.default_rng(factory.spawn_seed("dec"))
        )
        self.critic = LatentCritic(
            config, np.random.default_rng(factory.spawn_seed("crit"))
        )
        self._rng = factory.stream("train")
        self.history = AAEHistory()

    # ------------------------------------------------------------ embedding
    def embed(self, clouds: np.ndarray, batch_size: int = 256) -> np.ndarray:
        """Latent embeddings for (N, n_points, 3) clouds (no grad)."""
        self.encoder.eval()
        out = []
        with no_grad():
            n = len(clouds)
            for start in range(0, n, batch_size):  # repro: disable=vectorization -- chunks
                z = self.encoder(Tensor(clouds[start : start + batch_size]))
                out.append(z.data)
        self.encoder.train()
        return np.concatenate(out) if out else np.zeros((0, self.config.latent_dim))

    def reconstruct(self, clouds: np.ndarray) -> np.ndarray:
        """Round-trip clouds through the autoencoder (no grad)."""
        with no_grad():
            z = self.encoder(Tensor(clouds))
            return self.decoder(z).data

    # ------------------------------------------------------------- training
    def fit(
        self,
        clouds: np.ndarray,
        epochs: int | None = None,
        tracer=None,
    ) -> AAEHistory:
        """Train on (N, n_points, 3) normalized clouds.

        The interpolation coefficients of the gradient penalty are drawn
        *before* the critic loss is evaluated (same rng stream, same draw
        order as the classic formulation) and handed to the compiled step
        as a plain input.
        """
        cfg = self.config
        tracer = tracer if tracer is not None else NULL_TRACER
        if clouds.ndim != 3 or clouds.shape[1] != self.n_points:
            raise ValueError(
                f"expected (N, {self.n_points}, 3) clouds, got {clouds.shape}"
            )
        n = len(clouds)
        if n < 4:
            raise ValueError("need at least 4 training clouds")
        epochs = epochs if epochs is not None else cfg.epochs

        perm = self._rng.permutation(n)
        n_val = max(1, int(round(cfg.validation_fraction * n)))
        val_idx, train_idx = perm[:n_val], perm[n_val:]

        ae_params = self.encoder.parameters() + self.decoder.parameters()
        opt_ae = RMSprop(ae_params, lr=cfg.learning_rate)
        opt_critic = RMSprop(self.critic.parameters(), lr=cfg.learning_rate)

        def critic_fn(z_real: Tensor, z_fake: Tensor, interp: Tensor) -> Tensor:
            d_real = ag.tensor_mean(self.critic(z_real))
            d_fake = ag.tensor_mean(self.critic(z_fake))
            gp = gradient_penalty_at(self.critic, interp)
            return d_fake - d_real + cfg.gradient_penalty_scale * gp

        def ae_fn(x: Tensor) -> tuple[Tensor, Tensor, Tensor]:
            z = self.encoder(x)
            recon = self.decoder(z)
            rec = chamfer_distance(recon, x)
            adv = -ag.tensor_mean(self.critic(z))
            loss = cfg.reconstruction_scale * rec + cfg.adversarial_scale * adv
            return loss, rec, adv

        critic_step = TrainStep(
            critic_fn, opt_critic, input_requires_grad=(False, False, True)
        )
        ae_step = TrainStep(ae_fn, opt_ae)

        for epoch in range(epochs):
            order = self._rng.permutation(train_idx)
            rec_losses, adv_losses = [], []
            with tracer.span("train.epoch", "train", epoch=epoch) as epoch_span:
                starts = range(0, len(order), cfg.batch_size)
                for start in starts:  # repro: disable=vectorization -- sequential SGD steps
                    idx = order[start : start + cfg.batch_size]
                    if len(idx) < 2:
                        continue
                    x_arr = clouds[idx]
                    critic_loss_val = 0.0
                    with tracer.span("train.step", "train"):
                        # --- critic update(s): prior real, encoded fake
                        for _ in range(cfg.critic_steps):
                            with no_grad():
                                z_fake = self.encoder(Tensor(x_arr))
                            z_real_arr = self._rng.normal(
                                scale=cfg.prior_std,
                                size=(len(idx), cfg.latent_dim),
                            )
                            alpha = self._rng.random((len(idx), 1))
                            interp_arr = (
                                alpha * z_real_arr + (1 - alpha) * z_fake.data
                            )
                            critic_loss_val = critic_step(
                                z_real_arr, z_fake.data, interp_arr
                            )

                        # --- autoencoder update: reconstruct + fool critic
                        loss_val, rec_val, adv_val = ae_step(x_arr)
                    if tracer.enabled:
                        tracer.metrics.counter("train.steps").inc()
                        tracer.metrics.gauge("train.loss").set(loss_val)
                        tracer.metrics.gauge("train.critic_loss").set(critic_loss_val)
                        tracer.metrics.gauge("train.grad_norm").set(ae_step.grad_norm())
                    rec_losses.append(rec_val)
                    adv_losses.append(adv_val)

                self.history.train_reconstruction.append(float(np.mean(rec_losses)))
                self.history.train_adversarial.append(float(np.mean(adv_losses)))
                epoch_span.set_attr(
                    "train_reconstruction", self.history.train_reconstruction[-1]
                )

                with no_grad():
                    xv = Tensor(clouds[val_idx])
                    vrec = chamfer_distance(self.decoder(self.encoder(xv)), xv)
                self.history.val_reconstruction.append(vrec.item())
                epoch_span.set_attr("val_reconstruction", self.history.val_reconstruction[-1])
        return self.history


def train_aae(
    clouds: np.ndarray,
    config: AAEConfig | None = None,
    seed: int = 0,
    tracer=None,
) -> AAE:
    """Convenience constructor + fit."""
    config = config or AAEConfig()
    model = AAE(config, n_points=clouds.shape[1], seed=seed)
    model.fit(clouds, tracer=tracer)
    return model
