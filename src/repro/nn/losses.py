"""Loss functions.

Includes the pipeline's three workhorses: MSE (ML1 score regression),
Chamfer distance (3D-AAE point-cloud reconstruction) and the Wasserstein
critic objective with gradient penalty (3D-AAE adversarial term).
"""

from __future__ import annotations

from repro.nn import autograd as ag
from repro.nn.autograd import Tensor

__all__ = [
    "mse_loss",
    "bce_loss",
    "chamfer_distance",
    "gradient_penalty_at",
]


def mse_loss(pred: Tensor, target: Tensor) -> Tensor:
    """Mean squared error."""
    diff = pred - target
    return ag.tensor_mean(diff * diff)


def bce_loss(pred: Tensor, target: Tensor) -> Tensor:
    """Binary cross-entropy on probabilities.

    ``log`` clamps its argument away from zero internally, so predictions
    that saturate at exactly 0/1 yield large-but-finite losses rather than
    NaNs.
    """
    one = Tensor(1.0)
    return -ag.tensor_mean(
        target * ag.log(pred) + (one - target) * ag.log(one - pred)
    )


def chamfer_distance(a: Tensor, b: Tensor) -> Tensor:
    """Symmetric Chamfer distance between point clouds.

    ``a``/``b`` have shape (batch, n_points, 3).  For each point the
    squared distance to its nearest neighbour in the other cloud is
    averaged; the two directions are summed.  This is the reconstruction
    loss of the paper's 3D-AAE (§5.1.4).
    """
    # pairwise squared distances: |a|² + |b|² − 2 a·b
    a2 = ag.tensor_sum(a * a, axis=2, keepdims=True)  # (B, N, 1)
    b2 = ag.tensor_sum(b * b, axis=2, keepdims=True)  # (B, M, 1)
    cross = ag.matmul(a, ag.transpose(b, (0, 2, 1)))  # (B, N, M)
    d2 = a2 + ag.transpose(b2, (0, 2, 1)) - 2.0 * cross
    a_to_b = ag.tensor_mean(d2.min(axis=2))
    b_to_a = ag.tensor_mean(d2.min(axis=1))
    return a_to_b + b_to_a


def gradient_penalty_at(critic, interp: Tensor) -> Tensor:
    """WGAN-GP penalty evaluated at precomputed interpolates.

    Uses double backpropagation: the inner gradient is computed with
    ``create_graph=True`` so the penalty differentiates w.r.t. the critic
    parameters.  Taking ``interp`` as an argument (rather than drawing it
    here) lets trainers precompute the interpolates outside the loss —
    the compiled training path feeds them in as a graph input.
    """
    score = ag.tensor_sum(critic(interp))
    (g,) = ag.grad(score, [interp], create_graph=True)
    flat = ag.reshape(g, (g.shape[0], -1))
    norm = ag.sqrt(ag.tensor_sum(flat * flat, axis=1) + 1e-12)
    one = Tensor(1.0)
    return ag.tensor_mean((norm - one) * (norm - one))
