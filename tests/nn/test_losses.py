"""Tests for loss functions (incl. Chamfer and WGAN-GP)."""

import numpy as np
import pytest

from repro.nn.autograd import Tensor, grad
from repro.nn.layers import Dense, Sequential, Tanh
from repro.nn.losses import (
    bce_loss,
    chamfer_distance,
    gradient_penalty_at,
    mse_loss,
)


def test_mse_known_value():
    pred = Tensor(np.array([1.0, 2.0]))
    target = Tensor(np.array([0.0, 4.0]))
    assert mse_loss(pred, target).item() == pytest.approx((1 + 4) / 2)


def test_bce_perfect_prediction_near_zero():
    pred = Tensor(np.array([0.999999, 0.000001]))
    target = Tensor(np.array([1.0, 0.0]))
    assert bce_loss(pred, target).item() < 1e-4


def test_bce_gradient_direction():
    pred = Tensor(np.array([0.5]), requires_grad=True)
    (g,) = grad(bce_loss(pred, Tensor(np.array([1.0]))), [pred])
    assert g.data[0] < 0  # increasing pred decreases loss toward target 1


def test_chamfer_zero_for_identical_clouds():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(2, 6, 3))
    assert chamfer_distance(Tensor(a), Tensor(a.copy())).item() == pytest.approx(0.0)


def test_chamfer_permutation_invariant():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(1, 8, 3))
    perm = rng.permutation(8)
    assert chamfer_distance(Tensor(a), Tensor(a[:, perm])).item() == pytest.approx(
        0.0, abs=1e-12
    )


def test_chamfer_grows_with_displacement():
    rng = np.random.default_rng(2)
    a = rng.normal(size=(1, 6, 3))
    small = chamfer_distance(Tensor(a), Tensor(a + 0.1)).item()
    large = chamfer_distance(Tensor(a), Tensor(a + 1.0)).item()
    assert 0 < small < large


def test_chamfer_symmetric():
    rng = np.random.default_rng(3)
    a, b = rng.normal(size=(1, 5, 3)), rng.normal(size=(1, 7, 3))
    ab = chamfer_distance(Tensor(a), Tensor(b)).item()
    ba = chamfer_distance(Tensor(b), Tensor(a)).item()
    assert ab == pytest.approx(ba)


def test_chamfer_gradient_flows():
    rng = np.random.default_rng(4)
    a = Tensor(rng.normal(size=(1, 5, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=(1, 5, 3)))
    (g,) = grad(chamfer_distance(a, b), [a])
    assert np.abs(g.data).max() > 0


def _critic():
    rng = np.random.default_rng(5)
    return Sequential(Dense(4, 8, rng), Tanh(), Dense(8, 1, rng))


def test_gradient_penalty_nonnegative():
    rng = np.random.default_rng(6)
    gp = gradient_penalty_at(_critic(), Tensor(rng.normal(size=(8, 4)), requires_grad=True))
    assert gp.item() >= 0


def test_gradient_penalty_reaches_critic_weights():
    """The double-backward path must deliver gradients to the weights
    that shape ∇ₓD (all but the output bias)."""
    rng = np.random.default_rng(7)
    critic = _critic()
    gp = gradient_penalty_at(critic, Tensor(rng.normal(size=(8, 4)), requires_grad=True))
    critic.zero_grad()
    gp.backward()
    grads = [p.grad for p in critic.parameters()]
    # weight matrices and hidden bias get gradients; output bias cannot
    # influence ∇ₓD so its gradient is legitimately absent
    with_grad = sum(1 for g in grads if g is not None and np.abs(g.data).max() > 0)
    assert with_grad >= 3


def test_gradient_penalty_zero_for_unit_gradient_critic():
    """A critic D(x) = x·e with ‖∇D‖=1 must incur zero penalty."""
    rng = np.random.default_rng(8)

    class UnitCritic:
        def __call__(self, x):
            w = np.zeros((4, 1))
            w[0, 0] = 1.0
            return x @ Tensor(w)

    gp = gradient_penalty_at(UnitCritic(), Tensor(rng.normal(size=(6, 4)), requires_grad=True))
    assert gp.item() == pytest.approx(0.0, abs=1e-10)
