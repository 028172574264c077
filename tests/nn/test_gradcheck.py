"""Finite-difference gradient checks for every autograd op the compiled
training path replays.

The op list is exactly the primitive surface SmilesNet (conv, BN, pool,
dense, ReLU/sigmoid, MSE) and the 3D-AAE (pointwise dense, max-pool over
points, tanh, Chamfer, WGAN gradient penalty) trace onto the tape —
every VJP the backward-graph builder derives is checked against central
differences at fp64, including the double-backward VJPs inside
``gradient_penalty_at``.
"""

import numpy as np
import pytest

from repro.nn import autograd as ag
from repro.nn.autograd import Tensor
from repro.nn.layers import Dense, Sequential, Tanh
from repro.nn.losses import chamfer_distance, gradient_penalty_at, mse_loss

EPS = 1e-6
RTOL = 1e-5
ATOL = 1e-7


def _numeric_grad(f, x: np.ndarray) -> np.ndarray:
    """Central-difference gradient of scalar ``f()`` w.r.t. array ``x``
    (mutated in place and restored)."""
    g = np.zeros_like(x)
    flat, gf = x.reshape(-1), g.reshape(-1)
    for i in range(flat.size):  # repro: disable=vectorization -- finite differencing
        old = flat[i]
        flat[i] = old + EPS
        fp = f()
        flat[i] = old - EPS
        fm = f()
        flat[i] = old
        gf[i] = (fp - fm) / (2 * EPS)
    return g


def _check(build, arrays: list[np.ndarray]) -> None:
    """``build(*tensors)`` → scalar Tensor; check grads of every input."""
    xs = [Tensor(a, requires_grad=True) for a in arrays]
    loss = build(*xs)
    loss.backward()
    for x, a in zip(xs, arrays):
        num = _numeric_grad(lambda: build(*(Tensor(b) for b in arrays)).item(), a)
        np.testing.assert_allclose(x.grad.data, num, rtol=RTOL, atol=ATOL)


def _proj(t: Tensor, seed: int = 7) -> Tensor:
    """Random fixed projection → scalar, so full Jacobians are exercised."""
    w = np.random.default_rng(seed).normal(size=t.shape)
    return ag.tensor_sum(t * Tensor(w))


RNG = np.random.default_rng(42)

_CONST = np.random.default_rng(11).normal(size=(3, 4))

ELEMENTWISE = [
    ("add", lambda x: x + Tensor(_CONST), None),
    ("mul", lambda x: x * Tensor(_CONST), None),
    ("power2", lambda x: x**2.0, None),
    ("power_neg", lambda x: x**-1.5, "positive"),
    ("exp", ag.exp, None),
    ("log", ag.log, "positive"),
    ("sqrt", ag.sqrt, "positive"),
    ("tanh", ag.tanh, None),
    ("sigmoid", ag.sigmoid, None),
    ("relu", ag.relu, "offset"),
    ("leaky_relu", lambda x: ag.leaky_relu(x, 0.2), "offset"),
]


@pytest.mark.parametrize("name,op,domain", ELEMENTWISE, ids=[e[0] for e in ELEMENTWISE])
def test_elementwise_ops_gradcheck(name, op, domain):
    x = RNG.normal(size=(3, 4))
    if domain == "positive":
        x = np.abs(x) + 0.5
    elif domain == "offset":
        x = x + np.where(x >= 0, 0.3, -0.3)  # keep clear of the kink
    _check(lambda t: _proj(op(t)), [x])


def test_matmul_gradcheck_both_args():
    _check(
        lambda a, b: _proj(a @ b),
        [RNG.normal(size=(3, 4)), RNG.normal(size=(4, 2))],
    )


def test_batched_matmul_gradcheck():
    _check(
        lambda a, b: _proj(a @ b),
        [RNG.normal(size=(2, 3, 4)), RNG.normal(size=(2, 4, 2))],
    )


def test_reshape_transpose_getitem_gradcheck():
    _check(
        lambda x: _proj(ag.transpose(ag.reshape(x, (4, 3)), (1, 0))),
        [RNG.normal(size=(3, 4))],
    )
    _check(lambda x: _proj(x[1:, ::2]), [RNG.normal(size=(4, 6))])


def test_take_gradcheck_with_duplicates():
    idx = np.array([0, 2, 2, 1])
    _check(lambda x: _proj(ag.take(x, idx, axis=0)), [RNG.normal(size=(3, 5))])


def test_pad2d_gradcheck():
    _check(lambda x: _proj(ag.pad2d(x, 1)), [RNG.normal(size=(2, 2, 3, 3))])


@pytest.mark.parametrize("axis,keepdims", [(None, False), (1, False), (1, True)])
def test_reductions_gradcheck(axis, keepdims):
    x = RNG.normal(size=(3, 4))
    _check(lambda t: _proj(ag.tensor_sum(t, axis=axis, keepdims=keepdims)), [x])
    _check(lambda t: _proj(ag.tensor_mean(t, axis=axis, keepdims=keepdims)), [x])


def test_max_gradcheck_distinct_entries():
    # distinct values keep the argmax stable under the eps perturbation
    x = np.arange(12, dtype=np.float64).reshape(3, 4) * 0.37 + RNG.normal(size=(3, 4)) * 0.01
    _check(lambda t: _proj(ag.tensor_max(t, axis=1)), [x])


def test_mse_loss_gradcheck():
    y = RNG.normal(size=(5, 1))
    _check(lambda p: mse_loss(p, Tensor(y)), [RNG.normal(size=(5, 1))])


def test_chamfer_distance_gradcheck():
    # distinct pairwise distances keep nearest-neighbour matches stable
    a = RNG.normal(size=(2, 4, 3))
    b = a[:, ::-1] + 0.3 * RNG.normal(size=(2, 4, 3))
    _check(lambda x, y: chamfer_distance(x, y), [a, b])


def _tiny_critic(seed: int = 3):
    rng = np.random.default_rng(seed)
    return Sequential(Dense(4, 5, rng), Tanh(), Dense(5, 1, rng))


def test_gradient_penalty_interp_gradcheck():
    """First-order check of the penalty w.r.t. the interpolates."""
    critic = _tiny_critic()
    interp = RNG.normal(size=(3, 4))

    def value() -> float:
        return gradient_penalty_at(critic, Tensor(interp, requires_grad=True)).item()

    t = Tensor(interp, requires_grad=True)
    gradient_penalty_at(critic, t).backward()
    num = _numeric_grad(value, interp)
    np.testing.assert_allclose(t.grad.data, num, rtol=RTOL, atol=ATOL)


def test_gradient_penalty_double_backward_param_gradcheck():
    """The penalty's gradient w.r.t. the *critic parameters* flows through
    the inner ``create_graph=True`` gradient — this checks every
    double-backward VJP the compiled critic step replays."""
    critic = _tiny_critic()
    interp = RNG.normal(size=(3, 4))

    def value() -> float:
        return gradient_penalty_at(critic, Tensor(interp, requires_grad=True)).item()

    gradient_penalty_at(critic, Tensor(interp, requires_grad=True)).backward()
    for p in critic.parameters():
        num = _numeric_grad(value, p.data)
        if p.grad is None:
            # the final bias never reaches d(score)/d(interp): its true
            # gradient is exactly zero and autograd correctly skips it
            np.testing.assert_allclose(num, 0.0, atol=1e-7)
            continue
        np.testing.assert_allclose(p.grad.data, num, rtol=1e-4, atol=1e-6)
