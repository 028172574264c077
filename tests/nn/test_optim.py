"""Tests for optimizers."""

import numpy as np
import pytest

from repro.nn.autograd import Tensor
from repro.nn.layers import Parameter
from repro.nn.optim import Adam, RMSprop


def _quadratic_step(opt_cls, steps=200, **kwargs):
    """Minimize f(w) = sum((w - 3)^2); returns final w."""
    w = Parameter(np.zeros(4))
    opt = opt_cls([w], **kwargs)
    for _ in range(steps):
        loss = ((w - Tensor(np.full(4, 3.0))) ** 2).sum()
        opt.zero_grad()
        loss.backward()
        opt.step()
    return w.data


@pytest.mark.parametrize(
    "opt_cls, kwargs",
    [
        (Adam, {"lr": 0.1}),
        (RMSprop, {"lr": 0.05}),
    ],
)
def test_optimizers_converge_on_quadratic(opt_cls, kwargs):
    w = _quadratic_step(opt_cls, **kwargs)
    np.testing.assert_allclose(w, 3.0, atol=0.05)


def test_invalid_lr_rejected():
    with pytest.raises(ValueError):
        Adam([Parameter(np.zeros(2))], lr=0.0)


def test_empty_params_rejected():
    with pytest.raises(ValueError):
        Adam([], lr=0.1)


def test_skips_params_without_grad():
    a = Parameter(np.zeros(2))
    b = Parameter(np.zeros(2))
    opt = Adam([a, b], lr=0.1)
    (a * 2.0).sum().backward()
    opt.step()
    assert (a.data != 0).all()
    assert (b.data == 0).all()


def test_zero_grad_clears():
    p = Parameter(np.zeros(2))
    (p * 1.0).sum().backward()
    assert p.grad is not None
    Adam([p], lr=0.1).zero_grad()
    assert p.grad is None


def test_adam_bias_correction_first_step():
    """First Adam step should be ≈ lr in the gradient direction."""
    p = Parameter(np.zeros(3))
    opt = Adam([p], lr=0.1)
    (p * Tensor(np.array([1.0, 2.0, -3.0]))).sum().backward()
    opt.step()
    np.testing.assert_allclose(p.data, [-0.1, -0.1, 0.1], atol=1e-6)


# ------------------------------------------------- in-place update contract
def _reference_update(opt, p_data, g, state):
    """The textbook expression forms the in-place sequences replaced."""
    if isinstance(opt, Adam):
        t = state["t"] = state.get("t", 0) + 1
        m = state["m"] = opt.b1 * state.get("m", np.zeros_like(p_data)) + (1 - opt.b1) * g
        v = state["v"] = opt.b2 * state.get("v", np.zeros_like(p_data)) + (1 - opt.b2) * g * g
        return p_data - (opt.lr * (m / (1 - opt.b1**t))) / (
            np.sqrt(v / (1 - opt.b2**t)) + opt.eps
        )
    if isinstance(opt, RMSprop):
        sq = state["sq"] = opt.alpha * state.get("sq", np.zeros_like(p_data)) + (
            1 - opt.alpha
        ) * g * g
        return p_data - (opt.lr * g) / (np.sqrt(sq) + opt.eps)
    raise TypeError(type(opt))


@pytest.mark.parametrize(
    "opt_cls,kwargs",
    [
        (Adam, {"lr": 0.01}),
        (RMSprop, {"lr": 0.01}),
    ],
    ids=["adam", "rmsprop"],
)
def test_inplace_updates_bitwise_match_expression_forms(opt_cls, kwargs):
    rng = np.random.default_rng(3)
    p = Parameter(rng.normal(size=(4, 3)))
    opt = opt_cls([p], **kwargs)
    ref, state = p.data.copy(), {}
    for _ in range(25):
        g = rng.normal(size=p.data.shape)
        p.grad = Tensor(g)
        opt.step()
        ref = _reference_update(opt, ref, g, state)
        np.testing.assert_array_equal(p.data, ref)


def test_inplace_step_keeps_param_identity_and_allocates_no_temps():
    """``step()`` mutates the same arrays (the compiled path's guard
    relies on it) and stages through the two shared scratch buffers."""
    rng = np.random.default_rng(4)
    params = [Parameter(rng.normal(size=(8, 8))), Parameter(rng.normal(size=(5,)))]
    opt = Adam(params, lr=0.01)
    before = [p.data for p in params]
    for p in params:
        p.grad = Tensor(rng.normal(size=p.data.shape))
    opt.step()
    for p, b in zip(params, before):
        assert p.data is b
    assert len(opt._scratch_bufs) == 1  # one dtype → one scratch pool
    (bufs,) = opt._scratch_bufs.values()
    assert len(bufs) == 2 and all(b.size == 64 for b in bufs)


def test_bind_compiled_matches_step_bitwise():
    rng = np.random.default_rng(5)
    mk = lambda: [Parameter(rng.normal(size=(3, 3))), Parameter(rng.normal(size=(4,)))]
    rng = np.random.default_rng(5)
    params_a = mk()
    rng = np.random.default_rng(5)
    params_b = mk()
    opt_a = Adam(params_a, lr=0.02)
    opt_b = Adam(params_b, lr=0.02)
    grad_bufs = {i: np.zeros_like(p.data) for i, p in enumerate(params_b)}
    run = opt_b.bind_compiled(grad_bufs)
    grng = np.random.default_rng(6)
    for _ in range(10):
        gs = [grng.normal(size=p.data.shape) for p in params_a]
        for p, g in zip(params_a, gs):
            p.grad = Tensor(g)
        opt_a.step()
        for i, g in enumerate(gs):
            np.copyto(grad_bufs[i], g)
        run()
        for pa, pb in zip(params_a, params_b):
            np.testing.assert_array_equal(pa.data, pb.data)
    assert opt_a._t == opt_b._t


def test_moments_live_in_state_arenas():
    rng = np.random.default_rng(7)
    params = [Parameter(rng.normal(size=(4, 2))), Parameter(rng.normal(size=(6,)))]
    opt = Adam(params, lr=0.01)
    assert len(opt._state_arenas) == 2  # m and v
    for arena, views in zip(opt._state_arenas, (opt._m, opt._v)):
        for view in views:
            assert np.shares_memory(view, arena.buf)


def test_grad_norm_helper():
    from tests.nn.oracle import grad_norm

    p1, p2 = Parameter(np.zeros(3)), Parameter(np.zeros(2))
    p1.grad = Tensor(np.array([3.0, 0.0, 0.0]))
    p2.grad = Tensor(np.array([0.0, 4.0]))
    assert grad_norm([p1, p2]) == pytest.approx(5.0)
    assert grad_norm([Parameter(np.zeros(2))]) == 0.0
