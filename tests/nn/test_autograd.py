"""Tests for the autograd engine, including higher-order gradients."""

import gc
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import autograd as ag
from repro.nn.autograd import Tensor, grad, no_grad


def _numeric_grad(f, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    out = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = out.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        up = f(x)
        flat[i] = orig - eps
        dn = f(x)
        flat[i] = orig
        gflat[i] = (up - dn) / (2 * eps)
    return out


@pytest.mark.parametrize(
    "op, domain",
    [
        (lambda t: (t * t).sum(), (-2, 2)),
        (lambda t: ag.exp(t).sum(), (-1, 1)),
        (lambda t: ag.log(t).sum(), (0.5, 3)),
        (lambda t: ag.tanh(t).sum(), (-2, 2)),
        (lambda t: ag.sigmoid(t).sum(), (-2, 2)),
        (lambda t: ag.sqrt(t).sum(), (0.5, 3)),
        (lambda t: ag.power(t, 3.0).sum(), (-2, 2)),
        (lambda t: (t / (t + 5.0)).sum(), (0.5, 3)),
        (lambda t: ag.leaky_relu(t).sum(), (0.5, 3)),
    ],
)
def test_elementwise_gradients_match_numeric(op, domain):
    rng = np.random.default_rng(0)
    x = rng.uniform(*domain, size=(3, 4))
    t = Tensor(x, requires_grad=True)
    (g,) = grad(op(t), [t])
    num = _numeric_grad(lambda a: op(Tensor(a)).item(), x.copy())
    np.testing.assert_allclose(g.data, num, rtol=1e-4, atol=1e-6)


def test_matmul_gradients():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(4, 2))
    ta = Tensor(a, requires_grad=True)
    tb = Tensor(b, requires_grad=True)
    ga, gb = grad(ag.tanh(ta @ tb).sum(), [ta, tb])
    num_a = _numeric_grad(lambda x: np.tanh(x @ b).sum(), a.copy())
    num_b = _numeric_grad(lambda x: np.tanh(a @ x).sum(), b.copy())
    np.testing.assert_allclose(ga.data, num_a, rtol=1e-4)
    np.testing.assert_allclose(gb.data, num_b, rtol=1e-4)


def test_batched_matmul_broadcast_gradient():
    rng = np.random.default_rng(2)
    w = rng.normal(size=(5, 3))
    x = rng.normal(size=(4, 3, 7))
    tw = Tensor(w, requires_grad=True)
    out = (Tensor(x).transpose(0, 2, 1) @ tw.T).sum()
    (gw,) = grad(out, [tw])
    num = _numeric_grad(lambda a: (x.transpose(0, 2, 1) @ a.T).sum(), w.copy())
    np.testing.assert_allclose(gw.data, num, rtol=1e-4)


def test_broadcast_add_mul():
    b = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    z = (Tensor(np.ones((5, 2))) * b + b).sum()
    (gb,) = grad(z, [b])
    np.testing.assert_allclose(gb.data, [10.0, 10.0])


def test_reshape_transpose_roundtrip_grad():
    x = Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
    y = (x.reshape(4, 3).T * 2.0).sum()
    (g,) = grad(y, [x])
    np.testing.assert_allclose(g.data, 2.0)


def test_getitem_scatter_gradient():
    x = Tensor(np.arange(10.0), requires_grad=True)
    y = (x[2:5] * 3.0).sum()
    (g,) = grad(y, [x])
    expected = np.zeros(10)
    expected[2:5] = 3.0
    np.testing.assert_allclose(g.data, expected)


def test_take_gradient_accumulates_duplicates():
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    y = ag.take(x, np.array([2, 0, 2]), axis=1).sum()
    (g,) = grad(y, [x])
    np.testing.assert_allclose(g.data, [[1, 0, 2], [1, 0, 2]])


def test_max_gradient_ties_split():
    x = Tensor(np.array([[1.0, 5.0, 5.0]]), requires_grad=True)
    (g,) = grad(x.max(axis=1).sum(), [x])
    np.testing.assert_allclose(g.data, [[0, 0.5, 0.5]])


def test_min_gradient():
    x = Tensor(np.array([[3.0, 1.0, 2.0]]), requires_grad=True)
    (g,) = grad(x.min(axis=1).sum(), [x])
    np.testing.assert_allclose(g.data, [[0, 1, 0]])


def test_mean_gradient():
    x = Tensor(np.ones((2, 4)), requires_grad=True)
    (g,) = grad(x.mean(), [x])
    np.testing.assert_allclose(g.data, 1.0 / 8)


def test_pad2d_gradient():
    x = Tensor(np.ones((1, 1, 2, 2)), requires_grad=True)
    (g,) = grad(ag.pad2d(x, 2).sum(), [x])
    np.testing.assert_allclose(g.data, 1.0)


def test_double_backward_polynomial():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    y = ag.tensor_sum(x * x * x)
    (g1,) = grad(y, [x], create_graph=True)
    f = ag.tensor_sum(g1 * g1)  # sum 9x^4
    (g2,) = grad(f, [x])  # 36x^3
    np.testing.assert_allclose(g2.data, 36 * np.array([1.0, 8.0]))


def test_double_backward_through_tanh():
    x = Tensor(np.array([0.3, -0.7]), requires_grad=True)
    y = ag.tensor_sum(ag.tanh(x))
    (g1,) = grad(y, [x], create_graph=True)
    f = ag.tensor_sum(g1)
    (g2,) = grad(f, [x])  # d/dx (1 - tanh²x) = -2 tanh x (1 - tanh²x)
    expected = -2 * np.tanh(x.data) * (1 - np.tanh(x.data) ** 2)
    np.testing.assert_allclose(g2.data, expected, rtol=1e-10)


def test_no_grad_blocks_graph():
    x = Tensor(np.ones(3), requires_grad=True)
    with no_grad():
        y = (x * x).sum()
    assert not y.requires_grad


def test_backward_accumulates_on_leaves():
    x = Tensor(np.ones(3), requires_grad=True)
    (x * 2.0).sum().backward()
    np.testing.assert_allclose(x.grad.data, 2.0)
    (x * 3.0).sum().backward()
    np.testing.assert_allclose(x.grad.data, 5.0)  # accumulated


def test_grad_zero_for_unused_leaf():
    x = Tensor(np.ones(3), requires_grad=True)
    z = Tensor(np.ones(3), requires_grad=True)
    (g,) = grad((x * 2).sum(), [z])
    np.testing.assert_allclose(g.data, 0.0)


def test_grad_returns_an_interior_tensors_gradient():
    x = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    h = x * x
    y = ag.tensor_sum(h * 3.0 + h)
    gh, gx = grad(y, [h, x])
    np.testing.assert_allclose(gh.data, [4.0, 4.0])
    np.testing.assert_allclose(gx.data, 8.0 * x.data)


def test_a_second_backward_through_a_freed_graph_raises():
    x = Tensor(np.array([0.5, 1.5]), requires_grad=True)
    y = ag.tensor_sum(ag.tanh(x) * x)
    y.backward()
    with pytest.raises(RuntimeError, match="already freed"):
        y.backward()
    with pytest.raises(RuntimeError, match="already freed"):
        grad(y * 2.0, [x])
    ag.tensor_sum(x * 2.0).backward()  # the leaf itself is never freed
    t = np.tanh(x.data)
    np.testing.assert_allclose(x.grad.data, (1.0 - t * t) * x.data + t + 2.0)


def test_create_graph_keeps_the_graph_for_a_later_backward():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    y = ag.tensor_sum(ag.exp(x) * x)
    (g1,) = grad(y, [x], create_graph=True)  # (x + 1) e^x
    (again,) = grad(y, [x], create_graph=True)  # y's edges survived the walk
    np.testing.assert_array_equal(again.data, g1.data)
    ag.tensor_sum(g1).backward()  # d/dx (x + 1) e^x = (x + 2) e^x
    np.testing.assert_allclose(x.grad.data, (x.data + 2.0) * np.exp(x.data))


@pytest.fixture
def no_other_tracing():
    if tracemalloc.is_tracing():
        pytest.skip("tracemalloc is already tracing this interpreter")
    yield
    tracemalloc.stop()


def test_backward_peaks_at_about_what_the_forward_retained(no_other_tracing):
    """SmilesNet at the screen's bootstrap shape (width 8, batch 19): the
    walk frees each activation once the VJPs that closed over it have run,
    so backward adds little on top of the forward's activations."""
    from repro.chem.library import generate_library
    from repro.nn.losses import mse_loss
    from repro.surrogate.featurize import featurize_batch
    from repro.surrogate.model import build_smilesnet

    x = featurize_batch(generate_library(40, seed=2).smiles()[:19])
    y = np.random.default_rng(0).random((19, 1))
    model = build_smilesnet(seed=1, width=8)
    gc.collect()
    tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    loss = mse_loss(model(Tensor(x)), Tensor(y))
    retained = tracemalloc.get_traced_memory()[0] - base
    tracemalloc.reset_peak()
    loss.backward()
    peak = tracemalloc.get_traced_memory()[1] - base
    assert peak <= 1.10 * retained, (peak / 2**20, retained / 2**20)


def test_shared_subexpression_gradient():
    x = Tensor(np.array([2.0]), requires_grad=True)
    h = x * x
    y = (h + h).sum()  # d/dx 2x² = 4x
    (g,) = grad(y, [x])
    np.testing.assert_allclose(g.data, [8.0])


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_mlp_gradcheck_property(seed):
    """Random small MLPs pass numeric grad-check on all weights."""
    rng = np.random.default_rng(seed)
    w1 = rng.normal(size=(4, 5))
    w2 = rng.normal(size=(5, 1))
    x = rng.normal(size=(3, 4))

    def f(w1d):
        return np.tanh(x @ w1d).clip(0) @ w2  # relu∘? no: tanh then matmul

    t1 = Tensor(w1, requires_grad=True)
    out = ag.tensor_sum(ag.relu(ag.tanh(Tensor(x) @ t1)) @ Tensor(w2))
    (g,) = grad(out, [t1])
    num = _numeric_grad(
        lambda a: (np.clip(np.tanh(x @ a), 0, None) @ w2).sum(), w1.copy()
    )
    np.testing.assert_allclose(g.data, num, rtol=1e-3, atol=1e-6)
