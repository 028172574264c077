"""Tests for NN layers and the module system."""

import numpy as np
import pytest

from repro.nn.autograd import Tensor
from repro.nn.layers import (
    BatchNorm,
    Conv2d,
    Dense,
    Flatten,
    GlobalAvgPool2d,
    LeakyReLU,
    MaxPool2d,
    PointwiseDense,
    ReLU,
    ResidualBlock,
    Sequential,
    Sigmoid,
    Tanh,
)


def _rng():
    return np.random.default_rng(0)


def test_dense_shapes_and_grads():
    layer = Dense(4, 3, _rng())
    x = Tensor(np.ones((5, 4)), requires_grad=True)
    out = layer(x)
    assert out.shape == (5, 3)
    out.sum().backward()
    assert layer.weight.grad is not None
    assert layer.bias.grad is not None
    np.testing.assert_allclose(layer.bias.grad.data, 5.0)


def test_pointwise_dense_shares_weights_across_points():
    layer = PointwiseDense(3, 2, _rng())
    x = np.zeros((1, 4, 3))
    x[0, 2] = [1.0, 2.0, 3.0]
    out = layer(Tensor(x)).data
    # all points with identical input give identical output
    np.testing.assert_allclose(out[0, 0], out[0, 1])
    assert not np.allclose(out[0, 2], out[0, 0])


def test_conv2d_matches_manual_convolution():
    rng = _rng()
    conv = Conv2d(1, 1, 3, rng, padding=0)
    x = rng.normal(size=(1, 1, 5, 5))
    out = conv(Tensor(x)).data
    w = conv.weight.data.reshape(3, 3)
    expected = np.zeros((3, 3))
    for i in range(3):
        for j in range(3):
            expected[i, j] = (x[0, 0, i : i + 3, j : j + 3] * w).sum()
    expected += conv.bias.data[0]
    np.testing.assert_allclose(out[0, 0], expected, rtol=1e-10)


def test_conv2d_padding_preserves_shape():
    conv = Conv2d(3, 8, 3, _rng(), padding=1)
    out = conv(Tensor(np.zeros((2, 3, 8, 8))))
    assert out.shape == (2, 8, 8, 8)


def test_conv2d_stride():
    conv = Conv2d(1, 2, 3, _rng(), stride=2)
    out = conv(Tensor(np.zeros((1, 1, 9, 9))))
    assert out.shape == (1, 2, 4, 4)


def test_conv2d_gradcheck():
    rng = _rng()
    conv = Conv2d(2, 3, 3, rng, padding=1)
    x = rng.normal(size=(2, 2, 4, 4))
    out = conv(Tensor(x)).sum()
    conv.zero_grad()
    out.backward()
    g = conv.weight.grad.data.copy()
    eps = 1e-6
    i, j = 1, 5
    conv.weight.data[i, j] += eps
    up = conv(Tensor(x)).sum().item()
    conv.weight.data[i, j] -= 2 * eps
    dn = conv(Tensor(x)).sum().item()
    conv.weight.data[i, j] += eps
    assert g[i, j] == pytest.approx((up - dn) / (2 * eps), rel=1e-4)


def test_maxpool_shapes_and_values():
    pool = MaxPool2d(2)
    x = np.arange(16.0).reshape(1, 1, 4, 4)
    out = pool(Tensor(x)).data
    np.testing.assert_allclose(out[0, 0], [[5, 7], [13, 15]])


def test_maxpool_rejects_indivisible():
    with pytest.raises(ValueError):
        MaxPool2d(2)(Tensor(np.zeros((1, 1, 5, 4))))


def test_global_avg_pool():
    out = GlobalAvgPool2d()(Tensor(np.ones((2, 3, 4, 4)) * 5.0))
    assert out.shape == (2, 3)
    np.testing.assert_allclose(out.data, 5.0)


def test_flatten():
    assert Flatten()(Tensor(np.zeros((2, 3, 4)))).shape == (2, 12)


@pytest.mark.parametrize("act", [ReLU(), LeakyReLU(), Tanh(), Sigmoid()])
def test_activations_shape_preserving(act):
    x = Tensor(np.linspace(-2, 2, 12).reshape(3, 4))
    assert act(x).shape == (3, 4)


def test_batchnorm_normalizes_in_train_mode():
    bn = BatchNorm(3)
    rng = _rng()
    x = rng.normal(loc=5.0, scale=3.0, size=(64, 3))
    out = bn(Tensor(x)).data
    np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-7)
    np.testing.assert_allclose(out.std(axis=0), 1.0, atol=1e-2)


def test_batchnorm_eval_uses_running_stats():
    bn = BatchNorm(2, momentum=1.0)  # running stats = last batch
    x = np.array([[0.0, 10.0], [2.0, 14.0]])
    bn(Tensor(x))
    bn.eval()
    out = bn(Tensor(np.array([[1.0, 12.0]]))).data
    np.testing.assert_allclose(out, 0.0, atol=1e-2)


def test_batchnorm_4d_per_channel():
    bn = BatchNorm(3)
    rng = _rng()
    x = rng.normal(size=(8, 3, 5, 5)) * np.array([1, 10, 100]).reshape(1, 3, 1, 1)
    out = bn(Tensor(x)).data
    for c in range(3):
        assert abs(out[:, c].mean()) < 1e-7


def test_batchnorm_rejects_3d():
    with pytest.raises(ValueError):
        BatchNorm(3)(Tensor(np.zeros((2, 3, 4))))


def test_sequential_composition_and_parameters():
    rng = _rng()
    net = Sequential(Dense(4, 8, rng), ReLU(), Dense(8, 2, rng))
    assert len(net) == 3
    assert len(net.parameters()) == 4
    out = net(Tensor(np.ones((1, 4))))
    assert out.shape == (1, 2)


def test_residual_block_identity_skip():
    rng = _rng()

    class Zero(Dense):
        def __init__(self):
            super().__init__(4, 4, rng)
            self.weight.data[:] = 0
            self.bias.data[:] = 0

    block = ResidualBlock(Zero())
    x = np.abs(_rng().normal(size=(3, 4)))
    np.testing.assert_allclose(block(Tensor(x)).data, x)  # relu(0 + x) = x for x>0


def test_residual_block_projection():
    rng = _rng()
    block = ResidualBlock(Dense(4, 6, rng), projection=Dense(4, 6, rng))
    assert block(Tensor(np.ones((2, 4)))).shape == (2, 6)


def test_train_eval_mode_propagates():
    rng = _rng()
    net = Sequential(Dense(2, 2, rng), Sequential(BatchNorm(2)))
    net.eval()
    assert all(not m.training for m in net.modules())
    net.train()
    assert all(m.training for m in net.modules())


def test_state_dict_roundtrip():
    rng = _rng()
    a = Sequential(Dense(3, 4, rng), Dense(4, 2, rng))
    b = Sequential(Dense(3, 4, rng), Dense(4, 2, rng))
    b.load_state_dict(a.state_dict())
    x = Tensor(np.ones((1, 3)))
    np.testing.assert_allclose(a(x).data, b(x).data)


def test_load_state_dict_shape_mismatch():
    rng = _rng()
    a = Sequential(Dense(3, 4, rng))
    b = Sequential(Dense(3, 5, rng))
    with pytest.raises(ValueError):
        b.load_state_dict(a.state_dict())
