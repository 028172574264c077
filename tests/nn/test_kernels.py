"""Each primitive's one kernel against the eager expression it replaced.

Every multi-call primitive of ``repro.nn.autograd`` runs one
``kernel_<kind>`` — the eager op into a fresh float64 array, a compiled
graph on arena views — so the eager op must still equal, bit for bit at
float64, the expression it used to evaluate (``tests/nn/oracle.py``),
on signed zeros, NaN, infinities, subnormals, zeros under negative
powers, |x| > 500 under ``exp``/``sigmoid`` and ties under ``max``.
"""

import itertools

import numpy as np
import pytest

from repro.nn import autograd as ag
from repro.nn.autograd import Tensor
from repro.nn.im2col import conv_index_plan
from repro.nn.layers import BatchNorm
from tests.nn import oracle

SPECIALS = np.array(
    [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 1.0, -1.0, 600.0, -600.0,
     500.0, -500.0, 1e-310, -1e-310, np.finfo(np.float64).tiny, 2.0**-1074, 1e308]
)


def _bits(a) -> np.ndarray:
    return np.asarray(a, dtype=np.float64).view(np.uint64)


def _assert_bits(got, want) -> None:
    np.testing.assert_array_equal(_bits(got), _bits(want))


def _recorded(kind, fn, *args, **kw):
    """Run ``fn`` under a tape; the ``(inputs, output)`` of each ``kind`` op."""
    seen = []

    def record(op, ins, out, attrs):
        if op == kind:
            seen.append((ins, out))

    with ag.Tape(record):
        fn(*args, **kw)
    return seen


def _values() -> np.ndarray:
    rng = np.random.default_rng(0)
    return np.concatenate(
        [SPECIALS, rng.normal(scale=3.0, size=64), rng.normal(scale=400, size=64)]
    )


@pytest.mark.parametrize("name", ["exp", "log", "sigmoid"])
def test_unary_op_equals_its_old_expression(name):
    x = _values()
    with np.errstate(all="ignore"):
        _assert_bits(getattr(ag, name)(Tensor(x)).data, getattr(oracle, name)(x))


def test_relu_mask_equals_its_old_expression():
    with np.errstate(invalid="ignore"):  # the relu's inf * 0
        ((_, mask),) = _recorded("relu_mask", ag.relu, Tensor(_values()))
    _assert_bits(mask.data, oracle.relu_mask(_values()))


@pytest.mark.parametrize("exponent", [-2.0, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 3.0])
def test_power_equals_its_old_expression(exponent):
    x = _values()
    with np.errstate(all="ignore"):
        got = ag.power(Tensor(x), exponent).data
        _assert_bits(got, oracle.power(x, exponent))


@pytest.mark.parametrize("slope", [0.2, 0.01, -0.5])
def test_leaky_factor_equals_its_old_expression(slope):
    x = _values()
    ((_, factor),) = _recorded("leaky_factor", ag.leaky_relu, Tensor(x), slope)
    _assert_bits(factor.data, oracle.leaky_factor(x, slope))


def _tie_windows() -> np.ndarray:
    """Every 2×2 window over {−0.0, +0.0, NaN, 1, 0.5}, as ``(b, c, oh, 2, ow, 2)``."""
    windows = np.array(list(itertools.product([-0.0, 0.0, np.nan, 1.0, 0.5], repeat=4)))
    return windows.reshape(1, 625, 1, 2, 1, 2)


@pytest.mark.parametrize(
    "make,axes",
    [
        (_tie_windows, (3, 5)),
        (lambda: np.repeat(_values().reshape(-1, 1), 3, axis=1), (1,)),  # three-way ties
        (lambda: _values().reshape(5, -1), (0,)),
        (lambda: _values().reshape(5, -1), None),
        (lambda: _values().reshape(-1, 1), (1,)),  # a length-1 reduced axis
    ],
)
@pytest.mark.parametrize("keepdims", [False, True])
def test_max_and_mask_equal_their_old_expression(make, axes, keepdims):
    x = make()
    with np.errstate(invalid="ignore"):  # a window of NaN has no tie count
        (((_, got), mask),) = _recorded(
            "max_mask", ag.tensor_max, Tensor(x), axis=axes, keepdims=keepdims
        )
        want, want_mask = oracle.tensor_max(x, ag._normalize_axis(axes, x.ndim), keepdims)
    _assert_bits(got.data, want)
    _assert_bits(mask.data, want_mask)


@pytest.mark.parametrize("pad", [1, 2])
def test_pad2d_equals_np_pad(pad):
    x = _values()[:144].reshape(2, 2, 6, 6)
    _assert_bits(ag.pad2d(Tensor(x), pad).data, oracle.pad2d(x, pad))


def test_scatter_equals_add_at():
    g = _values()[:40].reshape(4, 10)
    key = (slice(1, 5), slice(None, None, 2))
    shape = (6, 20)
    _assert_bits(ag.scatter(Tensor(g), key, shape).data, oracle.scatter(g, key, shape))


@pytest.mark.parametrize("kernel,stride,pad", [(3, 1, 1), (3, 2, 0), (1, 1, 0)])
def test_conv_take_and_its_adjoint_equal_the_old_expressions(kernel, stride, pad):
    c, h, w = 2, 7, 9
    x = np.resize(_values(), (3, c, h + 2 * pad, w + 2 * pad))
    idx = conv_index_plan(kernel, stride, c, h + 2 * pad, w + 2 * pad)
    cols = ag.conv_gather(Tensor(x), idx, kernel, stride)
    _assert_bits(cols.data, oracle.conv_take(x, idx, kernel, stride))
    g = np.resize(_values()[::-1], cols.shape)
    shape = (3, x[0].size)
    got = ag._scatter_add_axis(Tensor(g), idx, 1, shape)
    with np.errstate(invalid="ignore"):  # inf + -inf
        want = oracle.scatter_add_axis(g, idx, 1, shape)
    _assert_bits(got.data, want)


def test_batchnorm_running_stats_equal_the_old_update():
    x = np.random.default_rng(2).normal(size=(8, 3, 4, 4))
    layer, ref = BatchNorm(3, momentum=0.3), BatchNorm(3, momentum=0.3)
    for _ in range(3):
        (((mean, var), _),) = _recorded("bn_stats", layer, Tensor(x))
        oracle.bn_stats(ref, mean.data, var.data)
        x = x * 1.5 + 0.25
    _assert_bits(layer.running_mean, ref.running_mean)
    _assert_bits(layer.running_var, ref.running_var)


@pytest.mark.parametrize(
    "shape,axis,keepdims",
    [
        ((4, 3, 5), (0, 2), False),
        ((4, 3, 5), 1, True),
        ((4, 3), None, False),
        ((6,), 0, False),
        ((4, 1), 1, False),
    ],
)
def test_sum_vjp_broadcasts_as_the_multiply_by_ones_did(shape, axis, keepdims):
    x = Tensor(np.zeros(shape), requires_grad=True)
    out = ag.tensor_sum(x, axis=axis, keepdims=keepdims)
    g = np.resize(_values(), out.shape)
    (got,) = ag.grad(out, [x], gradient=Tensor(g))
    want = oracle.sum_vjp(g, shape, ag._normalize_axis(axis, len(shape)), keepdims)
    _assert_bits(got.data, want)


def test_square_vjp_reads_a_as_pow_one_did():
    x = _values()
    a = Tensor(x, requires_grad=True)
    g = np.resize(_values()[::-1], x.shape)
    with np.errstate(all="ignore"):
        (got,) = ag.grad(ag.power(a, 2.0), [a], gradient=Tensor(g))
        _assert_bits(got.data, oracle.square_vjp(g, x))


# ------------------------------------------- inference-only and copy kinds
def _kernel(kind, ins, shape, **attrs):
    out = np.empty(shape)
    getattr(ag, f"kernel_{kind}")(ins, out, attrs)()
    return out


def test_inference_kinds_equal_the_interpreter():
    x = np.resize(_values(), (2, 3, 4, 5))
    _assert_bits(_kernel("relu", (x,), x.shape), np.maximum(x, 0))
    slope = np.float64(0.2)
    _assert_bits(_kernel("leaky", (x,), x.shape, slope=slope), np.where(x > 0, x, slope * x))
    with np.errstate(all="ignore"):
        _assert_bits(_kernel("mean", (x,), (2, 3), axes=(2, 3)), x.mean(axis=(2, 3)))
        _assert_bits(
            _kernel("sigmoid", (x,), x.shape, clip=False), 1.0 / (1.0 + np.exp(-x))
        )


def test_copy_kinds_equal_their_expressions():
    x = np.resize(_values(), (4, 1, 5))
    _assert_bits(_kernel("copy", (x,), (4, 3, 5)), x * np.ones((4, 3, 5)))
    strided = np.resize(_values(), (6, 10))[:, ::2]
    _assert_bits(_kernel("reshape_copy", (strided,), (30,)), strided.reshape(30))
    key = (np.array([3, 0, 3]), slice(None))
    _assert_bits(_kernel("getitem_copy", (strided,), (3, 5), key=key), strided[key])
