"""Exactness of the compiled forward's kernels against the expressions
they replaced: the conv gather (a window copy for ``np.take`` over
``conv_index_plan``), 2×2 pooling (elementwise maxima for ``np.amax``)
and the input's FP16 quantization (an in-place rounding for the
``astype(float16).astype(float32)`` round trip)."""

import itertools

import numpy as np
import pytest

from repro.nn import autograd as ag
from repro.nn.autograd import Tensor, reduce_max
from repro.nn.graph.train import TrainStep
from repro.nn.im2col import conv_index_plan, conv_out_hw, conv_windows
from repro.nn.inference import _round_to_fp16, compile_model
from repro.nn.layers import Conv2d, Flatten, MaxPool2d, Parameter, Sequential
from repro.nn.optim import Adam
from tests.nn import oracle
from tests.nn.oracle import compile_eager

DTYPES = [np.float16, np.float32, np.float64]
GEOMETRIES = list(itertools.product((1, 3), (1, 2), (0, 1), (1, 7)))  # k, stride, pad, C


def _bits(a: np.ndarray) -> np.ndarray:
    return a.view({2: np.uint16, 4: np.uint32, 8: np.uint64}[a.itemsize])


# ------------------------------------------------------------ conv gather
@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("kernel,stride,pad,c", GEOMETRIES)
def test_window_copy_equals_take_over_the_index_plan(kernel, stride, pad, c, dtype):
    x = np.random.default_rng(c).normal(size=(3, c, 9, 7)).astype(dtype)
    x = np.pad(x, [(0, 0), (0, 0), (pad, pad), (pad, pad)])
    _, _, h, w = x.shape
    oh, ow = conv_out_hw(kernel, stride, h, w)
    ref = np.take(x.reshape(3, -1), conv_index_plan(kernel, stride, c, h, w), axis=1)
    cols = np.empty((3, c * kernel * kernel, oh * ow), dtype=dtype)
    np.copyto(cols.reshape(3, c, kernel, kernel, oh, ow), conv_windows(x, kernel, stride))
    np.testing.assert_array_equal(_bits(cols), _bits(ref))


@pytest.mark.parametrize("precision", ["fp16", "fp32", "fp64"])
@pytest.mark.parametrize("kernel,stride,pad,c", GEOMETRIES)
def test_compiled_conv_equals_the_take_interpreter(kernel, stride, pad, c, precision):
    conv = Conv2d(c, 3, kernel, np.random.default_rng(1), stride=stride, padding=pad)
    x = np.random.default_rng(2).normal(size=(4, c, 9, 7))
    out = compile_model(conv, precision)(x)
    np.testing.assert_array_equal(out, compile_eager(conv, precision)(x))


@pytest.mark.parametrize("kernel,stride,pad,c", GEOMETRIES)
def test_eager_conv_forward_and_gradients_equal_the_take_conv(
    kernel, stride, pad, c, monkeypatch
):
    conv = Conv2d(c, 3, kernel, np.random.default_rng(1), stride=stride, padding=pad)
    x = np.random.default_rng(2).normal(size=(2, c, 9, 7))

    def run():
        xt = Tensor(x, requires_grad=True)
        conv.zero_grad()
        out = conv(xt)
        ag.tensor_sum(out * Tensor(np.cos(out.data))).backward()
        return out.data, xt.grad.data, conv.weight.grad.data

    windowed = run()
    with monkeypatch.context() as mp:
        oracle.install_gather(mp)
        taken = run()
    for a, b in zip(windowed, taken):
        np.testing.assert_array_equal(_bits(a), _bits(b))


# ---------------------------------------------------------------- pooling
_SPECIALS = [-0.0, 0.0, np.nan, 1.0, -1.0]


@pytest.mark.parametrize("dtype", DTYPES)
def test_corner_maxima_equal_amax_on_every_special_window(dtype):
    """All 625 windows over {−0.0, +0.0, NaN, ±1}: every value, including
    the sign of a zero tie and NaN, in every window position."""
    windows = np.array(list(itertools.product(_SPECIALS, repeat=4)), dtype=dtype)
    a = windows.reshape(1, 625, 1, 2, 1, 2)  # (b, c, oh, ky, ow, kx)
    ref = np.amax(a, axis=(3, 5), keepdims=True)
    out = np.empty_like(ref)
    reduce_max(a, (3, 5))(out)
    np.testing.assert_array_equal(_bits(out), _bits(ref))


def test_other_reductions_stay_amax():
    a = np.random.default_rng(0).normal(size=(4, 3, 5))
    out = np.empty((4, 1, 5))
    reduce_max(a, (1,))(out)
    np.testing.assert_array_equal(out, np.amax(a, axis=1, keepdims=True))


def _tie_steps():
    """Three steps of ``pool(x * p)``, ``p`` per channel, on windows
    full of ties (signed zeros included): the first traces the step, the
    later ones replay the bound ``max``/``max_mask`` kernels."""
    windows = np.array(list(itertools.product([-0.0, 0.0, 1.0, 0.5], repeat=4)))
    x = windows.reshape(2, 4, 4, 8, 2, 2).transpose(0, 1, 2, 4, 3, 5).reshape(2, 4, 8, 16)
    p = Parameter(np.linspace(0.5, 2.0, 4).reshape(1, 4, 1, 1))
    pool, g = MaxPool2d(2), np.cos(np.arange(256.0)).reshape(2, 4, 4, 8)
    step = TrainStep(
        lambda xb, gb: ag.tensor_sum(pool(xb * p) * gb), Adam([p], lr=1e-3)
    )
    record = []
    for _ in range(3):
        record.append(step(x, g))
        record.extend(grad.copy() for grad in step._last_grads)
    return record, p.data.copy()


def test_max_mask_tie_splitting_unchanged(monkeypatch):
    pooled, p_pooled = _tie_steps()
    with monkeypatch.context() as mp:
        oracle.install_gather(mp)
        amaxed, p_amaxed = _tie_steps()
    assert pooled[0::2] == amaxed[0::2]  # losses
    for a, b in zip(pooled[1::2] + [p_pooled], amaxed[1::2] + [p_amaxed]):
        np.testing.assert_array_equal(_bits(a), _bits(b))


# ----------------------------------------------------------- quantization
def _round_trip(x: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        return x.astype(np.float16).astype(np.float32)


def _rounded(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    assert _round_to_fp16(x, out, np.empty(x.shape, dtype=np.uint32))
    return out


def _fp16_values() -> np.ndarray:
    """Every finite fp16 value, as float32."""
    h = np.arange(1 << 16, dtype=np.uint32).astype(np.uint16).view(np.float16)
    return h[np.isfinite(h)].astype(np.float32)


def test_quantizer_keeps_every_fp16_value():
    x = _fp16_values()
    np.testing.assert_array_equal(_bits(_rounded(x)), _bits(x))


def test_quantizer_rounds_every_midpoint_and_its_neighbours():
    """Each midpoint between adjacent fp16 values (a tie: to even) and
    the float32 values either side of it (no tie)."""
    v = np.unique(_fp16_values())  # sorted; the two zeros are one value
    v = v[np.abs(v) < 65504].astype(np.float64)
    mid = ((v[:-1] + v[1:]) / 2).astype(np.float32)  # exact in float32
    x = np.concatenate([mid, np.nextafter(mid, -np.inf), np.nextafter(mid, np.inf)])
    np.testing.assert_array_equal(_bits(_rounded(x)), _bits(_round_trip(x)))
    ties = _rounded(mid).astype(np.float16).view(np.uint16)
    assert np.all(ties & 1 == 0)  # ties went to the even neighbour


def test_quantizer_at_the_subnormal_boundary_zeros_and_the_top():
    tiny = np.float32(2.0**-14)
    edge = np.array([tiny, np.nextafter(tiny, 0), np.nextafter(tiny, 1),
                     tiny - 2.0**-25, tiny - 2.0**-26, 2.0**-25, 2.0**-26, 2.0**-24 * 1.5,
                     1e-45, 0.0, 65504.0, np.nextafter(np.float32(65504), 0)],
                    dtype=np.float32)
    x = np.concatenate([edge, -edge])
    out = _rounded(x)
    np.testing.assert_array_equal(_bits(out), _bits(_round_trip(x)))
    assert np.signbit(out[len(edge):]).all()  # −0.0 and tiny negatives keep their sign


@pytest.mark.parametrize(
    "value", [65504.5, 65520.0, 1e6, np.inf, -np.inf, np.nan], ids=str
)
def test_quantizer_declines_values_outside_fp16(value):
    x = np.array([1.0, value], dtype=np.float32)
    assert not _round_to_fp16(x, np.empty_like(x), np.empty(2, dtype=np.uint32))


def _identity_model():
    return compile_model(Sequential(Flatten()), "fp16")


@pytest.mark.parametrize("value", [65504.5, 65520.0, np.inf, -np.inf, np.nan], ids=str)
def test_compiled_input_falls_back_to_the_round_trip(value):
    x = np.array([[0.1, value, -3e-6]], dtype=np.float32)
    with np.errstate(over="ignore"):
        out = _identity_model()(x)
    np.testing.assert_array_equal(_bits(out), _bits(_round_trip(x).astype(np.float64)))


def test_float64_input_rounds_to_fp16_once():
    """Above the midpoint of 1 and 1 + 2**-10 by 2**-40: float32 would
    round it onto the midpoint, which then ties down to 1."""
    x = np.array([[1.0 + 2.0**-11 + 2.0**-40]])
    assert _identity_model()(x)[0, 0] == 1.0 + 2.0**-10
    assert _round_trip(x.astype(np.float32))[0, 0] == 1.0


def test_compiled_float32_input_equals_the_round_trip():
    x = np.random.default_rng(3).normal(scale=1e-3, size=(5, 40)).astype(np.float32)
    x[0, :4] = [0.0, -0.0, 2.0**-20, -(2.0**-20)]
    np.testing.assert_array_equal(
        _bits(_identity_model()(x)), _bits(_round_trip(x).astype(np.float64))
    )
