"""Bit-equivalence of compiled inference against the eager oracle.

The contract under test: for every supported layer type and for the full
surrogate network, the compiled forward pass (lowered to the shared graph
IR, scheduled, planned and bound like a training step) produces
**bit-identical** float64 output to the eager closure interpreter
(``tests/nn/oracle.py``) at the same precision and batch size.  (Equivalence across *different* batch
sizes is explicitly not claimed — BLAS accumulation order varies with
batch, for the eager path too.)
"""

import numpy as np
import pytest

from repro.nn.autograd import Tensor
from repro.nn.graph.executor import bind
from repro.nn.graph.lower import freeze_module, lower_frozen
from repro.nn.graph.passes import optimize_train
from repro.nn.inference import compile_model
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
from repro.surrogate.model import build_smilesnet
from tests.nn.oracle import compile_eager

PRECISIONS = ["fp16", "fp32", "fp64"]


def _warm_batchnorm(model, sample_shape, seed=9):
    """Run training-mode passes so BatchNorm has non-trivial stats."""
    rng = np.random.default_rng(seed)
    for _ in range(3):
        model(Tensor(rng.normal(size=(8,) + sample_shape)))
    model.eval()
    return model


def _assert_engines_identical(model, x, precision):
    model.eval()
    eager = compile_eager(model, precision)(x)
    graph = compile_model(model, precision)(x)
    np.testing.assert_array_equal(graph, eager)


def _rng():
    return np.random.default_rng(0)


# one entry per layer type the tracer supports: (model factory, sample shape)
LAYER_ZOO = {
    "conv_padded": (lambda: Sequential(Conv2d(3, 5, 3, _rng(), padding=1)), (3, 8, 8)),
    "conv_valid": (lambda: Sequential(Conv2d(3, 4, 3, _rng())), (3, 8, 8)),
    "conv_strided_odd": (lambda: Sequential(Conv2d(3, 4, 3, _rng(), stride=2)), (3, 9, 7)),
    "conv_1x1": (lambda: Sequential(Conv2d(4, 6, 1, _rng())), (4, 5, 5)),
    "batchnorm_4d": (
        lambda: _warm_batchnorm(Sequential(Conv2d(2, 4, 3, _rng()), BatchNorm(4)), (2, 6, 6)),
        (2, 6, 6),
    ),
    "batchnorm_1d": (
        lambda: _warm_batchnorm(Sequential(Flatten(), Dense(12, 6, _rng()), BatchNorm(6)), (3, 2, 2)),
        (3, 2, 2),
    ),
    "dense_tanh": (lambda: Sequential(Flatten(), Dense(18, 5, _rng()), Tanh()), (2, 3, 3)),
    "dense_sigmoid": (lambda: Sequential(Flatten(), Dense(8, 1, _rng()), Sigmoid()), (2, 2, 2)),
    "pointwise_dense": (lambda: Sequential(PointwiseDense(4, 6, _rng()), ReLU()), (5, 4)),
    "leaky_relu": (lambda: Sequential(Flatten(), Dense(8, 8, _rng()), LeakyReLU(0.1)), (2, 2, 2)),
    "maxpool": (lambda: Sequential(Conv2d(2, 3, 3, _rng(), padding=1), MaxPool2d(2)), (2, 8, 8)),
    "global_avg_pool": (lambda: Sequential(Conv2d(2, 3, 3, _rng()), GlobalAvgPool2d()), (2, 6, 6)),
    "residual_identity": (
        lambda: _warm_batchnorm(
            ResidualBlock(Sequential(Conv2d(3, 3, 3, _rng(), padding=1), BatchNorm(3))),
            (3, 6, 6),
        ),
        (3, 6, 6),
    ),
    "residual_projected": (
        lambda: _warm_batchnorm(
            ResidualBlock(
                Sequential(Conv2d(3, 6, 3, _rng(), padding=1), BatchNorm(6)),
                projection=Conv2d(3, 6, 1, _rng()),
            ),
            (3, 6, 6),
        ),
        (3, 6, 6),
    ),
}


@pytest.mark.parametrize("precision", PRECISIONS)
@pytest.mark.parametrize("name", sorted(LAYER_ZOO))
def test_layer_bit_identical_to_eager(name, precision):
    factory, sample_shape = LAYER_ZOO[name]
    x = np.random.default_rng(3).normal(size=(4,) + sample_shape)
    _assert_engines_identical(factory(), x, precision)


@pytest.mark.parametrize("precision", PRECISIONS)
def test_sigmoid_saturates_like_the_interpreter(precision):
    """Pre-activations far below -500: the interpreter's sigmoid has no
    clip, so the compiled one must not clip either."""
    factory, sample_shape = LAYER_ZOO["dense_sigmoid"]
    x = 5000 * np.random.default_rng(3).normal(size=(4,) + sample_shape)
    with np.errstate(over="ignore"):  # exp(-x) overflows to inf: sigmoid 0
        _assert_engines_identical(factory(), x, precision)


@pytest.fixture(scope="module")
def surrogate_net():
    model = build_smilesnet(seed=5, width=6)
    return _warm_batchnorm(model, (7, 24, 24))


@pytest.mark.parametrize("precision", PRECISIONS)
@pytest.mark.parametrize("batch", [1, 5, 64])
def test_full_surrogate_bit_identical(surrogate_net, precision, batch):
    x = np.random.default_rng(4).normal(size=(batch, 7, 24, 24))
    _assert_engines_identical(surrogate_net, x, precision)


def test_repeated_runs_reuse_arena_correctly(surrogate_net):
    """A second batch through the same plan must not see stale arena data."""
    compiled = compile_model(surrogate_net, "fp16")
    eager = compile_eager(surrogate_net, "fp16")
    rng = np.random.default_rng(6)
    x1, x2 = rng.normal(size=(2, 8, 7, 24, 24))
    out1 = compiled(x1)
    out2 = compiled(x2)
    np.testing.assert_array_equal(out1, eager(x1))
    np.testing.assert_array_equal(out2, eager(x2))
    assert len(compiled._plans) == 1  # one bound plan serves both calls


def _lowered(model, shape, precision="fp16"):
    store, compute = {"fp16": (np.float16, np.float32)}[precision]
    return lower_frozen(freeze_module(model), shape, store, compute)


def test_unoptimized_trace_also_bit_identical(surrogate_net):
    """The lowered graph with no pass run — no in-place coalescing, no
    identity aliases — must execute identically too."""
    x = np.random.default_rng(7).normal(size=(3, 7, 24, 24))
    bound = bind(_lowered(surrogate_net, x.shape))
    assert bound.tg.n_inplace == 0
    np.copyto(bound.view(bound.tg.input_vids[0]), x.astype(np.float16))
    bound.run()
    out = bound.view(bound.tg.output_vids[0]).astype(np.float64)
    np.testing.assert_array_equal(out, compile_eager(surrogate_net, "fp16")(x))


def test_coalescing_halves_the_activation_buffers(surrogate_net):
    """In-place coalescing folds whole conv-BN-ReLU chains onto one buffer."""
    shape = (16, 7, 24, 24)
    raw = bind(_lowered(surrogate_net, shape))
    tg = _lowered(surrogate_net, shape)
    optimize_train(tg)
    coalesced = bind(tg)

    def n_roots(bound):
        return sum(1 for key in bound.plan.slots if key[0] == "value")

    assert tg.n_inplace > 0
    assert n_roots(coalesced) < n_roots(raw) / 2


def test_plan_info_accounts_every_conv(surrogate_net):
    compiled = compile_model(surrogate_net, "fp16")
    bound = compiled._bound((16, 7, 24, 24))
    info = bound.info()
    conv_gemms = [
        op for op in bound.tg.ops
        if op.kind == "matmul" and len(bound.tg.values[op.inputs[1]].shape) == 3
    ]
    assert len(conv_gemms) == 6  # 6 convs, each one broadcast (b, ckk, L) GEMM
    assert info["arena_elems"] < info["naive_elems"]
    assert info["arena_bytes"] == info["arena_elems"] * 4  # fp32 compute


def test_graph_output_dtype_and_shape(surrogate_net):
    out = compile_model(surrogate_net, "fp16")(np.zeros((3, 7, 24, 24)))
    assert out.dtype == np.float64
    assert out.shape == (3, 1)


def test_unknown_engine_rejected(surrogate_net):
    """There is one engine: the selector is gone, not defaulted."""
    with pytest.raises(TypeError):
        compile_model(surrogate_net, "fp16", engine="jit")
    with pytest.raises(TypeError):
        compile_model(surrogate_net, "fp16", engine="graph")


def test_graph_engine_rejects_unknown_module_at_compile_time():
    from repro.nn.layers import Module

    class Weird(Module):
        def forward(self, x):
            return x

    with pytest.raises(TypeError):
        compile_model(Sequential(Weird()))
