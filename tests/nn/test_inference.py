"""Tests for compiled (FP16) inference."""

import numpy as np
import pytest

from repro.nn.autograd import Tensor, no_grad
from repro.nn.inference import compile_model
from repro.nn.layers import (
    BatchNorm,
    Conv2d,
    Dense,
    Flatten,
    GlobalAvgPool2d,
    LeakyReLU,
    MaxPool2d,
    ReLU,
    ResidualBlock,
    Sequential,
    Sigmoid,
    Tanh,
)


def _model():
    rng = np.random.default_rng(0)
    return Sequential(
        Conv2d(2, 4, 3, rng, padding=1),
        BatchNorm(4),
        ReLU(),
        ResidualBlock(
            Sequential(Conv2d(4, 4, 3, rng, padding=1), BatchNorm(4)),
        ),
        MaxPool2d(2),
        GlobalAvgPool2d(),
        Dense(4, 3, rng),
        Tanh(),
        Dense(3, 1, rng),
        Sigmoid(),
    )


@pytest.fixture(scope="module")
def trained_model():
    model = _model()
    rng = np.random.default_rng(1)
    # run a few training-mode passes so BatchNorm has running stats
    for _ in range(5):
        model(Tensor(rng.normal(size=(16, 2, 8, 8))))
    model.eval()
    return model


def test_fp32_matches_reference(trained_model):
    rng = np.random.default_rng(2)
    x = rng.normal(size=(4, 2, 8, 8))
    with no_grad():
        ref = trained_model(Tensor(x)).data
    out = compile_model(trained_model, "fp32")(x)
    np.testing.assert_allclose(out, ref, rtol=1e-5, atol=1e-6)


def test_fp16_matches_to_half_precision(trained_model):
    rng = np.random.default_rng(3)
    x = rng.normal(size=(4, 2, 8, 8))
    with no_grad():
        ref = trained_model(Tensor(x)).data
    out = compile_model(trained_model, "fp16")(x)
    np.testing.assert_allclose(out, ref, atol=5e-2)
    assert not np.allclose(out, ref, atol=1e-10)  # genuinely lower precision


def test_output_dtype_is_float64(trained_model):
    out = compile_model(trained_model, "fp16")(np.zeros((1, 2, 8, 8)))
    assert out.dtype == np.float64


def test_flatten_and_leaky_compile():
    rng = np.random.default_rng(4)
    model = Sequential(Flatten(), Dense(8, 4, rng), LeakyReLU(0.1))
    model.eval()
    x = rng.normal(size=(3, 2, 2, 2))
    with no_grad():
        ref = model(Tensor(x)).data
    np.testing.assert_allclose(compile_model(model, "fp32")(x), ref, rtol=1e-5)


def test_unknown_precision_rejected(trained_model):
    with pytest.raises(ValueError):
        compile_model(trained_model, "int8")


def test_uncompilable_module_rejected():
    class Weird:
        pass

    from repro.nn.layers import Module

    class WeirdModule(Module):
        def forward(self, x):
            return x

    with pytest.raises(TypeError):
        compile_model(Sequential(WeirdModule()))


def test_compiled_is_faster_than_graph(trained_model):
    """The point of compilation: beat graph construction on throughput."""
    import time

    x = np.random.default_rng(5).normal(size=(64, 2, 8, 8))
    compiled = compile_model(trained_model, "fp16")
    compiled(x)  # warm index caches

    t0 = time.perf_counter()
    for _ in range(3):
        with no_grad():
            trained_model(Tensor(x))
    graph_time = time.perf_counter() - t0

    t0 = time.perf_counter()
    for _ in range(3):
        compiled(x)
    compiled_time = time.perf_counter() - t0
    assert compiled_time < graph_time


def test_first_call_peaks_at_its_arena():
    """Binding a batch-64 plan of the width-8 surrogate allocates its
    arena and little else: no bind-time probe, no per-call copy of the
    input (tracemalloc)."""
    import tracemalloc

    from repro.surrogate.model import build_smilesnet

    compiled = compile_model(build_smilesnet(seed=0, width=8).eval(), "fp16")
    x = np.random.default_rng(6).random((64, 7, 24, 24)).astype(np.float32)
    tracemalloc.start()
    try:
        compiled(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    arena = compiled._bound(x.shape).plan.total_bytes
    assert peak <= arena + 2 * 2**20
