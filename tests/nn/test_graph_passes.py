"""The pass pipeline over lowered inference graphs.

Inference lowers to the graph IR training steps use, and one pipeline
(``optimize_train``) schedules both.  Constants arrive reshaped from the
lowering, and ``coalesce_inplace`` does what bias, BatchNorm, activation
and residual epilogues did: every elementwise follower of a matmul runs
in place on its output buffer, in the eager order, with the same ufuncs.
"""

import numpy as np
import pytest

from repro.nn.autograd import Tensor
from repro.nn.graph.backward import TOp, TValue
from repro.nn.graph.executor import bind
from repro.nn.graph.lower import freeze_module, lower_frozen, quantize
from repro.nn.graph.passes import coalesce_inplace, eliminate_dead_train, optimize_train
from repro.nn.layers import BatchNorm, Conv2d, ReLU, ResidualBlock, Sequential
from repro.surrogate.model import build_smilesnet
from tests.nn.oracle import compile_eager

PIPELINE = (eliminate_dead_train, coalesce_inplace)


def _warm(model, sample_shape):
    warm = np.random.default_rng(1)
    for _ in range(3):
        model(Tensor(warm.normal(size=(8,) + sample_shape)))
    return model.eval()


def _conv_bn_relu():
    rng = np.random.default_rng(0)
    model = Sequential(Conv2d(2, 4, 3, rng, padding=1), BatchNorm(4), ReLU())
    return _warm(model, (2, 6, 6))


def _lower(model, shape):
    return lower_frozen(freeze_module(model), shape, np.float16, np.float32)


def _kernels(tg):
    return [op for op in tg.ops if not op.is_alias]


def _run(tg, x):
    bound = bind(tg)
    np.copyto(bound.view(tg.input_vids[0]), x.astype(np.float16))
    bound.run()
    return bound.view(tg.output_vids[0]).astype(np.float64)


def test_fold_constants_materializes_bias_broadcast():
    """Constants are reshaped by the lowering, so no op reads constants
    only: the conv bias arrives as one (1, oc, 1) constant."""
    tg = _lower(_conv_bn_relu(), (3, 2, 6, 6))
    for op in tg.ops:
        assert any(tg.values[v].kind != "const" for v in op.inputs)
    (mm_idx,) = [i for i, op in enumerate(tg.ops) if op.kind == "matmul"]
    bias_add = tg.ops[mm_idx + 1]
    assert bias_add.kind == "add"
    assert tg.values[bias_add.inputs[1]].data.shape == (1, 4, 1)


def test_fuse_bias_moves_const_add_into_epilogue():
    """The conv bias add runs in place on the matmul's output buffer."""
    tg = _lower(_conv_bn_relu(), (3, 2, 6, 6))
    optimize_train(tg)
    (mm_idx,) = [i for i, op in enumerate(tg.ops) if op.kind == "matmul"]
    mm, bias_add = tg.ops[mm_idx], tg.ops[mm_idx + 1]
    assert bias_add.inplace_on == 0
    assert tg.storage_root(bias_add.out) == mm.out


def test_fold_batchnorm_records_analytic_scale_shift():
    """BatchNorm lowers to a multiply and an add by its analytic scale and
    shift, folded in fp64 and quantized once."""
    model = _conv_bn_relu()
    tg = _lower(model, (3, 2, 6, 6))
    mul = next(op for op in tg.ops if op.kind == "mul")
    add = tg.ops[tg.ops.index(mul) + 1]
    bn = model.layers[1]
    scale64 = bn.gamma.data / np.sqrt(bn.running_var + bn.eps)
    shift64 = bn.beta.data - bn.running_mean * scale64
    np.testing.assert_array_equal(
        tg.values[mul.inputs[1]].data.reshape(-1), quantize(scale64, np.float16, np.float32)
    )
    np.testing.assert_array_equal(
        tg.values[add.inputs[1]].data.reshape(-1), quantize(shift64, np.float16, np.float32)
    )


def test_conv_bn_relu_collapses_to_one_op_with_ordered_epilogue():
    """Conv → BN → ReLU: after the matmul, bias, scale, shift and ReLU
    run in the eager order, each in place on the matmul's buffer."""
    tg = _lower(_conv_bn_relu(), (3, 2, 6, 6))
    optimize_train(tg)
    kernels = _kernels(tg)
    assert [op.kind for op in kernels] == [
        "pad2d", "take", "matmul", "add", "mul", "add", "relu"
    ]
    mm = kernels[2]
    assert all(tg.storage_root(op.out) == mm.out for op in kernels[3:])
    assert all(op.inplace_on == 0 for op in kernels[3:])


def test_fuse_residual_absorbs_skip_add():
    """A residual tail — the skip add, then the block ReLU — runs in place
    on the body's last matmul buffer."""
    rng = np.random.default_rng(2)
    model = _warm(
        ResidualBlock(Sequential(Conv2d(3, 3, 3, rng, padding=1), BatchNorm(3))),
        (3, 6, 6),
    )
    tg = _lower(model, (4, 3, 6, 6))
    optimize_train(tg)
    kernels = _kernels(tg)
    assert [op.kind for op in kernels[-2:]] == ["add", "relu"]
    skip_add = kernels[-2]
    assert tg.values[skip_add.inputs[1]].kind == "input"  # the identity skip
    (mm,) = [op for op in kernels if op.kind == "matmul"]
    assert all(tg.storage_root(op.out) == mm.out for op in kernels[-2:])


def test_eliminate_dead_drops_unreachable_nodes():
    tg = _lower(_conv_bn_relu(), (3, 2, 6, 6))
    x = tg.input_vids[0]
    dead = len(tg.values)
    tg.values.append(TValue(dead, tg.values[x].shape, tg.dtype, "temp"))
    tg.ops.append(TOp("tanh", (x,), dead))
    n_ops = len(tg.ops)
    assert eliminate_dead_train(tg) == 1
    assert len(tg.ops) == n_ops - 1
    assert all(op.out != dead for op in tg.ops)


def test_smilesnet_pass_stats():
    model = build_smilesnet(seed=0, width=6)
    model.eval()
    tg = _lower(model, (4, 7, 24, 24))
    stats = optimize_train(tg)
    assert stats["eliminate_dead_train"] == 0  # the lowering emits no orphans
    # 6 conv + 1 dense bias adds, 5 BN scales and 5 BN shifts, 5 ReLUs
    # (3 inner, 2 block), 2 skip adds and the sigmoid, each in place on its
    # producer's buffer (an untrained BatchNorm's scale 1/sqrt(1 + eps)
    # rounds to 1.0 at fp16, and the multiply by it runs all the same)
    assert stats["coalesce_inplace"] == 25


@pytest.mark.parametrize("n_passes", range(len(PIPELINE) + 1))
def test_every_pass_prefix_preserves_bit_identity(n_passes):
    """Each pass is a pure rescheduling: any prefix of the pipeline must
    leave the numerics untouched."""
    model = _conv_bn_relu()
    x = np.random.default_rng(4).normal(size=(3, 2, 6, 6))
    tg = _lower(model, x.shape)
    for run_pass in PIPELINE[:n_passes]:
        run_pass(tg)
    np.testing.assert_array_equal(_run(tg, x), compile_eager(model, "fp16")(x))
