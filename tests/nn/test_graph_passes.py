"""Unit tests for the graph optimization passes."""

import numpy as np
import pytest

from repro.nn.autograd import Tensor
from repro.nn.graph import GraphExecutor, optimize, trace_module
from repro.nn.graph.ir import Graph, Node, quantize
from repro.nn.graph.passes import (
    default_passes,
    eliminate_dead,
    fold_batchnorm,
    fold_constants,
    fuse_activations,
    fuse_bias,
    fuse_residual,
)
from repro.nn.layers import BatchNorm, Conv2d, ReLU, ResidualBlock, Sequential
from repro.surrogate.model import build_smilesnet
from tests.nn.oracle import compile_eager


def _conv_bn_relu():
    rng = np.random.default_rng(0)
    model = Sequential(Conv2d(2, 4, 3, rng, padding=1), BatchNorm(4), ReLU())
    warm = np.random.default_rng(1)
    for _ in range(3):
        model(Tensor(warm.normal(size=(8, 2, 6, 6))))
    model.eval()
    return model


def test_fold_constants_materializes_bias_broadcast():
    model = _conv_bn_relu()
    g = trace_module(model, (2, 6, 6), "fp16")
    # traced: the (oc,) bias is reshaped to (oc, 1) by a const reshape node
    n_before = len(g.nodes)
    folded = fold_constants(g)
    assert folded >= 3  # conv bias + bn scale + bn shift broadcasts
    assert len(g.nodes) == n_before - folded
    for node in g.nodes:
        assert not (node.kind == "reshape" and not g.values[node.out].batched)


def test_fuse_bias_moves_const_add_into_epilogue():
    g = trace_module(_conv_bn_relu(), (2, 6, 6), "fp16")
    fold_constants(g)
    assert fuse_bias(g) == 1
    (mm,) = [n for n in g.nodes if n.kind == "matmul"]
    assert mm.epilogue[0].fn == "add"
    bias = g.const_array(mm.epilogue[0].operand)
    assert bias.shape == (4, 1)


def test_fold_batchnorm_records_analytic_scale_shift():
    model = _conv_bn_relu()
    g = trace_module(model, (2, 6, 6), "fp16")
    fold_constants(g)
    fuse_bias(g)
    assert fold_batchnorm(g) == 1
    (mm,) = [n for n in g.nodes if n.kind == "matmul"]
    scale_vid, shift_vid = mm.attrs["bn"]
    bn = model.layers[1]
    scale64 = bn.gamma.data / np.sqrt(bn.running_var + bn.eps)
    shift64 = bn.beta.data - bn.running_mean * scale64
    np.testing.assert_array_equal(
        g.const_array(scale_vid).reshape(-1),
        quantize(scale64, np.float16, np.float32),
    )
    np.testing.assert_array_equal(
        g.const_array(shift_vid).reshape(-1),
        quantize(shift64, np.float16, np.float32),
    )


def test_conv_bn_relu_collapses_to_one_op_with_ordered_epilogue():
    g, _ = optimize(trace_module(_conv_bn_relu(), (2, 6, 6), "fp16"))
    compute = [n for n in g.nodes if n.kind != "reshape"]
    assert [n.kind for n in compute] == ["gather", "matmul"]
    (mm,) = [n for n in compute if n.kind == "matmul"]
    # exact eager order: +bias, *bn_scale, +bn_shift, relu
    assert [s.fn for s in mm.epilogue] == ["add", "mul", "add", "max0"]


def test_fuse_residual_absorbs_skip_add():
    rng = np.random.default_rng(2)
    model = ResidualBlock(
        Sequential(Conv2d(3, 3, 3, rng, padding=1), BatchNorm(3)),
    )
    warm = np.random.default_rng(3)
    for _ in range(3):
        model(Tensor(warm.normal(size=(4, 3, 6, 6))))
    model.eval()
    g = trace_module(model, (3, 6, 6), "fp16")
    fold_constants(g)
    fuse_bias(g)
    fold_batchnorm(g)
    fuse_activations(g)
    assert fuse_residual(g) == 1
    (mm,) = [n for n in g.nodes if n.kind == "matmul"]
    # tail of the epilogue: skip add (batched operand) then the block ReLU
    assert [s.fn for s in mm.epilogue[-2:]] == ["add", "max0"]
    assert g.values[mm.epilogue[-2].operand].batched


def test_eliminate_dead_drops_unreachable_nodes():
    g = Graph(store=np.float32, compute=np.float32)
    g.input_vid = g.new_value((4,), name="input")
    live = g.new_value((4,), name="live")
    g.nodes.append(Node("ewise", (g.input_vid,), live, {"fn": "max0"}))
    dead = g.new_value((4,), name="dead")
    g.nodes.append(Node("ewise", (g.input_vid,), dead, {"fn": "tanh"}))
    g.output_vid = live
    assert eliminate_dead(g) == 1
    assert [n.out for n in g.nodes] == [live]
    assert dead not in g.values


def test_smilesnet_pass_stats():
    model = build_smilesnet(seed=0, width=6)
    model.eval()
    g = trace_module(model, (7, 24, 24), "fp16")
    _, stats = optimize(g)
    assert stats["fuse_bias"] == 7  # 6 convs + 1 dense
    assert stats["fold_batchnorm"] == 5  # one per BatchNorm layer
    assert stats["fuse_residual"] == 2  # one per ResidualBlock
    assert stats["fuse_activations"] == 6  # 3 inner ReLU + 2 block ReLU + sigmoid
    assert stats["eliminate_dead"] == 0  # fusion leaves no orphans


@pytest.mark.parametrize("n_passes", range(len(default_passes()) + 1))
def test_every_pass_prefix_preserves_bit_identity(n_passes):
    """Each pass is a pure rescheduling: any prefix of the pipeline must
    leave the numerics untouched."""
    model = _conv_bn_relu()
    x = np.random.default_rng(4).normal(size=(3, 2, 6, 6))
    eager = compile_eager(model, "fp16")(x)
    g = trace_module(model, (2, 6, 6), "fp16")
    optimize(g, default_passes()[:n_passes])
    xq = x.astype(np.float16).astype(np.float32)
    out = GraphExecutor(g).run(xq).astype(np.float64)
    np.testing.assert_array_equal(out, eager)
