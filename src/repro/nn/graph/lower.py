"""Inference front end: freeze a module tree, lower it to the graph IR.

The TensorRT parse step (§6.1.1), in two parts:

:func:`freeze_module`
    checks that the lowering knows every submodule of a
    :class:`~repro.nn.layers.Module` tree and takes a private copy of it,
    so later mutation of the live model cannot drift the compiled engine.

:func:`lower_frozen`
    lowers the copy, at one concrete batched input shape, to the
    :class:`~repro.nn.graph.backward.TrainGraph` that training steps use
    too — a graph with no parameters and no backward.  It dispatches on
    the :mod:`repro.nn.layers` classes themselves and rounds each weight
    through the storage precision as it emits it (BatchNorm folded to a
    scale/shift in fp64 first).  Ops are emitted in the closure
    interpreter's evaluation order, one per NumPy expression it evaluates,
    with constants reshaped here; a conv is the op sequence
    ``Conv2d.forward`` records (``pad2d``, a reshape alias, the window
    ``take``, ``matmul``, the bias ``add``, a reshape alias).  The shared
    passes, planner and binder then compile it like any other graph, so
    the arithmetic stays the interpreter's, bit for bit.
"""

from __future__ import annotations

import copy

import numpy as np

from repro.nn.graph.backward import TOp, TrainGraph, TValue
from repro.nn.im2col import conv_out_hw
from repro.nn.layers import (
    BatchNorm,
    Conv2d,
    Dense,
    Flatten,
    GlobalAvgPool2d,
    LeakyReLU,
    MaxPool2d,
    Module,
    PointwiseDense,
    ReLU,
    ResidualBlock,
    Sequential,
    Sigmoid,
    Tanh,
)

__all__ = ["freeze_module", "lower_frozen", "quantize", "resolve_precision"]


def resolve_precision(precision: str) -> tuple[np.dtype, np.dtype]:
    """Map a precision name to (storage, compute) dtypes."""
    if precision == "fp16":
        return np.float16, np.float32
    if precision == "fp32":
        return np.float32, np.float32
    if precision == "fp64":
        return np.float64, np.float64
    raise ValueError(f"precision must be 'fp16', 'fp32' or 'fp64', got {precision!r}")


def quantize(arr: np.ndarray, store, compute) -> np.ndarray:
    """Round-trip an array through the storage precision."""
    return np.asarray(arr).astype(store).astype(compute)


def freeze_module(model: Module) -> Module:
    """A private copy of ``model`` for :func:`lower_frozen`, so later
    mutation of the live model cannot drift a compiled engine.

    Raises ``TypeError`` for a module type the lowering does not know, at
    compile time rather than at the first forward.
    """
    for m in model.modules():
        if not isinstance(m, (Sequential, ResidualBlock, Conv2d, Dense, PointwiseDense,
                              BatchNorm, ReLU, LeakyReLU, Tanh, Sigmoid, MaxPool2d,
                              GlobalAvgPool2d, Flatten)):
            raise TypeError(f"cannot compile module of type {type(m).__name__}")
    return copy.deepcopy(model)


# ------------------------------------------------------------------ lowering
class _Lowering:
    """The values and ops of one graph under construction."""

    def __init__(self, store, dtype: np.dtype) -> None:
        self.store = store
        self.dtype = dtype
        self.values: list[TValue] = []
        self.ops: list[TOp] = []

    def shape(self, vid: int) -> tuple[int, ...]:
        return self.values[vid].shape

    def value(self, shape, kind: str = "temp", **kw) -> int:
        vid = len(self.values)
        self.values.append(
            TValue(vid=vid, shape=tuple(int(d) for d in shape), dtype=self.dtype,
                   kind=kind, **kw)
        )
        return vid

    def const(self, data: np.ndarray) -> int:
        """A weight, rounded through the storage precision."""
        data = quantize(data, self.store, self.dtype)
        return self.value(data.shape, "const", data=data)

    def op(self, kind: str, inputs: tuple[int, ...], shape, **attrs) -> int:
        out = self.value(shape)
        self.ops.append(TOp(kind, inputs, out, attrs))
        return out

    def reshape(self, vid: int, shape) -> int:
        """A reshape alias: every lowered value is C-contiguous, so numpy
        reshapes it as a view (the binder asserts it)."""
        shape = tuple(int(d) for d in shape)
        out = self.value(shape, alias_of=vid, view=("reshape", shape))
        self.ops.append(TOp("alias", (vid,), out, {"shape": shape}))
        return out


def lower_frozen(frozen: Module, shape: tuple[int, ...], store, compute) -> TrainGraph:
    """Lower a frozen module tree applied to a batch of ``shape``, its
    weights rounded through ``store`` into ``compute``."""
    lowering = _Lowering(store, np.dtype(compute))
    x = lowering.value(shape, "input")
    out = _lower(lowering, frozen, x)
    return TrainGraph(
        values=lowering.values,
        ops=lowering.ops,
        input_vids=[x],
        param_vids={},
        grad_vids={},
        output_vids=[out],
        dtype=lowering.dtype,
    )


def _lower(g: _Lowering, layer: Module, x: int) -> int:
    """Emit the ops of ``layer`` applied to value ``x``; returns out vid."""
    shape = g.shape(x)
    b = shape[0]

    if isinstance(layer, Sequential):
        for item in layer.layers:
            x = _lower(g, item, x)
        return x

    if isinstance(layer, ResidualBlock):
        # interpreter order: projection, body, then relu(body + skip)
        skip = _lower(g, layer.projection, x) if layer.projection is not None else x
        body = _lower(g, layer.body, x)
        if g.shape(body) != g.shape(skip):
            raise ValueError(
                f"residual shape mismatch: body {g.shape(body)[1:]} "
                f"vs skip {g.shape(skip)[1:]}"
            )
        added = g.op("add", (body, skip), g.shape(body))
        return g.op("relu", (added,), g.shape(body))

    if isinstance(layer, Conv2d):
        if len(shape) != 4:
            raise ValueError(f"Conv2d expects (C, H, W) per sample, got {shape[1:]}")
        _, c, h, w = shape
        k, s, p = layer.kernel, layer.stride, layer.padding
        if p:
            x = g.op("pad2d", (x,), (b, c, h + 2 * p, w + 2 * p), pad=p)
        hp, wp = h + 2 * p, w + 2 * p
        oh, ow = conv_out_hw(k, s, hp, wp)
        oc = layer.weight.shape[0]
        flat = g.reshape(x, (b, c * hp * wp))
        cols = g.op("take", (flat,), (b, c * k * k, oh * ow), axis=1,
                    window=(k, s, (c, hp, wp)))
        mm = g.op("matmul", (g.const(layer.weight.data), cols), (b, oc, oh * ow))
        biased = g.op("add", (mm, g.const(layer.bias.data.reshape(1, -1, 1))), g.shape(mm))
        return g.reshape(biased, (b, oc, oh, ow))

    if isinstance(layer, (Dense, PointwiseDense)):
        out_shape = shape[:-1] + (layer.weight.shape[1],)
        mm = g.op("matmul", (x, g.const(layer.weight.data)), out_shape)
        return g.op("add", (mm, g.const(layer.bias.data)), out_shape)

    if isinstance(layer, BatchNorm):
        # the interpreter's fp64 folding, rounded once by ``g.const``
        scale = layer.gamma.data / np.sqrt(layer.running_var + layer.eps)
        shift = layer.beta.data - layer.running_mean * scale
        if len(shape) == 4:
            scale, shift = scale.reshape(1, -1, 1, 1), shift.reshape(1, -1, 1, 1)
        elif len(shape) != 2:
            raise ValueError(
                f"BatchNorm expects 1-D or 3-D per-sample input, got {shape[1:]}"
            )
        scaled = g.op("mul", (x, g.const(scale)), shape)
        return g.op("add", (scaled, g.const(shift)), shape)

    if isinstance(layer, ReLU):
        return g.op("relu", (x,), shape)
    if isinstance(layer, LeakyReLU):
        # the interpreter multiplies by the slope as a compute-dtype scalar
        return g.op("leaky", (x,), shape, slope=g.dtype.type(layer.slope))
    if isinstance(layer, Tanh):
        return g.op("tanh", (x,), shape)
    if isinstance(layer, Sigmoid):
        return g.op("sigmoid", (x,), shape, clip=False)  # the interpreter's has none

    if isinstance(layer, MaxPool2d):
        _, c, h, w = shape
        k = layer.kernel
        if h % k or w % k:
            raise ValueError(f"spatial dims ({h},{w}) not divisible by pool {k}")
        windows = g.reshape(x, (b, c, h // k, k, w // k, k))
        return g.op("max", (windows,), (b, c, h // k, w // k), axes=(3, 5), keepdims=False)

    if isinstance(layer, GlobalAvgPool2d):
        return g.op("mean", (x,), shape[:2], axes=(2, 3))

    if isinstance(layer, Flatten):
        return g.reshape(x, (b, int(np.prod(shape[1:]))))

    raise TypeError(f"cannot lower module of type {type(layer).__name__}")
