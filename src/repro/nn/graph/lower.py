"""Inference front end: freeze a module tree, lower it to the graph IR.

The TensorRT parse step (§6.1.1), in two parts:

:func:`freeze_module`
    snapshots a :class:`~repro.nn.layers.Module` tree into an immutable
    layer description with *quantized* weights (the store→compute
    round-trip of the reduced precision, with BatchNorm folded to a
    scale/shift in fp64 first), so later mutation of the live model
    cannot drift the compiled engine.

:func:`lower_frozen`
    lowers the frozen tree, at one concrete batched input shape, to the
    :class:`~repro.nn.graph.backward.TrainGraph` that training steps use
    too — a graph with no parameters and no backward.  Ops are emitted
    in the closure interpreter's evaluation order, one per NumPy
    expression it evaluates, with constants reshaped here; a conv is the
    op sequence ``Conv2d.forward`` records (``pad2d``, a reshape alias,
    the window ``take``, ``matmul``, the bias ``add``, a reshape alias).  The
    shared passes, planner and binder then compile it like any other
    graph, so the arithmetic stays the interpreter's, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

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


# ------------------------------------------------------------- frozen tree
@dataclass(frozen=True)
class FrozenConv:
    weight: np.ndarray  # (out_c, c*k*k), quantized
    bias: np.ndarray  # (out_c,), quantized
    kernel: int
    stride: int
    padding: int


@dataclass(frozen=True)
class FrozenDense:
    weight: np.ndarray  # (in, out), quantized
    bias: np.ndarray  # (out,), quantized


@dataclass(frozen=True)
class FrozenBatchNorm:
    scale: np.ndarray  # gamma / sqrt(var + eps), fp64 math then quantized
    shift: np.ndarray  # beta - mean * scale


@dataclass(frozen=True)
class FrozenActivation:
    kind: str  # 'relu' | 'leaky' | 'tanh' | 'sigmoid'
    slope: float = 0.0


@dataclass(frozen=True)
class FrozenMaxPool:
    kernel: int


@dataclass(frozen=True)
class FrozenGlobalAvgPool:
    pass


@dataclass(frozen=True)
class FrozenFlatten:
    pass


@dataclass(frozen=True)
class FrozenSequential:
    items: tuple


@dataclass(frozen=True)
class FrozenResidual:
    body: "FrozenLayer"
    projection: Union["FrozenLayer", None]


FrozenLayer = Union[
    FrozenConv,
    FrozenDense,
    FrozenBatchNorm,
    FrozenActivation,
    FrozenMaxPool,
    FrozenGlobalAvgPool,
    FrozenFlatten,
    FrozenSequential,
    FrozenResidual,
]


def freeze_module(module: Module, store, compute) -> FrozenLayer:
    """Snapshot a module tree with weights quantized for inference.

    Raises ``TypeError`` for module types the graph engine cannot lower —
    the same contract as the eager compiler.
    """
    if isinstance(module, Sequential):
        return FrozenSequential(
            tuple(freeze_module(m, store, compute) for m in module.layers)
        )
    if isinstance(module, ResidualBlock):
        proj = (
            freeze_module(module.projection, store, compute)
            if module.projection is not None
            else None
        )
        return FrozenResidual(freeze_module(module.body, store, compute), proj)
    if isinstance(module, Conv2d):
        return FrozenConv(
            quantize(module.weight.data, store, compute),
            quantize(module.bias.data, store, compute),
            module.kernel,
            module.stride,
            module.padding,
        )
    if isinstance(module, (Dense, PointwiseDense)):
        return FrozenDense(
            quantize(module.weight.data, store, compute),
            quantize(module.bias.data, store, compute),
        )
    if isinstance(module, BatchNorm):
        # identical fp64 folding to the eager path, then quantize once
        scale64 = module.gamma.data / np.sqrt(module.running_var + module.eps)
        shift64 = module.beta.data - module.running_mean * scale64
        return FrozenBatchNorm(
            quantize(scale64, store, compute), quantize(shift64, store, compute)
        )
    if isinstance(module, ReLU):
        return FrozenActivation("relu")
    if isinstance(module, LeakyReLU):
        return FrozenActivation("leaky", slope=float(module.slope))
    if isinstance(module, Tanh):
        return FrozenActivation("tanh")
    if isinstance(module, Sigmoid):
        return FrozenActivation("sigmoid")
    if isinstance(module, MaxPool2d):
        return FrozenMaxPool(module.kernel)
    if isinstance(module, GlobalAvgPool2d):
        return FrozenGlobalAvgPool()
    if isinstance(module, Flatten):
        return FrozenFlatten()
    raise TypeError(f"cannot compile module of type {type(module).__name__}")




# ------------------------------------------------------------------ lowering
class _Lowering:
    """The values and ops of one graph under construction."""

    def __init__(self, dtype: np.dtype) -> None:
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


def lower_frozen(
    frozen: FrozenLayer, shape: tuple[int, ...], compute
) -> TrainGraph:
    """Lower a frozen layer tree applied to a batch of ``shape``."""
    lowering = _Lowering(np.dtype(compute))
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


def _lower(g: _Lowering, layer: FrozenLayer, x: int) -> int:
    """Emit the ops of ``layer`` applied to value ``x``; returns out vid."""
    shape = g.shape(x)
    b = shape[0]

    if isinstance(layer, FrozenSequential):
        for item in layer.items:
            x = _lower(g, item, x)
        return x

    if isinstance(layer, FrozenResidual):
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

    if isinstance(layer, FrozenConv):
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
        mm = g.op("matmul", (g.const(layer.weight), cols), (b, oc, oh * ow))
        biased = g.op("add", (mm, g.const(layer.bias.reshape(1, -1, 1))), g.shape(mm))
        return g.reshape(biased, (b, oc, oh, ow))

    if isinstance(layer, FrozenDense):
        out_shape = shape[:-1] + (layer.weight.shape[1],)
        mm = g.op("matmul", (x, g.const(layer.weight)), out_shape)
        return g.op("add", (mm, g.const(layer.bias)), out_shape)

    if isinstance(layer, FrozenBatchNorm):
        if len(shape) == 4:
            scale, shift = layer.scale.reshape(1, -1, 1, 1), layer.shift.reshape(1, -1, 1, 1)
        elif len(shape) == 2:
            scale, shift = layer.scale, layer.shift
        else:
            raise ValueError(
                f"BatchNorm expects 1-D or 3-D per-sample input, got {shape[1:]}"
            )
        scaled = g.op("mul", (x, g.const(scale)), shape)
        return g.op("add", (scaled, g.const(shift)), shape)

    if isinstance(layer, FrozenActivation):
        if layer.kind == "leaky":
            # the interpreter multiplies by the slope as a compute-dtype scalar
            return g.op("leaky", (x,), shape, slope=g.dtype.type(layer.slope))
        if layer.kind == "sigmoid":
            return g.op("sigmoid", (x,), shape, clip=False)  # the interpreter's has none
        return g.op(layer.kind, (x,), shape)  # relu | tanh

    if isinstance(layer, FrozenMaxPool):
        _, c, h, w = shape
        k = layer.kernel
        if h % k or w % k:
            raise ValueError(f"spatial dims ({h},{w}) not divisible by pool {k}")
        windows = g.reshape(x, (b, c, h // k, k, w // k, k))
        return g.op("max", (windows,), (b, c, h // k, w // k), axes=(3, 5), keepdims=False)

    if isinstance(layer, FrozenGlobalAvgPool):
        return g.op("mean", (x,), shape[:2], axes=(2, 3))

    if isinstance(layer, FrozenFlatten):
        return g.reshape(x, (b, int(np.prod(shape[1:]))))

    raise TypeError(f"cannot lower frozen layer of type {type(layer).__name__}")
