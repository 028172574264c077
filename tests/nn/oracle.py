"""Test-side reference for ``repro.nn``: the closure-per-layer inference
interpreter (:func:`_compile`, the parent's body verbatim), the per-call
autograd training step that shipped as ``engine="eager"`` up to PR 16,
the record-then-lower training-graph builder (:func:`record_then_lower`,
verbatim) that ran until lowering moved into the tape's recorder, and the
backward walk (:func:`grad`, verbatim) that kept every gradient and node
until it returned, the conv gather and max reduction as they ran
before window copies and elementwise pooling (:func:`install_gather`), and
the eager forward expressions of the primitives that now run one
``kernel_<kind>`` each (the "parent's eager forwards" section).  The
graph engine and the eager ops must match each bit for bit at equal
precision and batch size.
"""

from typing import Sequence

import numpy as np

from repro.nn import autograd
from repro.nn.autograd import Tape, Tensor, _topo_order, add, no_grad
from repro.nn.graph.backward import ALIAS_KINDS, TOp, TrainGraph, TValue
from repro.nn.graph.backward import _is_basic_key, _probe_bincount
from repro.nn.graph.lower import resolve_precision
from repro.nn.im2col import conv_windows
from repro.nn.layers import BatchNorm, Conv2d, Dense, Flatten, GlobalAvgPool2d, Parameter
from repro.nn.layers import LeakyReLU, MaxPool2d, PointwiseDense, ReLU, ResidualBlock
from repro.nn.layers import Sequential, Sigmoid, Tanh


def compile_eager(model, precision="fp16"):
    """``compile_model``'s contract through the closure interpreter."""
    store, compute = resolve_precision(precision)
    fn = _compile(model, _Precision(store, compute))
    return lambda x: fn(np.asarray(x).astype(store).astype(compute)).astype(np.float64)


class _Precision:
    def __init__(self, store, compute):
        self.store, self.compute = store, compute

    def quantize(self, arr):
        return arr.astype(self.store).astype(self.compute)


def _compile(module, prec):
    """Recursively translate a module into a closure over frozen weights."""
    if isinstance(module, Sequential):
        fns = [_compile(m, prec) for m in module.layers]

        def seq(x):
            for f in fns:
                x = f(x)
            return x

        return seq

    if isinstance(module, ResidualBlock):
        body = _compile(module.body, prec)
        proj = _compile(module.projection, prec) if module.projection else None

        def res(x):
            skip = proj(x) if proj else x
            return np.maximum(body(x) + skip, 0)

        return res

    if isinstance(module, (Dense, PointwiseDense)):
        w = prec.quantize(module.weight.data)
        b = prec.quantize(module.bias.data)
        return lambda x: x @ w + b

    if isinstance(module, Conv2d):
        w = prec.quantize(module.weight.data)
        b = prec.quantize(module.bias.data).reshape(1, -1, 1)
        kernel, stride, padding = module.kernel, module.stride, module.padding

        def conv(x):
            bsz, c, h, w_in = x.shape
            if padding:
                x = np.pad(
                    x, [(0, 0), (0, 0), (padding, padding), (padding, padding)]
                )
            hp, wp = h + 2 * padding, w_in + 2 * padding
            idx = module._gather_indices(c, hp, wp)
            # np.take, as Conv2d.forward gathers: fancy indexing
            # (``[:, idx]``) lays the columns out batch-innermost, which
            # sends matmul to numpy's non-BLAS loop, and for a one-channel
            # output that loop rounds differently from BLAS gemv
            cols = np.take(x.reshape(bsz, c * hp * wp), idx, axis=1)
            out = w @ cols + b
            oh = (hp - kernel) // stride + 1
            ow = (wp - kernel) // stride + 1
            return out.reshape(bsz, w.shape[0], oh, ow)

        return conv

    if isinstance(module, MaxPool2d):
        k = module.kernel

        def pool(x):
            bsz, c, h, w_in = x.shape
            return x.reshape(bsz, c, h // k, k, w_in // k, k).max(axis=(3, 5))

        return pool

    if isinstance(module, GlobalAvgPool2d):
        return lambda x: x.mean(axis=(2, 3))

    if isinstance(module, Flatten):
        return lambda x: x.reshape(x.shape[0], -1)

    if isinstance(module, ReLU):
        return lambda x: np.maximum(x, 0)

    if isinstance(module, LeakyReLU):
        slope = prec.compute(module.slope)
        return lambda x: np.where(x > 0, x, slope * x)

    if isinstance(module, Tanh):
        return np.tanh

    if isinstance(module, Sigmoid):
        return lambda x: 1.0 / (1.0 + np.exp(-x))

    if isinstance(module, BatchNorm):
        scale64 = module.gamma.data / np.sqrt(module.running_var + module.eps)
        shift64 = module.beta.data - module.running_mean * scale64
        scale = prec.quantize(scale64)
        shift = prec.quantize(shift64)

        def bn(x):
            if x.ndim == 4:
                return x * scale.reshape(1, -1, 1, 1) + shift.reshape(1, -1, 1, 1)
            return x * scale + shift

        return bn

    raise TypeError(f"cannot compile module of type {type(module).__name__}")


def grad_norm(params: list[Parameter]) -> float:
    """Global L2 norm of the accumulated gradients.

    :meth:`repro.nn.graph.train.TrainStep.grad_norm` runs this exact
    per-parameter loop over its arena gradient views, so telemetry values
    match across engines bitwise.
    """
    total = 0.0
    for p in params:
        if p.grad is not None:
            total += float((p.grad.data**2).sum())
    return float(np.sqrt(total))


class EagerStep:
    """``TrainStep``'s call/``grad_norm`` contract, interpreted on every call."""

    def __init__(self, fn, optimizer, input_requires_grad=None):
        self.fn = fn
        self.optimizer = optimizer
        self._flags = tuple(input_requires_grad) if input_requires_grad else None

    def __call__(self, *arrays):
        flags = self._flags or (False,) * len(arrays)
        outs = self.fn(*(Tensor(a, requires_grad=f) for a, f in zip(arrays, flags)))
        outs = outs if isinstance(outs, tuple) else (outs,)
        self.optimizer.zero_grad()
        outs[0].backward()
        self.optimizer.step()
        vals = tuple(t.item() for t in outs)
        return vals[0] if len(vals) == 1 else vals

    def grad_norm(self):
        return grad_norm(self.optimizer.params)


class RecordedTape:
    """A tape recorder that keeps every ``(op, inputs, out, attrs)`` —
    and so every tensor — in ``records``."""

    def __init__(self) -> None:
        self.records: list[tuple] = []

    def __call__(self, op, inputs, out, attrs) -> None:
        self.records.append((op, inputs, out, attrs))


def build_train_graph(fn, inputs, params):
    """``repro.nn.graph.backward.build_train_graph``'s contract: record the
    whole step, then lower the records."""
    tape = RecordedTape()
    with Tape(tape):
        outputs = fn(*inputs)
        outputs = outputs if isinstance(outputs, tuple) else (outputs,)
        outputs[0].backward()
    return record_then_lower(tape, inputs, params, outputs), outputs


def record_then_lower(
    tape: Tape,
    inputs: Sequence[Tensor],
    params: Sequence[Parameter],
    outputs: Sequence[Tensor],
) -> TrainGraph:
    """Lower a recorded training step to a :class:`TrainGraph`.

    ``inputs`` are the step's argument tensors, ``params`` the optimizer
    parameters (their ``.grad`` tensors, where present, become the
    graph's gradient outputs), ``outputs`` the loss plus aux scalars.
    """
    values: list[TValue] = []
    vid_of: dict[int, int] = {}

    def new_value(t: Tensor, kind: str, **kw) -> int:
        vid = len(values)
        values.append(
            TValue(vid=vid, shape=t.data.shape, dtype=t.data.dtype, kind=kind, **kw)
        )
        vid_of[id(t)] = vid
        return vid

    param_vids: dict[int, int] = {}
    for t in inputs:
        new_value(t, "input")
    for pos, p in enumerate(params):  # repro: disable=vectorization -- id bookkeeping
        param_vids[pos] = new_value(p, "param", data=p.data, param=p)

    def leaf_vid(t: Tensor) -> int:
        vid = vid_of.get(id(t))
        if vid is not None:
            return vid
        if isinstance(t, Parameter):
            return new_value(t, "extern", data=t.data, param=t)
        return new_value(t, "const", data=t.data)

    ops: list[TOp] = []
    for op_name, tin, tout, attrs in tape.records:
        in_vids = tuple(leaf_vid(t) for t in tin)
        if tout is None:  # side effect (bn_stats)
            ops.append(TOp(op_name, in_vids, None, dict(attrs)))
            continue
        if id(tout) in vid_of:
            raise AssertionError(f"tape op {op_name!r} re-produced a known tensor")
        a = tin[0]
        if op_name in ALIAS_KINDS:
            if op_name == "transpose":
                view = ("transpose", attrs["axes"])
                is_view = True
            elif op_name == "reshape":
                view = ("reshape", attrs["shape"])
                is_view = np.may_share_memory(tout.data, a.data)
            else:  # getitem
                view = ("getitem", attrs["key"])
                is_view = _is_basic_key(attrs["key"])
            if is_view:
                out_vid = new_value(
                    tout,
                    "temp",
                    alias_of=in_vids[0],
                    view=view,
                    contiguous=bool(tout.data.flags.c_contiguous),
                )
                ops.append(TOp("alias", in_vids, out_vid, dict(attrs)))
                continue
            # numpy had to copy (reshape of an incompatible strided view /
            # advanced indexing) — lower to an explicit copy kernel
            out_vid = new_value(tout, "temp")
            kind = "reshape_copy" if op_name == "reshape" else "getitem_copy"
            ops.append(TOp(kind, in_vids, out_vid, dict(attrs)))
            continue
        out_vid = new_value(tout, "temp")
        top = TOp(op_name, in_vids, out_vid, dict(attrs))
        if op_name == "scatter_add_axis":
            top.attrs["bincount_ok"] = _probe_bincount(
                attrs["indices"], tin[0].data, attrs["shape"], tout.data
            )
        ops.append(top)

    grad_vids: dict[int, int] = {}
    for pos, p in enumerate(params):  # repro: disable=vectorization -- id bookkeeping
        if p.grad is None:
            continue
        vid = vid_of.get(id(p.grad))
        if vid is None:
            raise AssertionError(
                "parameter gradient was not produced by a recorded op "
                "(was backward() run under the tape?)"
            )
        grad_vids[pos] = vid

    output_vids = []
    for t in outputs:
        vid = vid_of.get(id(t))
        if vid is None:
            raise AssertionError("step output was not produced by a recorded op")
        output_vids.append(vid)

    return TrainGraph(
        values=values,
        ops=ops,
        input_vids=list(range(len(inputs))),
        param_vids=param_vids,
        grad_vids=grad_vids,
        output_vids=output_vids,
        dtype=outputs[0].data.dtype,
    )


def install_lowering(monkeypatch) -> None:
    """Swap the record-then-lower builder in under ``TrainStep``."""
    from repro.nn.graph import train

    monkeypatch.setattr(train, "build_train_graph", build_train_graph)


def install(monkeypatch) -> None:
    """Swap the interpreted step in for ``TrainStep`` in both trainers."""
    from repro.ddmd import aae
    from repro.surrogate import train

    for module in (aae, train):
        monkeypatch.setattr(module, "TrainStep", EagerStep)


def conv_forward(self, x):
    """``Conv2d.forward`` gathering through ``take`` (verbatim but for the
    module alias)."""
    b, c, h, w = x.shape
    x = autograd.pad2d(x, self.padding)
    hp, wp = h + 2 * self.padding, w + 2 * self.padding
    k, s = self.kernel, self.stride
    oh = (hp - k) // s + 1
    ow = (wp - k) // s + 1
    idx = self._gather_indices(c, hp, wp)
    flat = autograd.reshape(x, (b, c * hp * wp))
    cols = autograd.take(flat, idx, axis=1)  # (b, c*k*k, oh*ow)
    out = autograd.matmul(self.weight, cols)  # (b, out_c, oh*ow) via broadcasting
    out = out + autograd.reshape(self.bias, (1, -1, 1))
    return autograd.reshape(out, (b, self.weight.shape[0], oh, ow))


def reduce_max(a, axes):
    """Every max reduction through ``np.amax``, 2×2 pooling included."""
    return lambda out=None: np.amax(a, axis=axes, keepdims=True, out=out)


def install_gather(monkeypatch) -> None:
    """Swap ``np.take`` back in for the conv gather (eager and bound) and
    ``np.amax`` for every max reduction (``kernel_max`` serves both)."""
    monkeypatch.setattr(Conv2d, "forward", conv_forward)
    monkeypatch.setattr(autograd, "reduce_max", reduce_max)


def grad(
    output: Tensor,
    leaves: Sequence[Tensor] | None = None,
    gradient: Tensor | None = None,
    create_graph: bool = False,
    _accumulate: bool = False,
) -> list[Tensor] | None:
    """Gradients of ``output`` w.r.t. ``leaves``.

    With ``create_graph=True`` the returned gradients carry their own
    graph, enabling higher-order differentiation (used by WGAN-GP).
    With ``_accumulate=True`` (the ``backward()`` path), gradients are
    stored on every reachable ``requires_grad`` tensor's ``.grad``.
    """
    if gradient is None:
        gradient = Tensor(np.ones_like(output.data))
    table: dict[int, Tensor] = {id(output): gradient}

    order = _topo_order(output)
    for node in reversed(order):
        g = table.get(id(node))
        if g is None:
            continue
        for parent, vjp in zip(node._parents, node._vjps):
            if create_graph:
                contrib = vjp(g)
            else:
                with no_grad():
                    contrib = vjp(g)
            prev = table.get(id(parent))
            if prev is None:
                table[id(parent)] = contrib
            else:
                if create_graph:
                    table[id(parent)] = add(prev, contrib)
                else:
                    with no_grad():
                        table[id(parent)] = add(prev, contrib)

    if _accumulate:
        for node in order:
            if node.requires_grad and id(node) in table and not node._parents:
                g = table[id(node)]
                node.grad = g if node.grad is None else Tensor(node.grad.data + g.data)
        return None

    assert leaves is not None, "grad() requires leaves unless accumulating"
    result = []
    for leaf in leaves:
        g = table.get(id(leaf))
        if g is None:
            g = Tensor(np.zeros_like(leaf.data))
        result.append(g)
    return result


def install_grad(monkeypatch) -> None:
    """Swap the keep-everything backward walk in for ``autograd.grad``
    (``Tensor.backward`` and the gradient penalty both call it)."""
    monkeypatch.setattr(autograd, "grad", grad)


# ------------------------------------------- the parent's eager forwards
# Each primitive's forward as the eager op computed it before every
# multi-call primitive ran one kernel, on arrays (``a.data`` → ``a``).


def power(a, exponent):
    if exponent < 0:
        tiny = np.finfo(a.dtype).tiny
        return np.power(np.where(a == 0, tiny, a), exponent)
    return np.power(a, exponent)


def exp(a):
    return np.exp(np.clip(a, -500, 500))


def log(a):
    return np.log(np.maximum(a, np.finfo(a.dtype).tiny))


def sigmoid(a):
    return 1.0 / (1.0 + np.exp(-np.clip(a, -500, 500)))


def relu_mask(a):
    return (a > 0).astype(a.dtype)


def leaky_factor(a, slope):
    return np.where(a > 0, 1.0, slope)


def tensor_max(a, axes, keepdims):
    """The max and its tie-splitting mask."""
    out_data = reduce_max(a, axes)()
    mask = (a == out_data).astype(a.dtype)
    mask /= mask.sum(axis=axes, keepdims=True)
    final = out_data if keepdims else out_data.squeeze(axes)
    return final, mask


def pad2d(a, pad):
    width = [(0, 0)] * (a.ndim - 2) + [(pad, pad), (pad, pad)]
    return np.pad(a, width)


def scatter(g, key, shape):
    data = np.zeros(shape, dtype=g.dtype)
    np.add.at(data, key, g)
    return data


def scatter_add_axis(g, indices, axis, shape):
    data = np.zeros(shape, dtype=g.dtype)
    # move target axis first for np.add.at, mirroring take's output layout
    moved = np.moveaxis(data, axis, 0)
    g_moved = np.moveaxis(
        g, tuple(range(axis, axis + indices.ndim)), tuple(range(indices.ndim))
    )
    np.add.at(moved, indices, g_moved)
    return data


def conv_take(a, indices, kernel, stride):
    """``conv_gather``'s columns of a ``(B, C, H, W)`` batch."""
    b = a.shape[0]
    return np.ascontiguousarray(conv_windows(a, kernel, stride)).reshape(b, *indices.shape)


def bn_stats(layer, mean, var):
    """BatchNorm's in-place running-statistics update."""
    np.multiply(layer.running_mean, 1 - layer.momentum, out=layer.running_mean)
    layer.running_mean += layer.momentum * mean.reshape(-1)
    np.multiply(layer.running_var, 1 - layer.momentum, out=layer.running_var)
    layer.running_var += layer.momentum * var.reshape(-1)


def sum_vjp(g, shape, axes, keepdims):
    """``tensor_sum``'s VJP: ``g`` with the summed axes restored, times ones."""
    if not keepdims:
        expand = list(g.shape)
        for ax in sorted(axes):
            expand.insert(ax, 1)
        g = g.reshape(tuple(expand))
    return g * np.ones(shape)


def square_vjp(g, a):
    """``power(a, 2.0)``'s VJP."""
    return g * (2.0 * power(a, 1.0))
