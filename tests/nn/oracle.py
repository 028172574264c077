"""Test-side reference for ``repro.nn``: the closure-per-layer inference
interpreter (:func:`_compile`, the parent's body verbatim) and the per-call
autograd training step that shipped as ``engine="eager"`` up to PR 16.  The
graph engine must match both bit for bit at equal precision and batch size.
"""

import numpy as np

from repro.nn.autograd import Tensor
from repro.nn.graph.ir import resolve_precision
from repro.nn.layers import BatchNorm, Conv2d, Dense, Flatten, GlobalAvgPool2d
from repro.nn.layers import LeakyReLU, MaxPool2d, PointwiseDense, ReLU, ResidualBlock
from repro.nn.layers import Sequential, Sigmoid, Tanh
from repro.nn.optim import grad_norm


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
            cols = x.reshape(bsz, c * hp * wp)[:, idx]
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


def install(monkeypatch) -> None:
    """Swap the interpreted step in for ``TrainStep`` in both trainers."""
    from repro.ddmd import aae
    from repro.surrogate import train

    for module in (aae, train):
        monkeypatch.setattr(module, "TrainStep", EagerStep)
