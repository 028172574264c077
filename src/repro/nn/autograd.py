"""Reverse-mode automatic differentiation on NumPy arrays.

A tensor-valued, micrograd-style engine with one deliberate design rule:
**every vector–Jacobian product is itself expressed in tensor ops**, never
in raw NumPy.  Backward passes therefore build a differentiable graph of
their own, so ``grad(..., create_graph=True)`` supports double
backpropagation — which the 3D-AAE's WGAN gradient penalty (∂/∂θ of
‖∂D/∂x‖) requires, exactly as PyTorch provides it to the paper's S2 stage.

The engine is small but complete for this library's models: dense and
convolutional networks (via pad/take/matmul), PointNet-style max pooling,
and the Chamfer/Wasserstein losses.

A backward frees what it has walked (PyTorch's default): each node's
gradient and, unless ``create_graph=True``, its edges and the activations
they closed over; a second backward through a freed node raises ``RuntimeError``.

Kernels
-------
Every primitive kind a :class:`Tape` records has one ``kernel_<kind>``
function below, found by that name (as ``ast.NodeVisitor`` finds
``visit_<name>``).  ``kernel_<kind>(ins, out, attrs)`` resolves its views
and boolean buffers once and returns the thunk that runs the op's ufunc
sequence from the arrays ``ins`` into ``out``.  A primitive whose forward
takes more than one NumPy call runs its kernel into a fresh float64 array
(float64 being the engine's one dtype, :class:`Tensor` casts to it); the
compiled graphs of :mod:`repro.nn.graph` run the very same kernels on
arena views, so a replay and the eager op agree bit for bit by
construction, whatever the dtype of a leaf.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.nn.im2col import conv_windows

__all__ = [
    "Tensor",
    "Tape",
    "as_tensor",
    "bn_stats",
    "grad",
    "no_grad",
]

_grad_enabled = True


class no_grad:
    """Context manager disabling graph construction (fast inference)."""

    def __enter__(self):
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, *exc):
        global _grad_enabled
        _grad_enabled = self._prev


class Tape:
    """Hands every primitive to a recorder, in execution order.

    While a tape is active (``with Tape(recorder):``), every primitive —
    including the ops that vector–Jacobian products execute during
    ``backward()`` — calls ``recorder(op, inputs, out, attrs)`` the
    moment it has run.  Because VJPs are themselves tensor ops, one eager
    training step under a tape is the *entire* fwd+bwd computation in the
    exact order the eager engine ran it.  The tape keeps nothing, so a
    traced step holds no tensor longer than the eager step would; a
    recorder labels tensors through their ``_vid`` slot instead.

    Data-dependent values that eager ops compute internally (ReLU masks,
    max tie-splitting masks, signs) are recorded as explicit aux ops so a
    replay can recompute them for new inputs.
    """

    __slots__ = ("recorder",)

    def __init__(self, recorder: Callable[[str, tuple, "Tensor | None", dict], None]):
        self.recorder = recorder

    def __enter__(self):
        global _tape
        if _tape is not None:
            raise RuntimeError("another Tape is already recording")
        _tape = self
        return self

    def __exit__(self, *exc):
        global _tape
        _tape = None


_tape: Tape | None = None


def _rec(op: str, inputs: tuple, out, **attrs) -> None:
    t = _tape
    if t is not None:
        t.recorder(op, inputs, out, attrs)


def _run(kernel: Callable, ins: tuple, shape: tuple[int, ...], **attrs) -> np.ndarray:
    """Run ``kernel`` from the arrays ``ins`` into a fresh float64 array."""
    out = np.empty(shape)
    kernel(ins, out, attrs)()
    return out


def bn_stats(mean: Tensor, var: Tensor, layer) -> None:
    """Update ``layer``'s running statistics in place (a side effect the
    tape records as ``bn_stats``, so a replay updates the same arrays)."""
    kernel_bn_stats((mean.data, var.data), None, {"layer": layer})()
    _rec("bn_stats", (mean, var), None, layer=layer)


class Tensor:
    """A NumPy array plus autograd bookkeeping.

    Attributes
    ----------
    data:
        The underlying ``np.ndarray`` (float64 by default).
    requires_grad:
        Whether gradients should flow to this tensor.
    grad:
        Populated by :func:`grad` / :meth:`backward`; a ``Tensor`` (so
        higher-order differentiation can continue through it).
    _vid:
        ``(tag, value id)`` written by a :class:`Tape` recorder, or ``None``.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_vjps", "_vid")
    __array_priority__ = 100  # numpy defers binary ops to us

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        _parents: tuple["Tensor", ...] = (),
        _vjps: tuple[Callable[["Tensor"], "Tensor"], ...] = (),
    ) -> None:
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad and _grad_enabled
        self.grad: Tensor | None = None
        self._parents = _parents if self.requires_grad else ()
        self._vjps = _vjps if self.requires_grad else ()
        self._vid: tuple[object, int] | None = None

    # ------------------------------------------------------------- basics
    @property
    def shape(self) -> tuple[int, ...]:
        """Array shape of the underlying data."""
        return self.data.shape

    @property
    def ndim(self) -> int:
        """Number of array dimensions."""
        return self.data.ndim

    @property
    def size(self) -> int:
        """Total number of elements."""
        return self.data.size

    def item(self) -> float:
        """The single scalar value as a float."""
        return float(self.data)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    def __len__(self) -> int:
        return len(self.data)

    # ---------------------------------------------------------- operators
    def __add__(self, other):
        return add(self, as_tensor(other))

    def __radd__(self, other):
        return add(as_tensor(other), self)

    def __mul__(self, other):
        return mul(self, as_tensor(other))

    def __rmul__(self, other):
        return mul(as_tensor(other), self)

    def __neg__(self):
        return mul(self, Tensor(-1.0))

    def __sub__(self, other):
        return add(self, -as_tensor(other))

    def __rsub__(self, other):
        return add(as_tensor(other), -self)

    def __truediv__(self, other):
        return mul(self, power(as_tensor(other), -1.0))

    def __rtruediv__(self, other):
        return mul(as_tensor(other), power(self, -1.0))

    def __pow__(self, exponent: float):
        return power(self, exponent)

    def __matmul__(self, other):
        return matmul(self, as_tensor(other))

    def __getitem__(self, key):
        return getitem(self, key)

    # --------------------------------------------------------- reductions
    def sum(self, axis=None, keepdims=False):
        """Sum over ``axis`` (all axes by default)."""
        return tensor_sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        """Mean over ``axis`` (all axes by default)."""
        return tensor_mean(self, axis=axis, keepdims=keepdims)

    def max(self, axis=None, keepdims=False):
        """Maximum over ``axis`` (ties share gradient)."""
        return tensor_max(self, axis=axis, keepdims=keepdims)

    def min(self, axis=None, keepdims=False):
        """Minimum over ``axis``."""
        return -tensor_max(-self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        """View with a new shape."""
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def transpose(self, *axes):
        """Permute axes (reverse by default)."""
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        return transpose(self, axes or None)

    @property
    def T(self):
        """Transpose (reversed axes)."""
        return transpose(self, None)

    # ----------------------------------------------------------- backward
    def backward(self, gradient: "Tensor | None" = None, create_graph: bool = False):
        """Accumulate gradients of ``self`` into every reachable leaf, freeing
        the graph as it goes; a second backward through it raises ``RuntimeError``."""
        return grad(self, gradient=gradient, create_graph=create_graph, _accumulate=True)


def as_tensor(x) -> Tensor:
    """Wrap plain data as a constant Tensor (no-op for Tensors)."""
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(data, parents, vjps) -> Tensor:
    requires = _grad_enabled and any(p.requires_grad for p in parents)
    out = Tensor(data, requires_grad=requires)
    if requires:
        kept_parents = []
        kept_vjps = []
        for p, v in zip(parents, vjps):
            if p.requires_grad:
                kept_parents.append(p)
                kept_vjps.append(v)
        out._parents = tuple(kept_parents)
        out._vjps = tuple(kept_vjps)
    return out


# ---------------------------------------------------------------- helpers


def _sum_to_shape(g: Tensor, shape: tuple[int, ...]) -> Tensor:
    """Reduce a broadcast gradient back to ``shape`` (in tensor ops)."""
    if g.shape == shape:
        return g
    # sum over leading extra axes
    extra = g.ndim - len(shape)
    if extra > 0:
        g = tensor_sum(g, axis=tuple(range(extra)))
    # sum over broadcast (size-1) axes
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = tensor_sum(g, axis=axes, keepdims=True)
    return reshape(g, shape)


def _keep_shape(shape: tuple[int, ...], axes: tuple[int, ...]) -> tuple[int, ...]:
    """``shape`` with the reduced ``axes`` kept as length 1."""
    return tuple(1 if ax in axes else s for ax, s in enumerate(shape))


def _pad_core(ndim: int, pad: int) -> tuple[slice, ...]:
    """The key of the unpadded interior of a :func:`pad2d` output."""
    return tuple([slice(None)] * (ndim - 2) + [slice(pad, -pad), slice(pad, -pad)])


def _view(a: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """``a.reshape(shape)``, which must not copy: a kernel resolves its
    views once, so a copy would go stale."""
    out = a.reshape(shape)
    if not np.may_share_memory(out, a):
        raise AssertionError("a kernel's reshape copied at bind time")
    return out


# --------------------------------------------------------------- elementwise


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum with broadcasting."""
    out = _make(
        a.data + b.data,
        (a, b),
        (
            lambda g: _sum_to_shape(g, a.shape),
            lambda g: _sum_to_shape(g, b.shape),
        ),
    )
    _rec("add", (a, b), out)
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product with broadcasting."""
    out = _make(
        a.data * b.data,
        (a, b),
        (
            lambda g: _sum_to_shape(mul(g, b), a.shape),
            lambda g: _sum_to_shape(mul(g, a), b.shape),
        ),
    )
    _rec("mul", (a, b), out)
    return out


def power(a: Tensor, exponent: float) -> Tensor:
    """Elementwise power with a constant exponent (zeros raised to a
    negative one read as the smallest normal)."""
    def vjp(g: Tensor) -> Tensor:
        # a squared term's derivative reads ``a``: pow(a, 1.0) == a bitwise
        base = a if exponent == 2.0 else power(a, exponent - 1.0)
        return mul(g, mul(Tensor(exponent), base))

    out = _make(_run(kernel_power, (a.data,), a.shape, exponent=exponent), (a,), (vjp,))
    _rec("power", (a,), out, exponent=exponent)
    return out


def exp(a: Tensor) -> Tensor:
    """Elementwise exponential (input clipped for stability)."""
    out = _make(_run(kernel_exp, (a.data,), a.shape), (a,), ())
    if out.requires_grad:
        out._parents = (a,)
        out._vjps = (lambda g: mul(g, out),)
    _rec("exp", (a,), out)
    return out


def log(a: Tensor) -> Tensor:
    """Elementwise natural log (clamped away from zero)."""
    out = _make(
        _run(kernel_log, (a.data,), a.shape), (a,), (lambda g: mul(g, power(a, -1.0)),)
    )
    _rec("log", (a,), out)
    return out


def sqrt(a: Tensor) -> Tensor:
    """Elementwise square root."""
    return power(a, 0.5)


def tanh(a: Tensor) -> Tensor:
    """Elementwise hyperbolic tangent."""
    out = _make(np.tanh(a.data), (a,), ())
    if out.requires_grad:
        out._parents = (a,)
        out._vjps = (lambda g: mul(g, add(Tensor(1.0), -mul(out, out))),)
    _rec("tanh", (a,), out)
    return out


def sigmoid(a: Tensor) -> Tensor:
    """Elementwise logistic sigmoid."""
    out = _make(_run(kernel_sigmoid, (a.data,), a.shape), (a,), ())
    if out.requires_grad:
        out._parents = (a,)
        out._vjps = (lambda g: mul(g, mul(out, add(Tensor(1.0), -out))),)
    _rec("sigmoid", (a,), out)
    return out


def relu(a: Tensor) -> Tensor:
    """Elementwise max(x, 0)."""
    mask = Tensor(_run(kernel_relu_mask, (a.data,), a.shape))
    _rec("relu_mask", (a,), mask)
    out = _make(a.data * mask.data, (a,), (lambda g: mul(g, mask),))
    _rec("mul", (a, mask), out)
    return out


def leaky_relu(a: Tensor, slope: float = 0.2) -> Tensor:
    """Elementwise leaky ReLU with the given negative slope."""
    factor = Tensor(_run(kernel_leaky_factor, (a.data,), a.shape, slope=slope))
    _rec("leaky_factor", (a,), factor, slope=slope)
    out = _make(a.data * factor.data, (a,), (lambda g: mul(g, factor),))
    _rec("mul", (a, factor), out)
    return out


# -------------------------------------------------------------- structural


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product (batched, with broadcast-aware vjps)."""
    def vjp_a(g: Tensor) -> Tensor:
        gb = matmul(g, _swap_last(b))
        return _sum_to_shape(gb, a.shape) if gb.shape != a.shape else gb

    def vjp_b(g: Tensor) -> Tensor:
        ga = matmul(_swap_last(a), g)
        return _sum_to_shape(ga, b.shape) if ga.shape != b.shape else ga

    out = _make(a.data @ b.data, (a, b), (vjp_a, vjp_b))
    _rec("matmul", (a, b), out)
    return out


def _swap_last(a: Tensor) -> Tensor:
    axes = list(range(a.ndim))
    axes[-1], axes[-2] = axes[-2], axes[-1]
    return transpose(a, tuple(axes))


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    """View with a new shape."""
    old = a.shape
    out = _make(a.data.reshape(shape), (a,), (lambda g: reshape(g, old),))
    _rec("reshape", (a,), out, shape=out.data.shape)
    return out


def transpose(a: Tensor, axes: tuple[int, ...] | None) -> Tensor:
    """Permute axes (reverse by default)."""
    if axes is None:
        axes = tuple(reversed(range(a.ndim)))
    inverse = tuple(int(i) for i in np.argsort(axes))
    out = _make(
        a.data.transpose(axes), (a,), (lambda g: transpose(g, inverse),)
    )
    _rec("transpose", (a,), out, axes=tuple(axes))
    return out


def getitem(a: Tensor, key) -> Tensor:
    """Basic indexing/slicing (adjoint scatters the gradient)."""
    shape = a.shape

    def vjp(g: Tensor) -> Tensor:
        return scatter(g, key, shape)

    out = _make(a.data[key], (a,), (vjp,))
    _rec("getitem", (a,), out, key=key)
    return out


def scatter(g: Tensor, key, shape: tuple[int, ...]) -> Tensor:
    """Place ``g`` into a zero tensor of ``shape`` at ``key`` (adjoint of getitem)."""

    def vjp(gg: Tensor) -> Tensor:
        return getitem(gg, key)

    out = _make(_run(kernel_scatter, (g.data,), shape, key=key), (g,), (vjp,))
    _rec("scatter", (g,), out, key=key, shape=tuple(shape))
    return out


def take(a: Tensor, indices: np.ndarray, axis: int = 0) -> Tensor:
    """Gather along ``axis`` (adjoint: scatter-add)."""
    indices = np.asarray(indices)
    shape = a.shape

    def vjp(g: Tensor) -> Tensor:
        return _scatter_add_axis(g, indices, axis, shape)

    out = _make(np.take(a.data, indices, axis=axis), (a,), (vjp,))
    _rec("take", (a,), out, indices=indices, axis=axis)
    return out


def conv_gather(a: Tensor, indices: np.ndarray, kernel: int, stride: int) -> Tensor:
    """``take(reshape(a, (B, C*H*W)), indices, axis=1)`` for a conv's
    ``indices = conv_index_plan(kernel, stride, C, H, W)``, copied from
    :func:`~repro.nn.im2col.conv_windows`; the recorded ``take`` carries
    ``window=(kernel, stride, (C, H, W))``, which :func:`kernel_take` reads."""
    b, c, h, w = a.shape
    flat = reshape(a, (b, c * h * w))
    attrs = {"indices": indices, "axis": 1, "window": (kernel, stride, (c, h, w))}
    data = _run(kernel_take, (flat.data,), (b, *indices.shape), **attrs)

    def vjp(g: Tensor) -> Tensor:
        return _scatter_add_axis(g, indices, 1, flat.shape)

    out = _make(data, (flat,), (vjp,))
    _rec("take", (flat,), out, **attrs)
    return out


def _scatter_add_axis(
    g: Tensor, indices: np.ndarray, axis: int, shape: tuple[int, ...]
) -> Tensor:
    def vjp(gg: Tensor) -> Tensor:
        return take(gg, indices, axis=axis)

    data = _run(kernel_scatter_add_axis, (g.data,), shape, indices=indices, axis=axis)
    out = _make(data, (g,), (vjp,))
    _rec("scatter_add_axis", (g,), out, indices=indices, axis=axis, shape=tuple(shape))
    return out


def pad2d(a: Tensor, pad: int) -> Tensor:
    """Zero-pad the last two axes of a (B, C, H, W) tensor."""
    if pad == 0:
        return a
    key = _pad_core(a.ndim, pad)
    shape = a.shape[:-2] + (a.shape[-2] + 2 * pad, a.shape[-1] + 2 * pad)

    def vjp(g: Tensor) -> Tensor:
        return getitem(g, key)

    out = _make(_run(kernel_pad2d, (a.data,), shape, pad=pad), (a,), (vjp,))
    _rec("pad2d", (a,), out, pad=pad)
    return out


# --------------------------------------------------------------- reductions


def _normalize_axis(axis, ndim):
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        return (axis % ndim,)
    return tuple(a % ndim for a in axis)


def tensor_sum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    """Sum reduction over the given axes."""
    axes = _normalize_axis(axis, a.ndim)
    shape = a.shape

    def vjp(g: Tensor) -> Tensor:
        if not keepdims:
            g = reshape(g, _keep_shape(shape, axes))
        return g if g.shape == shape else _broadcast(g, shape)

    out = _make(a.data.sum(axis=axes, keepdims=keepdims), (a,), (vjp,))
    _rec("sum", (a,), out, axes=axes, keepdims=keepdims)
    return out


def _broadcast(g: Tensor, shape: tuple[int, ...]) -> Tensor:
    """``g`` broadcast to ``shape`` as a fresh array: a recorded ``copy``
    whose adjoint sums back to ``g``'s shape."""
    gshape = g.shape
    out = _make(
        _run(kernel_copy, (g.data,), shape), (g,), (lambda gg: _sum_to_shape(gg, gshape),)
    )
    _rec("copy", (g,), out)
    return out


def tensor_mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    """Mean reduction over the given axes."""
    axes = _normalize_axis(axis, a.ndim)
    count = float(np.prod([a.shape[ax] for ax in axes]))
    return mul(tensor_sum(a, axis=axis, keepdims=keepdims), Tensor(1.0 / count))


def reduce_max(a: np.ndarray, axes: tuple[int, ...]) -> Callable[[np.ndarray], np.ndarray]:
    """``np.amax(a, axis=axes, keepdims=True, out=out)`` as a function of ``out``.

    Over two length-2 axes (2×2 pooling) it runs three ``np.maximum`` over
    the window corners in the order (0,0), (0,1), (1,0), (1,1).  Exactness
    fact: ``np.maximum`` keeps its first operand on ties and propagates
    NaN, and ``amax`` reduces a window in that order, so the two agree bit
    for bit (all 625 windows over {−0.0, +0.0, NaN, ±1} are tested).
    """
    if len(axes) != 2 or any(a.shape[ax] != 2 for ax in axes):
        return lambda out: np.amax(a, axis=axes, keepdims=True, out=out)
    key = [slice(None)] * a.ndim
    corners = []
    for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)):
        key[axes[0]], key[axes[1]] = slice(i, i + 1), slice(j, j + 1)
        corners.append(a[tuple(key)])
    c00, c01, c10, c11 = corners

    def run(out: np.ndarray) -> np.ndarray:
        np.maximum(c00, c01, out=out)
        np.maximum(out, c10, out=out)
        return np.maximum(out, c11, out=out)

    return run


def tensor_max(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    """Max reduction; tied maxima split the gradient."""
    axes = _normalize_axis(axis, a.ndim)
    kept = _keep_shape(a.shape, axes)
    dropped = tuple(s for ax, s in enumerate(a.shape) if ax not in axes)
    out_shape = kept if keepdims else dropped
    out_data = _run(kernel_max, (a.data,), out_shape, axes=axes, keepdims=keepdims)
    # subgradient mask, ties split evenly (constant w.r.t. the graph),
    # read off the max rather than reduced again
    mask_t = Tensor(_run(kernel_max_mask, (a.data, out_data), a.shape, axes=axes))

    def vjp(g: Tensor) -> Tensor:
        if not keepdims:
            g = reshape(g, kept)
        return mul(g, mask_t)

    out = _make(out_data, (a,), (vjp,))
    _rec("max", (a,), out, axes=axes, keepdims=keepdims)
    _rec("max_mask", (a, out), mask_t, axes=axes)
    return out


# ------------------------------------------------------------------ kernels
# ``kernel_<kind>(ins, out, attrs)`` for every recorded op kind (see the
# module docstring).  Each exactness fact below relates the kernel to the
# single NumPy expression it stands for; the tests check each at float64
# against that expression.


def kernel_add(ins, out, attrs):
    a, b = ins
    return lambda: np.add(a, b, out=out)


def kernel_mul(ins, out, attrs):
    a, b = ins
    return lambda: np.multiply(a, b, out=out)


def kernel_matmul(ins, out, attrs):
    a, b = ins
    return lambda: np.matmul(a, b, out=out)


def kernel_tanh(ins, out, attrs):
    (a,) = ins
    return lambda: np.tanh(a, out=out)


def kernel_power(ins, out, attrs):
    """``power(where(a == 0, tiny, a), e)`` for ``e < 0``, staged in
    ``out``: copying ``a`` and overwriting its zeros moves the same values
    the ``where`` selects, so in place (``out`` is ``a``) works too."""
    (a,) = ins
    e = attrs["exponent"]
    if e >= 0:
        return lambda: np.power(a, e, out=out)
    tiny = np.finfo(out.dtype).tiny
    zero = np.empty(out.shape, dtype=bool)

    def run() -> None:
        np.copyto(out, a)
        np.equal(out, 0, out=zero)
        np.copyto(out, tiny, where=zero)
        np.power(out, e, out=out)

    return run


def kernel_exp(ins, out, attrs):
    """``exp(clip(a, -500, 500))``, clipped into ``out`` first."""
    (a,) = ins

    def run() -> None:
        np.clip(a, -500, 500, out=out)
        np.exp(out, out=out)

    return run


def kernel_log(ins, out, attrs):
    """``log(maximum(a, tiny))``, the maximum into ``out`` first."""
    (a,) = ins
    tiny = np.finfo(out.dtype).tiny

    def run() -> None:
        np.maximum(a, tiny, out=out)
        np.log(out, out=out)

    return run


def kernel_sigmoid(ins, out, attrs):
    """``1.0 / (1.0 + exp(-clip(a, -500, 500)))`` one ufunc at a time;
    ``x + 1.0`` rounds as ``1.0 + x`` does (IEEE addition commutes).  The
    inference lowering's sigmoid (``clip=False``) has no clip."""
    (a,) = ins
    clip = attrs.get("clip", True)

    def run() -> None:
        if clip:
            np.clip(a, -500, 500, out=out)
            np.negative(out, out=out)
        else:
            np.negative(a, out=out)
        np.exp(out, out=out)
        np.add(out, 1.0, out=out)
        np.divide(1.0, out, out=out)

    return run


def kernel_relu(ins, out, attrs):
    """The inference ReLU, ``maximum(a, 0)``."""
    (a,) = ins
    return lambda: np.maximum(a, 0, out=out)


def kernel_leaky(ins, out, attrs):
    """The inference leaky ReLU, ``where(a > 0, a, slope * a)``: the
    product everywhere, then ``a`` where positive.  It reads ``a`` after
    writing ``out``, so it never runs in place."""
    (a,) = ins
    slope = attrs["slope"]
    pos = np.empty(a.shape, dtype=bool)

    def run() -> None:
        np.greater(a, 0, out=pos)
        np.multiply(a, slope, out=out)
        np.copyto(out, a, where=pos)

    return run


def kernel_relu_mask(ins, out, attrs):
    """``(a > 0).astype(float)``: booleans cast to 1.0 and 0.0."""
    (a,) = ins
    pos = np.empty(a.shape, dtype=bool)

    def run() -> None:
        np.greater(a, 0, out=pos)
        np.copyto(out, pos)

    return run


def kernel_leaky_factor(ins, out, attrs):
    """``where(a > 0, 1.0, slope)``: the slope everywhere, then 1.0."""
    (a,) = ins
    slope = attrs["slope"]
    pos = np.empty(a.shape, dtype=bool)

    def run() -> None:
        np.greater(a, 0, out=pos)
        out.fill(slope)
        np.copyto(out, 1.0, where=pos)

    return run


def kernel_max(ins, out, attrs):
    """:func:`reduce_max` into ``out`` viewed with the reduced axes kept."""
    (a,) = ins
    axes = attrs["axes"]
    reduce, kept = reduce_max(a, axes), _view(out, _keep_shape(a.shape, axes))
    return lambda: reduce(kept)


def kernel_max_mask(ins, out, attrs):
    """``mask = (a == m).astype(float); mask /= mask.sum(axes, keepdims)``
    from ``a`` and its max ``m``; the tie count sits in a small buffer of
    the kept shape next to the boolean one."""
    a, m = ins
    axes = attrs["axes"]
    kept = _keep_shape(a.shape, axes)
    m_kept = _view(m, kept)
    hit = np.empty(a.shape, dtype=bool)
    count = np.empty(kept, dtype=out.dtype)

    def run() -> None:
        np.equal(a, m_kept, out=hit)
        np.copyto(out, hit)
        np.sum(out, axis=axes, keepdims=True, out=count)
        np.divide(out, count, out=out)

    return run


def kernel_sum(ins, out, attrs):
    (a,) = ins
    axes, keepdims = attrs["axes"], attrs["keepdims"]
    return lambda: np.sum(a, axis=axes, keepdims=keepdims, out=out)


def kernel_mean(ins, out, attrs):
    """The inference global average pool, ``a.mean(axes)``."""
    (a,) = ins
    axes = attrs["axes"]
    return lambda: np.mean(a, axis=axes, out=out)


def kernel_copy(ins, out, attrs):
    """A (broadcast) copy: ``x * 1.0 == x`` bitwise, so it stands for a
    multiply by ones."""
    (a,) = ins
    return lambda: np.copyto(out, a)


def kernel_reshape_copy(ins, out, attrs):
    """A reshape NumPy had to copy (of a strided view)."""
    (a,) = ins
    out_as_in = _view(out, a.shape)
    return lambda: np.copyto(out_as_in, a)


def kernel_getitem_copy(ins, out, attrs):
    """Advanced indexing, which copies."""
    (a,) = ins
    key = attrs["key"]
    return lambda: np.copyto(out, a[key])


def kernel_take(ins, out, attrs):
    """``np.take`` along an axis, or, for a conv gather (``window`` in
    ``attrs``), the copy of :func:`~repro.nn.im2col.conv_windows`, which
    moves the same elements in the same order (see there)."""
    (a,) = ins
    if "window" not in attrs:
        indices, axis = attrs["indices"], attrs["axis"]
        return lambda: np.take(a, indices, axis=axis, out=out)
    kernel, stride, chw = attrs["window"]
    # splitting one axis is always a view, so the windows see ``a``
    windows = conv_windows(_view(a, (a.shape[0], *chw)), kernel, stride)
    cols = _view(out, windows.shape)
    return lambda: np.copyto(cols, windows)


def kernel_scatter(ins, out, attrs):
    """``zeros`` then ``np.add.at(out, key, g)``."""
    (g,) = ins
    key = attrs["key"]

    def run() -> None:
        out.fill(0)
        np.add.at(out, key, g)

    return run


def kernel_scatter_add_axis(ins, out, attrs):
    """The adjoint of ``take``: ``zeros``, then ``np.add.at`` with the
    target axis moved first, mirroring ``take``'s output layout."""
    (g,) = ins
    indices, axis = attrs["indices"], attrs["axis"]
    moved = np.moveaxis(out, axis, 0)
    g_moved = np.moveaxis(
        g, tuple(range(axis, axis + indices.ndim)), tuple(range(indices.ndim))
    )

    def run() -> None:
        out.fill(0)
        np.add.at(moved, indices, g_moved)

    return run


def kernel_pad2d(ins, out, attrs):
    """``np.pad`` of the last two axes with zeros: ``+0.0`` around, ``a``
    copied (signed zeros, NaN and all) into the interior."""
    (a,) = ins
    core = out[_pad_core(out.ndim, attrs["pad"])]

    def run() -> None:
        out.fill(0)
        np.copyto(core, a)

    return run


def kernel_bn_stats(ins, out, attrs):
    """``rm *= 1 - m; rm += m * mean`` (and the same for the variance) on
    the layer's running statistics, in place; ``m * x`` rounds as
    ``x * m`` does.  No output."""
    mean, var = ins
    layer = attrs["layer"]
    m = float(layer.momentum)
    rm, rv = layer.running_mean, layer.running_var
    mean_flat, var_flat = _view(mean, (-1,)), _view(var, (-1,))
    scr = np.empty_like(rm)

    def run() -> None:
        np.multiply(rm, 1.0 - m, out=rm)
        np.multiply(mean_flat, m, out=scr)
        np.add(rm, scr, out=rm)
        np.multiply(rv, 1.0 - m, out=rv)
        np.multiply(var_flat, m, out=scr)
        np.add(rv, scr, out=rv)

    return run


# ----------------------------------------------------------------- backward


def _topo_order(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        if node._parents is None:
            raise RuntimeError("backward through a graph that an earlier backward "
                               "already freed (create_graph=True keeps its edges)")
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order


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
    stored on every reachable ``requires_grad`` leaf's ``.grad`` as the walk
    reaches it.  Once a node's VJPs have run, its gradient (unless in
    ``leaves``) and, without ``create_graph``, its edges are freed; a later
    backward through a freed node raises ``RuntimeError``.
    """
    if gradient is None:
        gradient = Tensor(np.ones_like(output.data))
    table: dict[int, Tensor] = {id(output): gradient}
    kept = {id(leaf) for leaf in leaves or ()}

    order = _topo_order(output)
    while order:
        node = order.pop()
        g = table.get(id(node)) if id(node) in kept else table.pop(id(node), None)
        if g is None:
            continue
        if _accumulate and not node._parents and node.requires_grad:
            node.grad = g if node.grad is None else Tensor(node.grad.data + g.data)
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
        if not create_graph and node._parents:
            node._parents = node._vjps = None  # freed: see _topo_order

    if _accumulate:
        return None

    assert leaves is not None, "grad() requires leaves unless accumulating"
    result = []
    for leaf in leaves:
        g = table.get(id(leaf))
        if g is None:
            g = Tensor(np.zeros_like(leaf.data))
        result.append(g)
    return result
