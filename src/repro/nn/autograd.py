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
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.nn.im2col import conv_windows

__all__ = [
    "Tensor",
    "Tape",
    "as_tensor",
    "grad",
    "no_grad",
    "tape_side_effect",
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


def tape_side_effect(op: str, inputs: tuple, **attrs) -> None:
    """Record a non-tensor side effect (e.g. BatchNorm running stats)."""
    _rec(op, inputs, None, **attrs)


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
    """Elementwise power with a constant exponent."""
    if exponent < 0:
        tiny = np.finfo(a.data.dtype).tiny
        data = np.power(np.where(a.data == 0, tiny, a.data), exponent)
    else:
        data = np.power(a.data, exponent)
    out = _make(
        data,
        (a,),
        (lambda g: mul(g, mul(Tensor(exponent), power(a, exponent - 1.0))),),
    )
    _rec("power", (a,), out, exponent=exponent)
    return out


def exp(a: Tensor) -> Tensor:
    """Elementwise exponential (input clipped for stability)."""
    out_data = np.exp(np.clip(a.data, -500, 500))
    out = _make(out_data, (a,), ())
    if out.requires_grad:
        out._parents = (a,)
        out._vjps = (lambda g: mul(g, out),)
    _rec("exp", (a,), out)
    return out


def log(a: Tensor) -> Tensor:
    """Elementwise natural log (clamped away from zero)."""
    out = _make(
        np.log(np.maximum(a.data, np.finfo(a.data.dtype).tiny)),
        (a,),
        (lambda g: mul(g, power(a, -1.0)),),
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
    out = _make(1.0 / (1.0 + np.exp(-np.clip(a.data, -500, 500))), (a,), ())
    if out.requires_grad:
        out._parents = (a,)
        out._vjps = (lambda g: mul(g, mul(out, add(Tensor(1.0), -out))),)
    _rec("sigmoid", (a,), out)
    return out


def relu(a: Tensor) -> Tensor:
    """Elementwise max(x, 0)."""
    mask = Tensor((a.data > 0).astype(a.data.dtype))
    _rec("relu_mask", (a,), mask)
    out = _make(a.data * mask.data, (a,), (lambda g: mul(g, mask),))
    _rec("mul", (a, mask), out)
    return out


def leaky_relu(a: Tensor, slope: float = 0.2) -> Tensor:
    """Elementwise leaky ReLU with the given negative slope."""
    factor = Tensor(np.where(a.data > 0, 1.0, slope))
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

    data = np.zeros(shape, dtype=g.data.dtype)
    np.add.at(data, key, g.data)
    out = _make(data, (g,), (vjp,))
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
    ``window=(kernel, stride, (C, H, W))`` so bound graphs copy too."""
    b, c, h, w = a.shape
    flat = reshape(a, (b, c * h * w))
    data = np.ascontiguousarray(conv_windows(a.data, kernel, stride)).reshape(b, *indices.shape)

    def vjp(g: Tensor) -> Tensor:
        return _scatter_add_axis(g, indices, 1, flat.shape)

    out = _make(data, (flat,), (vjp,))
    _rec("take", (flat,), out, indices=indices, axis=1, window=(kernel, stride, (c, h, w)))
    return out


def _scatter_add_axis(
    g: Tensor, indices: np.ndarray, axis: int, shape: tuple[int, ...]
) -> Tensor:
    def vjp(gg: Tensor) -> Tensor:
        return take(gg, indices, axis=axis)

    data = np.zeros(shape, dtype=g.data.dtype)
    # move target axis first for np.add.at, mirroring take's output layout
    moved = np.moveaxis(data, axis, 0)
    g_moved = np.moveaxis(
        g.data, tuple(range(axis, axis + indices.ndim)), tuple(range(indices.ndim))
    )
    np.add.at(moved, indices, g_moved)
    out = _make(data, (g,), (vjp,))
    _rec("scatter_add_axis", (g,), out, indices=indices, axis=axis, shape=tuple(shape))
    return out


def pad2d(a: Tensor, pad: int) -> Tensor:
    """Zero-pad the last two axes of a (B, C, H, W) tensor."""
    if pad == 0:
        return a
    width = [(0, 0)] * (a.ndim - 2) + [(pad, pad), (pad, pad)]
    key = tuple([slice(None)] * (a.ndim - 2) + [slice(pad, -pad), slice(pad, -pad)])

    def vjp(g: Tensor) -> Tensor:
        return getitem(g, key)

    out = _make(np.pad(a.data, width), (a,), (vjp,))
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
            expand = list(g.shape)
            for ax in sorted(axes):
                expand.insert(ax, 1)
            g = reshape(g, tuple(expand))
        return mul(g, Tensor(np.ones(shape)))

    out = _make(a.data.sum(axis=axes, keepdims=keepdims), (a,), (vjp,))
    _rec("sum", (a,), out, axes=axes, keepdims=keepdims)
    return out


def tensor_mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    """Mean reduction over the given axes."""
    axes = _normalize_axis(axis, a.ndim)
    count = float(np.prod([a.shape[ax] for ax in axes]))
    return mul(tensor_sum(a, axis=axis, keepdims=keepdims), Tensor(1.0 / count))


def reduce_max(a: np.ndarray, axes: tuple[int, ...]) -> Callable[..., np.ndarray]:
    """``np.amax(a, axis=axes, keepdims=True, out=out)`` as a function of ``out``.

    Over two length-2 axes (2×2 pooling) it runs three ``np.maximum`` over
    the window corners in the order (0,0), (0,1), (1,0), (1,1).  Exactness
    fact: ``np.maximum`` keeps its first operand on ties and propagates
    NaN, and ``amax`` reduces a window in that order, so the two agree bit
    for bit (all 625 windows over {−0.0, +0.0, NaN, ±1} are tested).
    """
    if len(axes) != 2 or any(a.shape[ax] != 2 for ax in axes):
        return lambda out=None: np.amax(a, axis=axes, keepdims=True, out=out)
    key = [slice(None)] * a.ndim
    corners = []
    for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)):
        key[axes[0]], key[axes[1]] = slice(i, i + 1), slice(j, j + 1)
        corners.append(a[tuple(key)])
    c00, c01, c10, c11 = corners

    def run(out: np.ndarray | None = None) -> np.ndarray:
        out = np.maximum(c00, c01, out=out)
        np.maximum(out, c10, out=out)
        return np.maximum(out, c11, out=out)

    return run


def tensor_max(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    """Max reduction; tied maxima split the gradient."""
    axes = _normalize_axis(axis, a.ndim)
    out_data = reduce_max(a.data, axes)()
    # subgradient mask, ties split evenly (constant w.r.t. the graph)
    mask = (a.data == out_data).astype(a.data.dtype)
    mask /= mask.sum(axis=axes, keepdims=True)
    mask_t = Tensor(mask)
    _rec("max_mask", (a,), mask_t, axes=axes)

    def vjp(g: Tensor) -> Tensor:
        if not keepdims:
            expand = list(g.shape)
            for ax in sorted(axes):
                expand.insert(ax, 1)
            g = reshape(g, tuple(expand))
        return mul(g, mask_t)

    final = out_data if keepdims else out_data.squeeze(axes)
    out = _make(final, (a,), (vjp,))
    _rec("max", (a,), out, axes=axes, keepdims=keepdims)
    return out


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
