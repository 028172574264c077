"""Bind a graph to ``out=`` kernels over one planned arena.

One binder serves both compilers: :class:`~repro.nn.graph.train.TrainStep`
binds a traced training step, :func:`repro.nn.inference.compile_model` a
lowered forward pass.  :func:`bind` plans the graph's arena
(:func:`~repro.nn.graph.planner.plan_train_memory`), allocates it once,
and turns every op into a closure over preallocated views — arena slices
for activations and gradients, the live ``.data`` of parameters, the
captured arrays of constants.  Each closure runs the very ufunc sequence
the eager op ran (operand order included; only the destination changes),
so a bound graph reproduces its eager origin bit for bit and a replay
performs no array allocation.

One kernel is a substitution, gated by a bitwise probe:
``scatter_add_axis`` runs per-sample ``np.bincount`` where the tape's
record-time probe proved it equal to ``np.add.at``
(:func:`~repro.nn.graph.backward._probe_bincount`).

With a tracer, :meth:`Bound.run` wraps each kernel in one ``nn.op`` span
whose labels (op kind, output value id, arena offset) were fixed here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.nn.autograd import reduce_max
from repro.nn.graph.backward import TOp, TrainGraph
from repro.nn.graph.planner import MemoryPlan, plan_train_memory, validate_train_plan
from repro.nn.im2col import conv_windows
from repro.telemetry import NULL_TRACER, Tracer

__all__ = ["Bound", "bind"]


class _Binder:
    """Resolves value ids to concrete numpy views for one compiled plan.

    Arena roots become slices of the flat arena; aliases compose their
    recorded view recipes on top; params/externs bind the parameter's
    live ``.data`` (stable because the optimizers update in place);
    consts bind the traced array by reference.
    """

    def __init__(self, tg: TrainGraph, plan: MemoryPlan, arena: np.ndarray) -> None:
        self._tg = tg
        self._plan = plan
        self._arena = arena
        self._views: dict[int, np.ndarray] = {}

    def view(self, vid: int) -> np.ndarray:
        got = self._views.get(vid)
        if got is not None:
            return got
        v = self._tg.values[vid]
        if v.alias_of is not None:
            base = self.view(v.alias_of)
            kind = v.view[0]
            if kind == "same":
                out = base
            elif kind == "reshape":
                out = base.reshape(v.view[1])
                if not np.may_share_memory(out, base):
                    raise AssertionError("reshape alias copied at bind time")
            elif kind == "transpose":
                out = base.transpose(v.view[1])
            else:  # ("getitem", key)
                out = base[v.view[1]]
        elif v.kind in ("param", "extern", "const"):
            out = v.data
        else:  # temp/input arena root
            off, _ = self._plan.slots[("value", vid)]
            out = self._arena[off : off + v.size].reshape(v.shape)
        self._views[vid] = out
        return out

    def scratch(self, op_idx: int, i: int, shape: tuple[int, ...]) -> np.ndarray:
        off, _ = self._plan.slots[("scratch", op_idx, i)]
        elems = int(np.prod(shape, dtype=np.int64)) if shape else 1
        return self._arena[off : off + elems].reshape(shape)


def _keep_shape(shape: tuple[int, ...], axes: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(1 if ax in axes else s for ax, s in enumerate(shape))


def _scratch_requests(tg: TrainGraph) -> dict[int, tuple[int, ...]]:
    """Arena-dtype scratch element counts per op (see the kernel binders)."""
    req: dict[int, tuple[int, ...]] = {}
    for i, op in enumerate(tg.ops):  # repro: disable=vectorization -- op bookkeeping
        if op.kind == "power" and op.attrs.get("exponent", 0.0) < 0:
            req[i] = (tg.values[op.inputs[0]].size,)
        elif op.kind == "max_mask":
            shape = tg.values[op.inputs[0]].shape
            req[i] = (int(np.prod(_keep_shape(shape, op.attrs["axes"]), dtype=np.int64)),)
    return req


def _bind_kernel(i: int, op: TOp, b: _Binder) -> Callable[[], None] | None:
    """One ``out=``-style closure mirroring the eager op's exact ufunc
    sequence (operand order included — only the destination changes)."""
    kind = op.kind
    if kind == "alias":
        return None

    if kind == "bn_stats":
        layer = op.attrs["layer"]
        m = float(layer.momentum)
        rm, rv = layer.running_mean, layer.running_var
        mean_v, var_v = b.view(op.inputs[0]), b.view(op.inputs[1])
        mean_flat, var_flat = mean_v.reshape(-1), var_v.reshape(-1)
        if not (
            np.may_share_memory(mean_flat, mean_v)
            and np.may_share_memory(var_flat, var_v)
        ):
            raise AssertionError("bn_stats flatten copied at bind time")
        scr = np.empty_like(rm)

        def run_bn() -> None:
            np.multiply(rm, 1.0 - m, out=rm)
            np.multiply(mean_flat, m, out=scr)
            np.add(rm, scr, out=rm)
            np.multiply(rv, 1.0 - m, out=rv)
            np.multiply(var_flat, m, out=scr)
            np.add(rv, scr, out=rv)

        return run_bn

    o = b.view(op.out)
    ins = [b.view(vid) for vid in op.inputs]

    if kind == "add":
        a, c = ins
        return lambda: np.add(a, c, out=o)
    if kind == "mul":
        a, c = ins
        return lambda: np.multiply(a, c, out=o)
    if kind == "power":
        (a,) = ins
        e = op.attrs["exponent"]
        if e < 0:
            tiny = np.finfo(a.dtype).tiny
            boolbuf = np.empty(a.shape, dtype=bool)
            scr = b.scratch(i, 0, a.shape)

            def run_pow_neg() -> None:
                np.equal(a, 0, out=boolbuf)
                np.copyto(scr, a)
                np.copyto(scr, tiny, where=boolbuf)
                np.power(scr, e, out=o)

            return run_pow_neg
        return lambda: np.power(a, e, out=o)
    if kind == "exp":
        (a,) = ins

        def run_exp() -> None:
            np.clip(a, -500, 500, out=o)
            np.exp(o, out=o)

        return run_exp
    if kind == "log":
        (a,) = ins
        tiny = np.finfo(a.dtype).tiny

        def run_log() -> None:
            np.maximum(a, tiny, out=o)
            np.log(o, out=o)

        return run_log
    if kind == "tanh":
        (a,) = ins
        return lambda: np.tanh(a, out=o)
    if kind == "sigmoid":
        (a,) = ins
        clip = op.attrs.get("clip", True)  # the inference lowering's has none

        def run_sigmoid() -> None:
            if clip:
                np.clip(a, -500, 500, out=o)
                np.negative(o, out=o)
            else:
                np.negative(a, out=o)
            np.exp(o, out=o)
            np.add(o, 1.0, out=o)
            np.divide(1.0, o, out=o)

        return run_sigmoid
    if kind == "relu":
        (a,) = ins
        return lambda: np.maximum(a, 0, out=o)
    if kind == "leaky":
        (a,) = ins
        slope = op.attrs["slope"]
        boolbuf = np.empty(a.shape, dtype=bool)

        def run_leaky_relu() -> None:
            # np.where(a > 0, a, slope * a) without its temporaries
            np.greater(a, 0, out=boolbuf)
            np.multiply(a, slope, out=o)
            np.copyto(o, a, where=boolbuf)

        return run_leaky_relu
    if kind == "relu_mask":
        (a,) = ins
        boolbuf = np.empty(a.shape, dtype=bool)

        def run_relu_mask() -> None:
            np.greater(a, 0, out=boolbuf)
            np.copyto(o, boolbuf)

        return run_relu_mask
    if kind == "leaky_factor":
        (a,) = ins
        slope = op.attrs["slope"]
        boolbuf = np.empty(a.shape, dtype=bool)

        def run_leaky() -> None:
            np.greater(a, 0, out=boolbuf)
            o.fill(slope)
            np.copyto(o, 1.0, where=boolbuf)

        return run_leaky
    if kind == "max_mask":
        (a,) = ins
        axes = op.attrs["axes"]
        boolbuf = np.empty(a.shape, dtype=bool)
        scr = b.scratch(i, 0, _keep_shape(a.shape, axes))
        reduce = reduce_max(a, axes)

        def run_max_mask() -> None:
            reduce(scr)
            np.equal(a, scr, out=boolbuf)
            np.copyto(o, boolbuf)
            np.sum(o, axis=axes, keepdims=True, out=scr)
            np.divide(o, scr, out=o)

        return run_max_mask
    if kind == "max":
        (a,) = ins
        axes = op.attrs["axes"]
        reduce, o_kept = reduce_max(a, axes), o.reshape(_keep_shape(a.shape, axes))
        return lambda: reduce(o_kept)
    if kind == "sum":
        (a,) = ins
        axes, keepdims = op.attrs["axes"], op.attrs["keepdims"]
        return lambda: np.sum(a, axis=axes, keepdims=keepdims, out=o)
    if kind == "mean":
        (a,) = ins
        axes = op.attrs["axes"]
        return lambda: np.mean(a, axis=axes, out=o)
    if kind == "matmul":
        a, c = ins
        return lambda: np.matmul(a, c, out=o)
    if kind == "copy":
        (a,) = ins
        return lambda: np.copyto(o, a)
    if kind == "reshape_copy":
        (a,) = ins
        o_as_in = o.reshape(a.shape)
        return lambda: np.copyto(o_as_in, a)
    if kind == "getitem_copy":
        (a,) = ins
        key = op.attrs["key"]
        return lambda: np.copyto(o, a[key])
    if kind == "take" and "window" in op.attrs:  # a conv gather
        (a,) = ins
        kernel, stride, chw = op.attrs["window"]
        # splitting one axis is always a view, so the windows see ``a``
        windows = conv_windows(a.reshape(a.shape[0], *chw), kernel, stride)
        cols = o.reshape(windows.shape)
        return lambda: np.copyto(cols, windows)
    if kind == "take":
        (a,) = ins
        indices, axis = op.attrs["indices"], op.attrs["axis"]
        return lambda: np.take(a, indices, axis=axis, out=o)
    if kind == "scatter":
        (g,) = ins
        key = op.attrs["key"]

        def run_scatter() -> None:
            o.fill(0)
            np.add.at(o, key, g)

        return run_scatter
    if kind == "scatter_add_axis":
        (g,) = ins
        indices, axis = op.attrs["indices"], op.attrs["axis"]
        shape = op.attrs["shape"]
        if op.attrs.get("bincount_ok") and g.flags.c_contiguous:
            idx_flat = indices.ravel()
            g2 = g.reshape(shape[0], -1)
            minlength = shape[1]

            def run_bincount() -> None:
                for row in range(shape[0]):  # repro: disable=vectorization -- 1-D bincount
                    o[row] = np.bincount(idx_flat, weights=g2[row], minlength=minlength)

            return run_bincount
        moved = np.moveaxis(o, axis, 0)
        g_moved = np.moveaxis(
            g, tuple(range(axis, axis + indices.ndim)), tuple(range(indices.ndim))
        )

        def run_scatter_axis() -> None:
            o.fill(0)
            np.add.at(moved, indices, g_moved)

        return run_scatter_axis
    if kind == "pad2d":
        (a,) = ins
        pad = op.attrs["pad"]
        core = tuple(
            [slice(None)] * (o.ndim - 2) + [slice(pad, -pad), slice(pad, -pad)]
        )
        o_core = o[core]

        def run_pad() -> None:
            o.fill(0)
            np.copyto(o_core, a)

        return run_pad
    raise NotImplementedError(f"no kernel binder for traced op {kind!r}")


@dataclass
class Bound:
    """A graph bound to its arena: kernels in op order, views by value id."""

    tg: TrainGraph
    plan: MemoryPlan
    arena: np.ndarray
    kernels: list[Callable[[], None]]
    #: per-kernel ``nn.op`` span attrs (named by their op kind), parallel
    #: to ``kernels``
    labels: list[dict]
    view: Callable[[int], np.ndarray]

    def run(self, tracer: Tracer = NULL_TRACER) -> None:
        """Run every kernel once; one ``nn.op`` span each when tracing
        (the enabled check is one branch per call, not one per op)."""
        if tracer.enabled:
            for kernel, attrs in zip(self.kernels, self.labels):
                with tracer.span(attrs["kind"], category="nn.op", attrs=attrs):
                    kernel()
        else:
            for kernel in self.kernels:
                kernel()

    def info(self) -> dict:
        """Arena and kernel statistics (for benchmarks/diagnostics)."""
        return {
            "n_ops": len(self.tg.ops),
            "n_kernels": self.tg.n_kernels,
            "n_inplace": self.tg.n_inplace,
            "n_buffers": self.plan.n_buffers,
            "arena_bytes": self.plan.total_bytes,
            "naive_elems": self.plan.naive_elems,
            "arena_elems": self.plan.total_elems,
        }


def bind(tg: TrainGraph) -> Bound:
    """Plan ``tg``'s arena, allocate it and bind every op's kernel."""
    plan = plan_train_memory(tg, _scratch_requests(tg))
    validate_train_plan(plan)
    arena = np.empty(plan.total_elems, dtype=plan.dtype)
    binder = _Binder(tg, plan, arena)
    kernels, labels = [], []
    for i, op in enumerate(tg.ops):
        kernel = _bind_kernel(i, op, binder)
        if kernel is None:
            continue
        kernels.append(kernel)
        slot = plan.slots.get(("value", tg.storage_root(op.out))) if op.out is not None else None
        labels.append({"kind": op.kind, "out": op.out, "arena_off": slot[0] if slot else -1})
    return Bound(tg, plan, arena, kernels, labels, binder.view)
