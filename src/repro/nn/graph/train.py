"""Compiled training steps: trace the eager engine once, replay with
``out=`` kernels forever after.

:class:`TrainStep` wraps a loss function ``fn(*tensors) -> Tensor`` (or a
tuple whose first element is the loss) plus an optimizer.  The first call
at each input-shape signature **is** an ordinary eager training step —
forward, ``backward()``, ``optimizer.step()`` — whose forward and
backward run under a :class:`~repro.nn.autograd.Tape` that lowers each
op to a :class:`~repro.nn.graph.backward.TrainGraph` as it records; the
eager graph is released before anything is allocated.  The graph is
scheduled by the training passes (dead-branch elimination,
IEEE-identity simplification, in-place coalescing — no arithmetic is
reassociated), arena-planned, and bound to a flat list of ``out=``
kernel closures.  Subsequent same-shape calls
replay the kernels against preallocated views and finish with the
optimizer's :meth:`~repro.nn.optim._Optimizer.bind_compiled` closure:
zero per-step array allocations, and — because every kernel runs the
very same ufunc sequence on identically-laid-out operands — weights,
losses and optimizer state stay **bitwise-identical** to the eager
trainer at every step.

The eager path therefore remains the oracle: any divergence is a bug in
the compiler, never a tolerance question.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.nn.autograd import Tensor
from repro.nn.graph.backward import TrainGraph, TOp, build_train_graph
from repro.nn.graph.passes import PassStats, optimize_train
from repro.nn.graph.planner import MemoryPlan, plan_train_memory, validate_train_plan
from repro.nn.layers import Parameter

__all__ = ["TrainStep"]


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


def _scratch_requests(tg: TrainGraph) -> dict[int, tuple[int, ...]]:
    """Arena-dtype scratch element counts per op (see kernel binders)."""
    req: dict[int, tuple[int, ...]] = {}
    for i, op in enumerate(tg.ops):  # repro: disable=vectorization -- op bookkeeping
        if op.kind == "power" and op.attrs.get("exponent", 0.0) < 0:
            req[i] = (tg.values[op.inputs[0]].size,)
        elif op.kind == "max_mask":
            shape = tg.values[op.inputs[0]].shape
            axes = op.attrs["axes"]
            keep = [1 if ax in axes else s for ax, s in enumerate(shape)]
            req[i] = (int(np.prod(keep, dtype=np.int64)),)
    return req


def _keep_shape(shape: tuple[int, ...], axes: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(1 if ax in axes else s for ax, s in enumerate(shape))


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

        def run_sigmoid() -> None:
            np.clip(a, -500, 500, out=o)
            np.negative(o, out=o)
            np.exp(o, out=o)
            np.add(o, 1.0, out=o)
            np.divide(1.0, o, out=o)

        return run_sigmoid
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

        def run_max_mask() -> None:
            np.amax(a, axis=axes, keepdims=True, out=scr)
            np.equal(a, scr, out=boolbuf)
            np.copyto(o, boolbuf)
            np.sum(o, axis=axes, keepdims=True, out=scr)
            np.divide(o, scr, out=o)

        return run_max_mask
    if kind == "max":
        (a,) = ins
        axes, keepdims = op.attrs["axes"], op.attrs["keepdims"]
        return lambda: np.amax(a, axis=axes, keepdims=keepdims, out=o)
    if kind == "sum":
        (a,) = ins
        axes, keepdims = op.attrs["axes"], op.attrs["keepdims"]
        return lambda: np.sum(a, axis=axes, keepdims=keepdims, out=o)
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
    if kind == "take":
        (a,) = ins
        indices, axis = op.attrs["indices"], op.attrs["axis"]
        # mode="clip" skips numpy's buffered bounds-checking path (~3x
        # faster) and selects the very same elements whenever every index
        # is already in range — gated, since "clip" would silently remap
        # negative/out-of-range indices that "raise" handles differently
        if indices.size and 0 <= indices.min() and indices.max() < a.shape[axis]:
            return lambda: np.take(a, indices, axis=axis, out=o, mode="clip")
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
class _Compiled:
    """One bound plan: kernels + views for a fixed input-shape signature."""

    tg: TrainGraph
    plan: MemoryPlan
    arena: np.ndarray
    kernels: list[Callable[[], None]]
    input_views: list[np.ndarray]
    output_views: list[np.ndarray]
    grad_views: dict[int, np.ndarray]
    opt_run: Callable[[], None]
    guards: list[tuple[Parameter, np.ndarray]]
    pass_stats: PassStats = field(default_factory=dict)


class TrainStep:
    """A compiled ``fwd+bwd+optimizer`` step with an eager oracle.

    Parameters
    ----------
    fn:
        ``fn(*tensors) -> Tensor | tuple[Tensor, ...]``; the first (or
        only) returned tensor is the loss that ``backward()`` runs on.
        Auxiliary outputs are returned alongside the loss on every call.
    optimizer:
        Owns the parameters to update; its in-place ``_update``
        sequences run identically on both paths.
    input_requires_grad:
        Per-input flags (default all ``False``); inputs that require
        grad (e.g. WGAN-GP interpolates) participate in double backward.

    Calls take numpy arrays and return floats (0-d outputs) / array
    copies.  The first call at each input-shape signature runs — and
    *is* — the eager step while tracing; later same-shape calls replay
    the compiled kernels.  Trajectories are bitwise-identical either
    way.
    """

    def __init__(
        self,
        fn: Callable[..., Tensor | tuple],
        optimizer,
        input_requires_grad: Sequence[bool] | None = None,
    ) -> None:
        self.fn = fn
        self.optimizer = optimizer
        self._flags = tuple(input_requires_grad) if input_requires_grad else None
        self._plans: dict[tuple, _Compiled] = {}
        self._last_grads: list[np.ndarray] = []

    # ------------------------------------------------------------- tracing
    def _trace(self, key: tuple, arrays: Sequence[np.ndarray]) -> tuple:
        flags = self._flags or (False,) * len(arrays)
        xs = [Tensor(a, requires_grad=f) for a, f in zip(arrays, flags)]
        self.optimizer.zero_grad()
        params = self.optimizer.params
        tg, outs_t = build_train_graph(self.fn, xs, params)
        result = tuple(float(t.data) if t.data.ndim == 0 else t.data.copy() for t in outs_t)
        # free the eager graph before the arena: the VJPs of exp, tanh and
        # sigmoid close over their own output, so refcounting never would
        stack = [*outs_t, *(p.grad for p in params if p.grad is not None)]
        while stack:
            t = stack.pop()
            stack.extend(t._parents)
            t._parents = t._vjps = ()
        self.optimizer.step()

        stats = optimize_train(tg)
        plan = plan_train_memory(tg, _scratch_requests(tg))
        validate_train_plan(plan)
        arena = np.empty(plan.total_elems, dtype=plan.dtype)
        binder = _Binder(tg, plan, arena)
        kernels = [
            k
            for i, op in enumerate(tg.ops)
            if (k := _bind_kernel(i, op, binder)) is not None
        ]
        grad_views = {pos: binder.view(vid) for pos, vid in tg.grad_vids.items()}
        guards = [
            (v.param, v.data)
            for v in tg.values
            if v.param is not None and v.kind in ("param", "extern")
        ]
        self._plans[key] = _Compiled(
            tg=tg,
            plan=plan,
            arena=arena,
            kernels=kernels,
            input_views=[binder.view(vid) for vid in tg.input_vids],
            output_views=[binder.view(vid) for vid in tg.output_vids],
            grad_views=grad_views,
            opt_run=self.optimizer.bind_compiled(grad_views),
            guards=guards,
            pass_stats=stats,
        )
        self._last_grads = [p.grad.data for p in params if p.grad is not None]
        return result

    # -------------------------------------------------------------- replay
    def __call__(self, *arrays: np.ndarray):
        arrays = tuple(np.asarray(a) for a in arrays)
        key = tuple(a.shape for a in arrays)
        c = self._plans.get(key)
        if c is None:
            outs = self._trace(key, arrays)
            return outs[0] if len(outs) == 1 else outs
        for p, captured in c.guards:
            if p.data is not captured:
                raise RuntimeError(
                    "parameter storage was rebound after tracing; compiled "
                    "TrainStep requires in-place parameter updates"
                )
        for view, a in zip(c.input_views, arrays):
            np.copyto(view, a)
        for k in c.kernels:
            k()
        c.opt_run()
        self._last_grads = [c.grad_views[pos] for pos in sorted(c.grad_views)]
        outs = tuple(
            float(v) if v.ndim == 0 else v.copy() for v in c.output_views
        )
        return outs[0] if len(outs) == 1 else outs

    # ----------------------------------------------------------- telemetry
    def grad_norm(self) -> float:
        """Global L2 norm of the last step's gradients (either path),
        computed with the same per-parameter loop as the eager reference's
        ``grad_norm``, so telemetry values match across engines bitwise."""
        total = 0.0
        for g in self._last_grads:
            total += float((g**2).sum())
        return float(np.sqrt(total))

    def plan_info(self) -> dict:
        """Per-shape compile statistics (for benchmarks/diagnostics)."""
        info: dict = {}
        for key, c in self._plans.items():
            info[str(key)] = {
                "n_ops": len(c.tg.ops),
                "n_kernels": c.tg.n_kernels,
                "n_inplace": c.tg.n_inplace,
                "arena_bytes": c.plan.total_bytes,
                "naive_elems": c.plan.naive_elems,
                "arena_elems": c.plan.total_elems,
                "pass_stats": dict(c.pass_stats),
            }
        return info
