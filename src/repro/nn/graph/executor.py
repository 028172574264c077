"""Bind a graph to its eager kernels over one planned arena.

One binder serves both compilers: :class:`~repro.nn.graph.train.TrainStep`
binds a traced training step, :func:`repro.nn.inference.compile_model` a
lowered forward pass.  :func:`bind` plans the graph's arena
(:func:`~repro.nn.graph.planner.plan_train_memory`), allocates it once,
and resolves every op's operands to preallocated views — arena slices
for activations and gradients, the live ``.data`` of parameters, the
captured arrays of constants.  Each op then runs the one kernel its kind
has, ``repro.nn.autograd.kernel_<kind>``, the very function the eager op
runs into a fresh array; only the destination changes, so a bound graph
reproduces its eager origin bit for bit and a replay performs no array
allocation.

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

from repro.nn import autograd
from repro.nn.graph.backward import TOp, TrainGraph
from repro.nn.graph.planner import MemoryPlan, plan_train_memory, validate_train_plan
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


def _bind_kernel(op: TOp, b: _Binder) -> Callable[[], object] | None:
    """The op's kernel over its bound views; ``None`` for an alias."""
    if op.is_alias:
        return None
    ins = tuple(b.view(vid) for vid in op.inputs)
    out = b.view(op.out) if op.out is not None else None
    g = ins[0]
    if op.kind == "scatter_add_axis" and op.attrs.get("bincount_ok") and g.flags.c_contiguous:
        idx_flat = op.attrs["indices"].ravel()
        g2 = g.reshape(out.shape[0], -1)
        minlength = out.shape[1]

        def run_bincount() -> None:
            for row in range(out.shape[0]):  # repro: disable=vectorization -- 1-D bincount
                out[row] = np.bincount(idx_flat, weights=g2[row], minlength=minlength)

        return run_bincount
    kernel = getattr(autograd, f"kernel_{op.kind}", None)
    if kernel is None:
        raise NotImplementedError(f"no kernel for traced op {op.kind!r}")
    return kernel(ins, out, op.attrs)


@dataclass
class Bound:
    """A graph bound to its arena: kernels in op order, views by value id."""

    tg: TrainGraph
    plan: MemoryPlan
    arena: np.ndarray
    kernels: list[Callable[[], object]]
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
    plan = plan_train_memory(tg)
    validate_train_plan(plan)
    arena = np.empty(plan.total_elems, dtype=plan.dtype)
    binder = _Binder(tg, plan, arena)
    kernels, labels = [], []
    for op in tg.ops:
        kernel = _bind_kernel(op, binder)
        if kernel is None:
            continue
        kernels.append(kernel)
        slot = plan.slots.get(("value", tg.storage_root(op.out))) if op.out is not None else None
        labels.append({"kind": op.kind, "out": op.out, "arena_off": slot[0] if slot else -1})
    return Bound(tg, plan, arena, kernels, labels, binder.view)
