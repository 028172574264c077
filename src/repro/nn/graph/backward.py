"""The graph IR, and the tape front end that lowers a training step to it.

:class:`TrainGraph` (values :class:`TValue`, ops :class:`TOp`) is the one
IR of :mod:`repro.nn.graph`: training steps reach it through
:func:`build_train_graph` below, inference through
:func:`repro.nn.graph.lower.lower_frozen` (a graph with no backward).

Reverse-mode autodiff over the op-graph IR works by *tracing the eager
engine once*: the first step at each input shape runs the ordinary eager
forward + ``loss.backward()`` under an active
:class:`repro.nn.autograd.Tape`.  Because every vector–Jacobian product
in :mod:`repro.nn.autograd` is itself written in tensor primitives, the
tape sees the **entire** fwd+bwd computation — including double
backward through the WGAN gradient penalty — in the exact order the
eager engine executed it, and its recorder lowers each primitive to the
:class:`TrainGraph` the moment it has run, keeping no tensor alive.
Replaying that graph with ``out=`` kernels therefore reproduces the eager
step bit-for-bit *by construction*: same ufuncs, same operand order,
same reduction axes, no reassociation anywhere.

Data-dependent values the eager ops compute internally (ReLU masks,
leaky-ReLU factors, max tie-splitting masks) arrive on the tape
as explicit aux ops, so a replay recomputes them for fresh inputs; facts
that need an op's arrays (view-or-copy, contiguity, the bincount probe)
are read at record time, while those arrays live.

Leaf classification
-------------------
Tensors that appear as op inputs but were never produced by a recorded
op are leaves:

* ``input``  — the step's minibatch arrays (copied into the arena);
* ``param``  — optimizer-owned :class:`~repro.nn.layers.Parameter`\\ s
  (read/updated through their live ``.data``, gradients materialized);
* ``extern`` — Parameters *not* owned by the step's optimizer (e.g. the
  critic's weights inside the autoencoder step): read through their live
  ``.data`` so interleaved updates by another TrainStep are observed;
* ``const``  — everything else (VJP seed/ones/scalar tensors), captured
  by reference — eager ops never mutate their outputs, so the arrays are
  immutable after the trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.nn.autograd import Tape, Tensor
from repro.nn.layers import Parameter

__all__ = ["TValue", "TOp", "TrainGraph", "build_train_graph"]

#: liveness sentinel — "read after every op" (outputs, gradients)
LAST_FOREVER = 1 << 30

#: ops whose output is a numpy *view* of their input (no kernel at all)
ALIAS_KINDS = frozenset({"reshape", "transpose", "getitem"})

#: elementwise ops whose kernel may legally write into a dying input's
#: buffer (the in-place coalescing pass uses this; each of their kernels
#: in :mod:`repro.nn.autograd` reads an element before writing it)
INPLACE_KINDS = frozenset(
    {"add", "mul", "power", "exp", "log", "tanh", "sigmoid", "relu",
     "relu_mask", "leaky_factor", "max_mask", "copy"}
)


@dataclass
class TValue:
    """One SSA value of the training graph (absolute shapes)."""

    vid: int
    shape: tuple[int, ...]
    dtype: np.dtype
    kind: str  # "input" | "param" | "extern" | "const" | "temp"
    data: np.ndarray | None = None  # const/extern/param: live array (by ref)
    param: Parameter | None = None  # param/extern: identity-guarded owner
    alias_of: int | None = None  # view of another value (reshape/transpose/…)
    # ("reshape", shape) | ("transpose", axes) | ("getitem", key) | ("same",)
    view: tuple | None = None
    contiguous: bool = True

    @property
    def size(self) -> int:
        """Total number of elements."""
        return int(np.prod(self.shape, dtype=np.int64)) if self.shape else 1


@dataclass
class TOp:
    """One executable step (or pure alias) of the training graph."""

    kind: str
    inputs: tuple[int, ...]
    out: int | None
    attrs: dict = field(default_factory=dict)
    inplace_on: int | None = None  # input position whose buffer `out` reuses

    @property
    def is_alias(self) -> bool:
        """True for ops that bind as views and execute no kernel."""
        return self.kind == "alias"


@dataclass
class TrainGraph:
    """A lowered fwd+bwd(+side-effect) training step.

    ``grad_vids`` maps positions in the traced parameter list to the
    value holding that parameter's final accumulated gradient;
    ``output_vids`` lists the loss (first) plus any aux outputs.
    """

    values: list[TValue]
    ops: list[TOp]
    input_vids: list[int]
    param_vids: dict[int, int]
    grad_vids: dict[int, int]
    output_vids: list[int]
    dtype: np.dtype

    # ------------------------------------------------------------ aliases
    def storage_root(self, vid: int) -> int:
        """Follow the alias chain to the value owning the storage."""
        v = self.values[vid]
        while v.alias_of is not None:
            v = self.values[v.alias_of]
        return v.vid

    # ----------------------------------------------------------- liveness
    def root_intervals(self) -> tuple[dict[int, int], dict[int, int]]:
        """Per arena root: (definition op index, last read op index).

        Only roots of kind ``temp``/``input`` get arena storage; inputs
        are filled before the first op (definition step -1).  Outputs and
        parameter gradients are read after the last op (the optimizer /
        the caller), side-effect operands at their op's index.
        """
        defined: dict[int, int] = {}
        last: dict[int, int] = {}
        for vid in self.input_vids:
            root = self.storage_root(vid)
            defined[root] = -1
            last[root] = -1
        for i, op in enumerate(self.ops):
            for vid in op.inputs:
                root = self.storage_root(vid)
                if root in defined:
                    last[root] = i
            if op.out is not None:
                root = self.storage_root(op.out)
                if self.values[root].kind in ("temp", "input") and root not in defined:
                    defined[root] = i
                    last.setdefault(root, i)
        for vid in list(self.output_vids) + list(self.grad_vids.values()):
            root = self.storage_root(vid)
            if root in defined:
                last[root] = LAST_FOREVER
        return defined, last

    @property
    def n_kernels(self) -> int:
        """Number of ops that execute a kernel (non-alias)."""
        return sum(1 for op in self.ops if not op.is_alias)

    @property
    def n_inplace(self) -> int:
        """Number of kernels coalesced onto an input's buffer."""
        return sum(1 for op in self.ops if op.inplace_on is not None)


def _is_basic_key(key) -> bool:
    """True if ``key`` uses only basic indexing (numpy returns a view)."""
    items = key if isinstance(key, tuple) else (key,)
    for k in items:
        if isinstance(k, (int, np.integer, slice)) or k is None or k is Ellipsis:
            continue
        return False
    return True


def _probe_bincount(indices: np.ndarray, g: np.ndarray, shape, ref: np.ndarray) -> bool:
    """Can this scatter-add be served by per-sample ``np.bincount``?

    ``np.add.at`` is the bitwise-faithful adjoint of ``take`` but is slow
    (buffered fancy indexing).  For the conv-backward pattern —
    2-D target ``(batch, n)`` scattered along axis 1 by a 2-D index map —
    per-sample ``bincount`` applies the *same sequential accumulation
    order* per target cell; this probe proves bit-equality on the traced
    data and gates the fast kernel (PR 4's probe-don't-assume idiom).
    """
    if len(shape) != 2 or indices.ndim != 2 or not g.flags.c_contiguous:
        return False
    if g.dtype != np.float64:  # bincount accumulates in float64 only
        return False
    idx_flat = indices.ravel()
    g2 = g.reshape(shape[0], -1)
    cand = np.empty(shape, dtype=ref.dtype)
    for b in range(shape[0]):  # repro: disable=vectorization -- bincount is 1-D only
        cand[b] = np.bincount(idx_flat, weights=g2[b], minlength=shape[1])
    return bool(np.array_equal(cand, ref))


def build_train_graph(
    fn: Callable[..., Tensor | tuple],
    inputs: Sequence[Tensor],
    params: Sequence[Parameter],
) -> tuple[TrainGraph, tuple[Tensor, ...]]:
    """Run ``fn(*inputs)`` and ``backward()`` on its loss (its first or
    only output), lowering both to a :class:`TrainGraph` as they run;
    returns the graph and the outputs.

    ``params`` are the optimizer parameters (their ``.grad`` tensors,
    where present, become the graph's gradient outputs).  Value ids live
    in each tensor's ``_vid`` slot, tagged with this call, never in a
    table of tensors.
    """
    values: list[TValue] = []
    tag = object()

    def new_value(t: Tensor, kind: str, **kw) -> int:
        vid = len(values)
        values.append(
            TValue(vid=vid, shape=t.data.shape, dtype=t.data.dtype, kind=kind, **kw)
        )
        t._vid = (tag, vid)
        return vid

    def vid_of(t: Tensor) -> int | None:
        label = t._vid
        return label[1] if label is not None and label[0] is tag else None

    param_vids: dict[int, int] = {}
    for t in inputs:
        new_value(t, "input")
    for pos, p in enumerate(params):  # repro: disable=vectorization -- id bookkeeping
        param_vids[pos] = new_value(p, "param", data=p.data, param=p)

    def leaf_vid(t: Tensor) -> int:
        vid = vid_of(t)
        if vid is not None:
            return vid
        if isinstance(t, Parameter):
            return new_value(t, "extern", data=t.data, param=t)
        return new_value(t, "const", data=t.data)

    ops: list[TOp] = []

    def record(op_name: str, tin: tuple, tout: Tensor | None, attrs: dict) -> None:
        in_vids = tuple(leaf_vid(t) for t in tin)
        if tout is None:  # side effect (bn_stats)
            ops.append(TOp(op_name, in_vids, None, dict(attrs)))
            return
        if vid_of(tout) is not None:
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
                return
            # numpy had to copy (reshape of an incompatible strided view /
            # advanced indexing) — lower to an explicit copy kernel
            out_vid = new_value(tout, "temp")
            kind = "reshape_copy" if op_name == "reshape" else "getitem_copy"
            ops.append(TOp(kind, in_vids, out_vid, dict(attrs)))
            return
        out_vid = new_value(tout, "temp")
        top = TOp(op_name, in_vids, out_vid, dict(attrs))
        if op_name == "scatter_add_axis":
            top.attrs["bincount_ok"] = _probe_bincount(
                attrs["indices"], tin[0].data, attrs["shape"], tout.data
            )
        ops.append(top)

    with Tape(record):
        outputs = fn(*inputs)
        outputs = outputs if isinstance(outputs, tuple) else (outputs,)
        outputs[0].backward()

    grad_vids: dict[int, int] = {}
    for pos, p in enumerate(params):  # repro: disable=vectorization -- id bookkeeping
        if p.grad is None:
            continue
        vid = vid_of(p.grad)
        if vid is None:
            raise AssertionError(
                "parameter gradient was not produced by a recorded op "
                "(was backward() run under the tape?)"
            )
        grad_vids[pos] = vid

    output_vids = []
    for t in outputs:
        vid = vid_of(t)
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
    ), outputs
