"""Graph passes: scheduling rewrites that never reassociate.

One pipeline, :func:`optimize_train`, runs over every
:class:`~repro.nn.graph.backward.TrainGraph` — a traced training step or
a lowered inference graph.  The bit-identity contract with the eager
engine forbids algebraic folding (multiplying a BatchNorm scale into conv
weights reassociates the accumulation), so a pass only reschedules: it
drops ops or changes a kernel's destination, never the ufunc sequence.
Nothing is left to rewrite by IEEE-754 identities either: the eager VJPs
emit no multiply by ones or ``pow(x, 1)`` in the first place
(``tensor_sum`` broadcasts with a ``copy``, ``power`` differentiates a
square through ``a``).

1. ``eliminate_dead_train`` — drop ops that feed no output, gradient or
   side effect;
2. ``coalesce_inplace`` — an elementwise op that is the last reader of
   an input writes into that input's buffer.  In an inference graph this
   is what makes conv → bias → BatchNorm → ReLU, and each residual tail
   (skip add, ReLU), run in place on the matmul's output buffer.
"""

from __future__ import annotations

from repro.nn.graph.backward import INPLACE_KINDS, LAST_FOREVER, TrainGraph

__all__ = [
    "PassStats",
    "coalesce_inplace",
    "eliminate_dead_train",
    "optimize_train",
]

#: per-pass rewrite counts, in pipeline order
PassStats = dict[str, int]


def eliminate_dead_train(tg: TrainGraph) -> int:
    """Drop ops whose results feed neither outputs, gradients nor side
    effects — e.g. the critic weight-gradient branch inside the
    autoencoder step, whose optimizer does not own the critic."""
    live: set[int] = set(tg.output_vids) | set(tg.grad_vids.values())
    keep: list[bool] = [False] * len(tg.ops)
    for i in range(len(tg.ops) - 1, -1, -1):  # repro: disable=vectorization -- liveness
        op = tg.ops[i]
        if op.out is None or op.out in live:
            keep[i] = True
            live.update(op.inputs)
    removed = keep.count(False)
    tg.ops = [op for i, op in enumerate(tg.ops) if keep[i]]
    return removed


def coalesce_inplace(tg: TrainGraph) -> int:
    """Fuse elementwise kernels onto a dying input's buffer.

    When an elementwise op is the *last* reader of one of its inputs and
    shapes match, its kernel writes straight into that input's storage
    (same ufunc, same operands — only the destination changes), so activation
    gradients fold onto the upstream gradient buffer and the ``add`` that
    accumulates dL/dW lands in place.  Safety conditions: the reused
    storage root must be arena-owned (never a parameter or captured
    const), must not be read by any later op, must not back another
    operand of the same op, and must be C-contiguous like the fresh
    array the eager op returned.
    """
    vid_last: dict[int, int] = {}
    for i, op in enumerate(tg.ops):
        for vid in op.inputs:
            vid_last[vid] = i
    for vid in list(tg.output_vids) + list(tg.grad_vids.values()):
        vid_last[vid] = LAST_FOREVER

    root_last: dict[int, int] = {}
    for vid, last in vid_last.items():
        root = tg.storage_root(vid)
        root_last[root] = max(root_last.get(root, -1), last)

    fused = 0
    for i, op in enumerate(tg.ops):
        if op.kind not in INPLACE_KINDS or op.out is None or op.is_alias:
            continue
        out_v = tg.values[op.out]
        for pos, vin in enumerate(op.inputs):
            root = tg.storage_root(vin)
            if tg.values[root].kind not in ("temp", "input"):
                continue
            if root_last.get(root, -1) != i:
                continue
            # the eager output was a fresh C-contiguous array, and later
            # reshapes of it were recorded as views on that layout
            if tg.values[vin].shape != out_v.shape or not tg.values[vin].contiguous:
                continue
            if any(
                other != vin and tg.storage_root(other) == root
                for other in op.inputs
            ):
                continue
            op.inplace_on = pos
            out_v.alias_of = vin
            out_v.view = ("same",)
            out_v.contiguous = tg.values[vin].contiguous
            root_last[root] = max(
                root_last.get(root, -1), root_last.get(op.out, vid_last.get(op.out, i))
            )
            fused += 1
            break
    return fused


def optimize_train(tg: TrainGraph) -> PassStats:
    """Run the pass pipeline over ``tg`` in place; returns rewrite counts.
    Drops the constants no op reads any more (those of dead ops)."""
    stats = {
        "eliminate_dead_train": eliminate_dead_train(tg),
        "coalesce_inplace": coalesce_inplace(tg),
    }
    read = {vid for op in tg.ops for vid in op.inputs}
    for v in tg.values:
        if v.kind == "const" and v.vid not in read:
            v.data = None
    return stats
