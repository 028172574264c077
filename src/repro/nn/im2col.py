"""Shared im2col index plans: one process-wide LRU for every conv.

A convolution lowered to matmul needs a gather plan — the flat indices
that pull each im2col patch column out of a (padded) ``(C, H, W)``
sample.  The plan depends only on ``(kernel, stride, C, H, W)``, yet the
old design cached it per ``Conv2d`` *instance*: sixteen identical
residual-block convs built sixteen copies of the same multi-megabyte
index array, and nothing ever evicted them.  This module owns the plans
instead — a bounded, module-level LRU shared by the training forward
pass (``Conv2d.forward``'s ``take``) and the compiled inference graph,
which lowers a conv to that very op.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = ["conv_index_plan", "conv_out_hw", "plan_cache_info"]

#: bound on distinct (kernel, stride, C, H, W) geometries kept alive;
#: generous for real models (the surrogate needs 5) while stopping a
#: shape-sweeping workload from pinning unbounded index memory
_MAX_PLANS = 128


def conv_out_hw(kernel: int, stride: int, h: int, w: int) -> tuple[int, int]:
    """Output spatial dims of a VALID conv over an ``(h, w)`` input."""
    return (h - kernel) // stride + 1, (w - kernel) // stride + 1


@lru_cache(maxsize=_MAX_PLANS)
def conv_index_plan(kernel: int, stride: int, c: int, h: int, w: int) -> np.ndarray:
    """Flat indices into ``(C*H*W)`` selecting each im2col patch column.

    Returns an int64 array of shape ``(c*kernel*kernel, oh*ow)`` whose
    column ``oy*ow + ox`` lists the flat sample offsets of the receptive
    field at output position ``(oy, ox)``.  Cached process-wide; callers
    must treat the result as read-only.
    """
    oh, ow = conv_out_hw(kernel, stride, h, w)
    # patch skeleton at output (0, 0): channel-major, then kernel row/col
    patch = (
        np.arange(c)[:, None, None] * (h * w)
        + (np.arange(kernel)[:, None] * w)[None]
        + np.arange(kernel)[None, None, :]
    ).reshape(-1)
    # top-left corner offset of every output position
    corners = (
        np.arange(oh)[:, None] * (stride * w) + np.arange(ow)[None, :] * stride
    ).reshape(-1)
    idx = patch[:, None] + corners[None, :]
    idx.setflags(write=False)
    return idx


def plan_cache_info():
    """``lru_cache`` statistics of the plan cache."""
    return conv_index_plan.cache_info()
