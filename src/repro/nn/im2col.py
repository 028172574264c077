"""im2col for every conv: the window view and the index plan.

The forward of the eager ``Conv2d``, of ``TrainStep`` and of compiled
inference copies each patch column out of a (padded) ``(C, H, W)``
sample through :func:`conv_windows`; the adjoint scatter-adds through
the flat indices of :func:`conv_index_plan`.  A plan depends only on
``(kernel, stride, C, H, W)``, so plans live in one bounded,
module-level LRU: sixteen identical residual-block convs share one
multi-megabyte index array instead of building one per layer instance.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = ["conv_index_plan", "conv_out_hw", "conv_windows", "plan_cache_info"]

#: bound on distinct (kernel, stride, C, H, W) geometries kept alive;
#: generous for real models (the surrogate needs 5) while stopping a
#: shape-sweeping workload from pinning unbounded index memory
_MAX_PLANS = 128


def conv_out_hw(kernel: int, stride: int, h: int, w: int) -> tuple[int, int]:
    """Output spatial dims of a VALID conv over an ``(h, w)`` input."""
    return (h - kernel) // stride + 1, (w - kernel) // stride + 1


def conv_windows(x: np.ndarray, kernel: int, stride: int) -> np.ndarray:
    """A ``(B, C, H, W)`` batch's im2col columns as a strided
    ``(B, C, k, k, oh, ow)`` view, ``[b, c, ky, kx, oy, ox]`` being
    ``x[b, c, oy*stride + ky, ox*stride + kx]``.  Exactness fact: copied
    into ``(B, C*k*k, oh*ow)``, it moves the elements, in the order, that
    ``np.take`` over :func:`conv_index_plan` selects, and reads no index.
    """
    windows = np.lib.stride_tricks.sliding_window_view(x, (kernel, kernel), axis=(2, 3))
    return windows[:, :, ::stride, ::stride].transpose(0, 1, 4, 5, 2, 3)


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
