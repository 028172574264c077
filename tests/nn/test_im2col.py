"""Tests for the shared im2col plan cache."""

import numpy as np
import pytest

from repro.nn.im2col import conv_index_plan, conv_out_hw, plan_cache_info
from repro.nn.layers import Conv2d


def _naive_cols(x, kernel, stride):
    """Reference im2col via explicit patch extraction."""
    c, h, w = x.shape
    oh, ow = conv_out_hw(kernel, stride, h, w)
    cols = np.empty((c * kernel * kernel, oh * ow), dtype=x.dtype)
    for oy in range(oh):
        for ox in range(ow):
            patch = x[:, oy * stride : oy * stride + kernel, ox * stride : ox * stride + kernel]
            cols[:, oy * ow + ox] = patch.reshape(-1)
    return cols


@pytest.mark.parametrize("kernel,stride,c,h,w", [(3, 1, 2, 6, 6), (3, 2, 3, 9, 7), (1, 1, 4, 5, 5), (2, 2, 1, 8, 8)])
def test_index_plan_matches_naive_gather(kernel, stride, c, h, w):
    x = np.random.default_rng(0).normal(size=(c, h, w)).astype(np.float32)
    idx = conv_index_plan(kernel, stride, c, h, w)
    np.testing.assert_array_equal(x.reshape(-1)[idx], _naive_cols(x, kernel, stride))


def test_plans_are_shared_and_readonly():
    a = conv_index_plan(3, 1, 4, 10, 10)
    b = conv_index_plan(3, 1, 4, 10, 10)
    assert a is b  # one process-wide copy, not per-caller
    with pytest.raises(ValueError):
        a[0, 0] = 0


def test_conv2d_instances_share_one_plan():
    rng = np.random.default_rng(1)
    conv_a = Conv2d(3, 4, 3, rng, padding=1)
    conv_b = Conv2d(3, 8, 3, rng, padding=1)
    assert conv_a._gather_indices(3, 10, 10) is conv_b._gather_indices(3, 10, 10)


def test_plan_cache_reports_hits():
    conv_index_plan.cache_clear()
    conv_index_plan(3, 1, 2, 12, 12)
    conv_index_plan(3, 1, 2, 12, 12)
    info = plan_cache_info()
    assert info.hits >= 1
    assert info.misses >= 1
