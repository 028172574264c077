"""Tests for Local Outlier Factor."""

import numpy as np
import pytest

from repro.ddmd.lof import lof_scores
from repro.util.rng import rng_stream


def test_planted_outlier_detected():
    rng = rng_stream(0, "t/lof")
    pts = rng.normal(size=(80, 4))
    pts[17] += 12.0
    scores = lof_scores(pts, k=8)
    assert np.argmax(scores) == 17
    assert scores[17] > 2.0


def test_uniform_cluster_scores_near_one():
    rng = rng_stream(1, "t/lof2")
    pts = rng.normal(size=(200, 3))
    scores = lof_scores(pts, k=15)
    inliers = np.sort(scores)[: int(0.9 * len(scores))]
    assert 0.8 < inliers.mean() < 1.3


def test_two_density_clusters():
    """A sparse point between two dense clusters is an outlier."""
    rng = rng_stream(2, "t/lof3")
    dense_a = rng.normal(scale=0.1, size=(50, 2))
    dense_b = rng.normal(scale=0.1, size=(50, 2)) + 10.0
    bridge = np.array([[5.0, 5.0]])
    pts = np.vstack([dense_a, dense_b, bridge])
    scores = lof_scores(pts, k=10)
    assert np.argmax(scores) == 100


def test_k_clamped_to_dataset_size():
    rng = rng_stream(3, "t/lof4")
    pts = rng.normal(size=(5, 2))
    scores = lof_scores(pts, k=100)  # k > N-1 must not crash
    assert scores.shape == (5,)
    assert np.isfinite(scores).all()


def test_validates_input():
    with pytest.raises(ValueError):
        lof_scores(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        lof_scores(np.zeros(10))
