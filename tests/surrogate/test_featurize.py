"""Tests for surrogate featurization and score normalization."""

import numpy as np
import pytest

from repro.chem.depict import N_CHANNELS
from repro.surrogate.featurize import (
    IMAGE_SIZE,
    ScoreNormalizer,
    featurize_batch,
)


def test_featurize_shapes():
    batch = featurize_batch(["CCO", "c1ccccc1", "CC(=O)O"])
    assert batch.shape == (3, N_CHANNELS, IMAGE_SIZE, IMAGE_SIZE)


def test_featurize_deterministic():
    np.testing.assert_array_equal(featurize_batch(["CCO"]), featurize_batch(["CCO"]))


def test_normalizer_maps_best_to_one():
    scores = np.linspace(-50, 10, 200)  # lower = better binding
    norm = ScoreNormalizer().fit(scores)
    y = norm.transform(scores)
    assert y[0] > y[-1]  # -50 (best) maps high
    assert y.min() >= 0 and y.max() <= 1
    assert norm.transform(np.array([-50.0]))[0] == pytest.approx(1.0, abs=0.05)


def test_normalizer_inverse_roundtrip():
    scores = np.linspace(-40, 0, 100)
    norm = ScoreNormalizer().fit(scores)
    mid = np.array([-30.0, -20.0, -10.0])
    back = norm.inverse(norm.transform(mid))
    np.testing.assert_allclose(back, mid, rtol=1e-10)


def test_normalizer_robust_to_outliers():
    scores = np.concatenate([np.linspace(-30, 0, 100), [-1e6]])
    norm = ScoreNormalizer().fit(scores)
    # the outlier must not squash the bulk of the distribution
    y = norm.transform(np.linspace(-30, 0, 100))
    assert y.std() > 0.1


def test_normalizer_clips_out_of_range():
    norm = ScoreNormalizer().fit(np.linspace(-10, 0, 50))
    assert norm.transform(np.array([-100.0]))[0] == 1.0
    assert norm.transform(np.array([100.0]))[0] == 0.0


def test_normalizer_unfitted_raises():
    with pytest.raises(RuntimeError):
        ScoreNormalizer().transform(np.array([1.0]))
    with pytest.raises(RuntimeError):
        ScoreNormalizer().inverse(np.array([0.5]))


def test_normalizer_validates_input():
    with pytest.raises(ValueError):
        ScoreNormalizer().fit(np.array([1.0]))
    with pytest.raises(ValueError):
        ScoreNormalizer().fit(np.zeros(10))  # degenerate range
