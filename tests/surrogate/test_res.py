"""Tests for Regression Enrichment Surfaces."""

import numpy as np
import pytest

from repro.surrogate.res import RESResult, res_surface, top_fraction_recall


def test_perfect_predictor_full_recall():
    rng = np.random.default_rng(0)
    y = rng.normal(size=200)
    assert top_fraction_recall(y, y.copy(), 0.1, 0.1) == 1.0
    assert top_fraction_recall(y, y.copy(), 0.01, 0.01) == 1.0


def test_anticorrelated_predictor_zero_recall_at_top():
    y = np.arange(100.0)
    assert top_fraction_recall(y, -y, 0.1, 0.1) == 0.0


def test_random_predictor_recall_near_budget():
    """With random predictions, recall ≈ budget fraction in expectation."""
    rng = np.random.default_rng(1)
    y = rng.normal(size=4000)
    pred = rng.normal(size=4000)
    r = top_fraction_recall(y, pred, 0.3, 0.1)
    assert 0.2 < r < 0.4


def test_budget_one_gives_full_recall():
    rng = np.random.default_rng(2)
    y = rng.normal(size=50)
    assert top_fraction_recall(y, rng.normal(size=50), 1.0, 0.2) == 1.0


def test_recall_monotone_in_budget():
    rng = np.random.default_rng(3)
    y = rng.normal(size=500)
    pred = y + rng.normal(scale=1.0, size=500)
    recalls = [top_fraction_recall(y, pred, b, 0.1) for b in (0.05, 0.2, 0.5, 1.0)]
    assert all(b >= a - 1e-12 for a, b in zip(recalls, recalls[1:]))


def test_higher_is_better_convention():
    y = np.arange(100.0)
    # with higher-is-better, top = largest values
    assert top_fraction_recall(y, y, 0.1, 0.1, lower_is_better=False) == 1.0
    assert top_fraction_recall(y, -y, 0.1, 0.1, lower_is_better=False) == 0.0


def test_validation():
    y = np.zeros(10)
    with pytest.raises(ValueError):
        top_fraction_recall(y, np.zeros(9), 0.1, 0.1)
    with pytest.raises(ValueError):
        top_fraction_recall(y, y, 0.0, 0.1)
    with pytest.raises(ValueError):
        top_fraction_recall(np.array([]), np.array([]), 0.1, 0.1)


def test_surface_shape_and_corner():
    rng = np.random.default_rng(4)
    y = rng.normal(size=300)
    pred = y + rng.normal(scale=0.5, size=300)
    res = res_surface(y, pred, n_budget=5, n_top=4)
    assert res.surface.shape == (4, 5)
    # budget = 1 column is all ones
    np.testing.assert_allclose(res.surface[:, -1], 1.0)
    assert (res.surface >= 0).all() and (res.surface <= 1).all()


def test_surface_better_model_dominates():
    rng = np.random.default_rng(5)
    y = rng.normal(size=500)
    good = y + rng.normal(scale=0.2, size=500)
    bad = y + rng.normal(scale=3.0, size=500)
    s_good = res_surface(y, good, n_budget=4, n_top=3).surface
    s_bad = res_surface(y, bad, n_budget=4, n_top=3).surface
    assert s_good.mean() > s_bad.mean()


def test_surface_requires_enough_compounds():
    with pytest.raises(ValueError):
        res_surface(np.zeros(5), np.zeros(5))


def test_ascii_plot_renders():
    rng = np.random.default_rng(7)
    y = rng.normal(size=100)
    text = res_surface(y, y, n_budget=3, n_top=2).ascii_plot()
    assert "RES surface" in text
    assert len(text.splitlines()) == 4
