"""Tests for ensemble statistics and ranking reliability."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from repro.esmacs.analysis import (
    ranking_correlation,
    repeat_reliability,
)
from repro.util.rng import rng_stream


def test_ranking_correlation_perfect_and_inverted():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    assert ranking_correlation(x, x * 10 + 3) == pytest.approx(1.0)
    assert ranking_correlation(x, -x) == pytest.approx(-1.0)


def test_ranking_correlation_validates():
    with pytest.raises(ValueError):
        ranking_correlation(np.ones(3), np.ones(4))
    with pytest.raises(ValueError):
        ranking_correlation(np.ones(2), np.ones(2))


def _spearmanr(a, b) -> float:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # scipy warns on a constant input
        return float(stats.spearmanr(a, b)[0])


def _same(got: float, want: float) -> bool:
    return got == want or (np.isnan(got) and np.isnan(want))


@st.composite
def score_pairs(draw):
    """Equal-length score vectors, 3–40 long; small integer draws tie often."""
    n = draw(st.integers(3, 40))
    tied = st.integers(-3, 3).map(float)
    spread = st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False)
    values = st.one_of(tied, spread)
    vector = st.lists(values, min_size=n, max_size=n).map(np.array)
    return draw(vector), draw(vector)


@settings(max_examples=400, deadline=None)
@given(score_pairs())
def test_ranking_correlation_is_scipy_spearmanr_to_the_bit(pair):
    a, b = pair
    assert _same(ranking_correlation(a, b), _spearmanr(a, b))


def test_ranking_correlation_random_draws_equal_spearmanr():
    rng = rng_stream(0, "t/spearman")
    for k in range(600):
        n = int(rng.integers(3, 41))
        if k % 3 == 0:  # heavy ties on both sides
            a = rng.integers(0, max(2, n // 3), n).astype(float)
            b = rng.integers(0, 4, n).astype(float)
        else:
            a = rng.normal(size=n)
            b = a * (k % 3 - 1.5) + rng.normal(size=n)
        assert _same(ranking_correlation(a, b), _spearmanr(a, b))


@pytest.mark.parametrize(
    "a, b",
    [
        ([1.0, np.nan, 3.0], [1.0, 2.0, 3.0]),
        ([1.0, 2.0, 3.0, 4.0], [4.0, 3.0, np.nan, np.nan]),
        ([np.nan] * 3, [np.nan] * 3),
        ([2.0, 2.0, 2.0], [1.0, 2.0, 3.0]),
        ([1.0, 2.0, 3.0, 4.0], [5.0] * 4),
        ([1, 2, 2, 3], [3.5, 1.0, 2.0, 2.0]),
        ([1.0, np.inf, -np.inf, 0.0], [0.0, -0.0, 1.0, 2.0]),
    ],
)
def test_ranking_correlation_edge_cases_equal_spearmanr(a, b):
    a, b = np.array(a), np.array(b)
    assert _same(ranking_correlation(a, b), _spearmanr(a, b))


def test_nan_or_constant_input_gives_nan():
    assert np.isnan(ranking_correlation(np.array([1.0, np.nan, 3.0]), np.arange(3.0)))
    assert np.isnan(ranking_correlation(np.ones(4), np.arange(4.0)))


def _synthetic_pools(n_compounds=12, n_replicas=48, noise=3.0, seed=0):
    """Per-compound replica ΔG pools: true signal + replica noise."""
    rng = rng_stream(seed, "t/pools")
    truth = np.linspace(-30, -5, n_compounds)
    return [
        truth[i] + rng.normal(scale=noise, size=n_replicas)
        for i in range(n_compounds)
    ], truth


def test_repeat_reliability_increases_with_ensemble_size():
    """The §5.1.3 claim: bigger ensembles give more reproducible rankings."""
    pools, _ = _synthetic_pools()
    rng = rng_stream(1, "t/rel")
    r1 = repeat_reliability(pools, ensemble_size=1, rng=rng, n_repeats=30)
    r6 = repeat_reliability(pools, ensemble_size=6, rng=rng, n_repeats=30)
    r24 = repeat_reliability(pools, ensemble_size=24, rng=rng, n_repeats=30)
    assert r1 < r6 <= r24 + 0.05
    assert r24 > 0.9


def test_repeat_reliability_validates():
    pools, _ = _synthetic_pools(n_replicas=4)
    with pytest.raises(ValueError):
        repeat_reliability(pools, ensemble_size=3, rng=rng_stream(0, "x"))
    with pytest.raises(ValueError):
        repeat_reliability(pools, ensemble_size=0, rng=rng_stream(0, "x"))
