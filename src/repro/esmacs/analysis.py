"""Ensemble statistics and ranking-reliability analysis.

The paper's core methodological claim for ESMACS (§5.1.3) is that
ensemble averaging turns the irreproducible single-trajectory MMPBSA into
a reliable *ranking* tool.  The functions here quantify that: the
rank-correlation between independent repeats of the protocol as a
function of ensemble size — the ablation bench's measurement.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "ranking_correlation",
    "repeat_reliability",
]


def ranking_correlation(a: np.ndarray, b: np.ndarray) -> float:
    """Spearman rank correlation between two score vectors."""
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("inputs must be 1-D and equally sized")
    if len(a) < 3:
        raise ValueError("need at least 3 compounds to rank")
    ranks = np.vstack((a, b)).astype(np.float64)
    if np.isnan(ranks).any() or (ranks[:, :1] == ranks).all(axis=1).any():
        return float("nan")  # undefined: a NaN score or a constant input
    for row in ranks:
        row[:] = _average_ranks(row)
    # a C-ordered (2, n) block, the layout ``scipy.stats.spearmanr`` hands
    # ``np.corrcoef``, so the two take the same reduction paths
    return float(np.corrcoef(ranks)[1, 0])


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks of ``x``; tied values share the mean of their positions."""
    order = np.argsort(x, kind="stable")
    xs = x[order]
    starts = np.flatnonzero(np.r_[True, xs[1:] != xs[:-1]])
    ends = np.r_[starts[1:], len(x)]
    # exactness: a tie group at sorted positions start+1 … end ranks
    # (start + 1 + end) / 2, a multiple of 1/2 that float64 holds exactly,
    # so any tie-averaging scheme (``scipy.stats.rankdata``) gives these bits
    ranks = np.empty(len(x))
    ranks[order] = np.repeat((starts + 1 + ends) / 2, ends - starts)
    return ranks


def repeat_reliability(
    replica_dgs_per_compound: list[np.ndarray],
    ensemble_size: int,
    rng: np.random.Generator,
    n_repeats: int = 20,
) -> float:
    """Expected rank-correlation between two independent ESMACS repeats.

    Given each compound's pool of replica ΔG values, draw two disjoint
    ensembles of ``ensemble_size`` replicas per compound, average each,
    and rank-correlate the two resulting compound rankings; repeat and
    average.  Larger ensembles → higher correlation is the §5.1.3 claim.
    """
    if ensemble_size < 1:
        raise ValueError("ensemble_size must be >= 1")
    for pool in replica_dgs_per_compound:
        if len(pool) < 2 * ensemble_size:
            raise ValueError(
                "each compound needs >= 2*ensemble_size replicas "
                f"(got {len(pool)}, need {2 * ensemble_size})"
            )
    correlations = []
    for _ in range(n_repeats):
        first, second = [], []
        for pool in replica_dgs_per_compound:
            perm = rng.permutation(len(pool))
            first.append(pool[perm[:ensemble_size]].mean())
            second.append(pool[perm[ensemble_size : 2 * ensemble_size]].mean())
        correlations.append(ranking_correlation(np.array(first), np.array(second)))
    return float(np.mean(correlations))
