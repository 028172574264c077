"""Local Outlier Factor (LOF) detection — from scratch.

§5.1.4: "From this latent manifold, we use local outlier factor (LOF)
detection to identify 'interesting' protein-ligand complexes that are
then selected for S3-FG simulations."  Standard Breunig et al. (2000)
definition: reachability distances → local reachability density → LOF as
the ratio of neighbour densities to own density.  Scores ≈ 1 are inliers;
larger values are outliers.
"""

from __future__ import annotations

import numpy as np

__all__ = ["lof_scores"]


def lof_scores(points: np.ndarray, k: int = 10) -> np.ndarray:
    """LOF score per row of ``points`` (N, d).

    ``k`` is the neighbourhood size; it is clamped to N−1 so small
    datasets still work.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ValueError("points must be 2-D (N, d)")
    n = len(points)
    if n < 3:
        raise ValueError("LOF needs at least 3 points")
    k = max(1, min(k, n - 1))

    # pairwise distances
    d = np.sqrt(((points[:, None, :] - points[None, :, :]) ** 2).sum(-1))
    np.fill_diagonal(d, np.inf)

    # k nearest neighbours and k-distance of every point
    knn_idx = np.argpartition(d, k - 1, axis=1)[:, :k]
    rows = np.arange(n)[:, None]
    knn_dist = d[rows, knn_idx]
    k_distance = knn_dist.max(axis=1)

    # reachability distance: reach(a←b) = max(k_distance(b), d(a, b))
    reach = np.maximum(k_distance[knn_idx], knn_dist)

    # local reachability density
    lrd = 1.0 / np.maximum(reach.mean(axis=1), 1e-12)

    # LOF: mean neighbour lrd over own lrd
    return lrd[knn_idx].mean(axis=1) / np.maximum(lrd, 1e-12)
