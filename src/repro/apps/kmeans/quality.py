"""Clustering quality metrics (Section VI-A).

* :func:`jagota_index` — the paper's Table III metric: mean intra-cluster
  distance to the centroid, summed over clusters (lower = tighter).
* :func:`match_centroids` / :func:`centroid_displacement` — optimal
  correspondence between two centroid sets and the resulting distance,
  the Figure 12(b) error measure against the sequential reference.

``scipy.optimize`` is imported inside :func:`match_centroids`, its one
caller: most runs never match centroids, and scipy would otherwise be
the heaviest import of every process that loads this package
(``tests/integration/test_cold_start.py`` pins that it is not).
"""

from __future__ import annotations

import numpy as np

from repro.apps.kmeans.serial import assign_points


def jagota_index(points: np.ndarray, centroids: np.ndarray) -> float:
    """Q = Σ_i (1/|C_i|) Σ_{x∈C_i} d(x, μ_i)   (Jagota, 1991).

    Points are assigned to their nearest centroid; empty clusters
    contribute zero (they own no points).
    """
    points = np.asarray(points, dtype=float)
    centroids = np.asarray(centroids, dtype=float)
    if points.ndim != 2 or centroids.ndim != 2:
        raise ValueError("points and centroids must be 2-D arrays")
    assignment = assign_points(points, centroids)
    distances = np.linalg.norm(points - centroids[assignment], axis=1)
    total = 0.0
    for i in range(len(centroids)):
        mask = assignment == i
        size = int(np.count_nonzero(mask))
        if size:
            total += float(distances[mask].sum()) / size
    return total


def match_centroids(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Permutation π minimising Σ‖a_i − b_{π(i)}‖ (Hungarian algorithm).

    Needed because two K-means runs label clusters arbitrarily
    (Section III-C's "correspondence of elements" problem).
    """
    from scipy.optimize import linear_sum_assignment

    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"centroid sets differ in shape: {a.shape} vs {b.shape}")
    cost = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
    _rows, cols = linear_sum_assignment(cost)
    return cols


def centroid_displacement(a: np.ndarray, b: np.ndarray) -> float:
    """Mean distance between optimally matched centroids of two models."""
    perm = match_centroids(a, b)
    b = np.asarray(b, dtype=float)[perm]
    return float(np.mean(np.linalg.norm(np.asarray(a, dtype=float) - b, axis=1)))
