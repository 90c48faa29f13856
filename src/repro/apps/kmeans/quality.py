"""Clustering quality metrics (Section VI-A).

* :func:`jagota_index` — the paper's Table III metric: mean intra-cluster
  distance to the centroid, summed over clusters (lower = tighter).
* :func:`match_centroids` / :func:`centroid_displacement` — optimal
  correspondence between two centroid sets and the resulting distance,
  the Figure 12(b) error measure against the sequential reference.

The correspondence is an exact minimum-cost assignment solved here in
NumPy (:func:`_min_cost_assignment`), so matching k centroids costs
O(k³) arithmetic and no import beyond numpy.
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


def _min_cost_assignment(cost: np.ndarray) -> np.ndarray:
    """Column of each row in a minimum-cost perfect matching of the
    square, finite matrix ``cost``.

    Shortest augmenting paths with row and column potentials (the O(k³)
    Hungarian method): each row in turn grows a Dijkstra tree over the
    reduced costs until it reaches a free column, then flips the path.
    Index 0 is a virtual column that roots every tree, so the arrays
    are 1-based; ``row_of[j]`` is the row holding column ``j`` (0: free).
    """
    k = len(cost)
    padded = np.zeros((k + 1, k + 1))
    padded[1:, 1:] = cost
    u = np.zeros(k + 1)  # row potentials
    v = np.zeros(k + 1)  # column potentials
    row_of = np.zeros(k + 1, dtype=np.intp)
    prev = np.zeros(k + 1, dtype=np.intp)  # previous column on the path
    for row in range(1, k + 1):
        row_of[0] = row
        col = 0
        dist = np.full(k + 1, np.inf)
        done = np.zeros(k + 1, dtype=bool)
        while row_of[col]:
            done[col] = True
            i = row_of[col]
            reduced = padded[i] - u[i] - v
            closer = ~done & (reduced < dist)
            dist[closer] = reduced[closer]
            prev[closer] = col
            col = int(np.argmin(np.where(done, np.inf, dist)))
            delta = dist[col]
            u[row_of[done]] += delta
            v[done] -= delta
            dist[~done] -= delta
        while col:
            row_of[col] = row_of[prev[col]]
            col = prev[col]
    cols = np.empty(k, dtype=np.intp)
    cols[row_of[1:] - 1] = np.arange(k)
    return cols


def match_centroids(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Permutation π minimising Σ‖a_i − b_{π(i)}‖ (exact assignment).

    Needed because two K-means runs label clusters arbitrarily
    (Section III-C's "correspondence of elements" problem).  Raises
    ``ValueError`` for sets of different shapes, sets that are not 2-D,
    and entries (or distances) that are not finite.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"centroid sets differ in shape: {a.shape} vs {b.shape}")
    if a.ndim != 2:
        raise ValueError(f"centroid sets must be 2-D (k, dim), got shape {a.shape}")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("centroid sets must be finite (found NaN or inf)")
    with np.errstate(over="ignore"):  # reported below, by name
        cost = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
    if not np.isfinite(cost).all():
        raise ValueError("centroid distances overflow to inf")
    return _min_cost_assignment(cost)


def centroid_displacement(a: np.ndarray, b: np.ndarray) -> float:
    """Mean distance between optimally matched centroids of two models."""
    perm = match_centroids(a, b)
    b = np.asarray(b, dtype=float)[perm]
    return float(np.mean(np.linalg.norm(np.asarray(a, dtype=float) - b, axis=1)))
