"""Vectorized serial Lloyd's algorithm — the golden reference.

Section VI-A uses "the final solution (centroids) produced by a
sequential implementation" as the error reference for Figure 12(b).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.util.rng import SeedLike, as_generator


@dataclass
class LloydResult:
    """Outcome of a serial Lloyd run (the Figure 12(b) reference)."""

    centroids: np.ndarray
    iterations: int
    assignments: np.ndarray
    #: max centroid displacement per iteration (convergence trajectory)
    displacement_trace: list[float] = field(default_factory=list)


def assign_points(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Nearest-centroid index per point, fully vectorized.

    Uses the ‖x−c‖² = ‖x‖² − 2x·c + ‖c‖² expansion; the ‖x‖² term is
    constant per point and dropped from the argmin.  The (n, k) product
    is scaled and shifted in place: ``(cross × −2) + ‖c‖²`` is, bit for
    bit, ``‖c‖² − 2·cross`` (doubling is exact, and ``a − b`` is
    ``(−b) + a`` in IEEE 754), so no second (n, k) array is made.
    """
    cross = points @ centroids.T
    cross *= -2.0
    cross += np.einsum("ij,ij->i", centroids, centroids)
    return np.argmin(cross, axis=1)


def update_centroids(
    points: np.ndarray, assignment: np.ndarray, k: int, previous: np.ndarray
) -> np.ndarray:
    """Mean of each cluster's points; empty clusters keep their centroid."""
    dim = points.shape[1]
    sums = np.zeros((k, dim))
    np.add.at(sums, assignment, points)
    counts = np.bincount(assignment, minlength=k).astype(float)
    out = previous.copy()
    mask = counts > 0
    out[mask] = sums[mask] / counts[mask, None]
    return out


def init_centroids(points: np.ndarray, k: int, seed: SeedLike = 0) -> np.ndarray:
    """Forgy initialisation: k distinct random points."""
    rng = as_generator(seed)
    if len(points) < k:
        raise ValueError(f"need at least k={k} points, got {len(points)}")
    idx = rng.choice(len(points), size=k, replace=False)
    return points[idx].copy()


def lloyd(
    points: np.ndarray,
    k: int,
    threshold: float = 1e-3,
    max_iterations: int = 300,
    seed: SeedLike = 0,
    initial: np.ndarray | None = None,
) -> LloydResult:
    """Run Lloyd's algorithm until max centroid displacement < threshold."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise ValueError(f"points must be 2-D (n, dim), got shape {points.shape}")
    centroids = init_centroids(points, k, seed) if initial is None else initial.copy()
    if centroids.shape != (k, points.shape[1]):
        raise ValueError(
            f"initial centroids shape {centroids.shape} != ({k}, {points.shape[1]})"
        )
    trace: list[float] = []
    assignment = np.zeros(len(points), dtype=int)
    for iteration in range(1, max_iterations + 1):
        assignment = assign_points(points, centroids)
        new_centroids = update_centroids(points, assignment, k, centroids)
        displacement = float(
            np.max(np.linalg.norm(new_centroids - centroids, axis=1))
        )
        trace.append(displacement)
        centroids = new_centroids
        if displacement < threshold:
            break
    return LloydResult(
        centroids=centroids,
        iterations=len(trace),
        assignments=assignment,
        displacement_trace=trace,
    )
