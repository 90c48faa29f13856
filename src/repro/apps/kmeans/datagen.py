"""Synthetic clustered point sets.

Substitutes for the paper's 0.5M–500M-point datasets.  The structural
property PIC relies on ("the impact of far-away points on a centroid is
much smaller than the impact of close points", Section VI-B) is cluster
separation, which the generator controls explicitly; sizes are scaled
geometrically like the paper's Table I.
"""

from __future__ import annotations

import numpy as np

from repro.util.rng import SeedLike, as_generator


def gaussian_mixture(
    num_points: int,
    num_clusters: int,
    dim: int = 3,
    separation: float = 10.0,
    spread: float = 1.0,
    seed: SeedLike = 0,
) -> tuple[list[tuple[int, np.ndarray]], np.ndarray]:
    """Sample points from a mixture of ``num_clusters`` Gaussians.

    Cluster centres are drawn uniformly in a hypercube scaled so the
    expected inter-centre distance is ``separation`` times ``spread``;
    larger separation ⇒ more "nearly uncoupled" structure.

    Returns ``(records, true_centers)`` where records are
    ``(point_id, coordinate_vector)`` pairs ready for
    :class:`~repro.mapreduce.records.DistributedDataset`.
    """
    if num_points < 1:
        raise ValueError(f"num_points must be >= 1, got {num_points}")
    if num_clusters < 1:
        raise ValueError(f"num_clusters must be >= 1, got {num_clusters}")
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    if spread <= 0 or separation <= 0:
        raise ValueError("spread and separation must be positive")
    rng = as_generator(seed)
    # Scale the hypercube so typical nearest-centre spacing is
    # separation*spread: side ≈ separation*spread*k^(1/dim).
    side = separation * spread * num_clusters ** (1.0 / dim)
    centers = rng.uniform(-side / 2, side / 2, size=(num_clusters, dim))
    labels = rng.integers(0, num_clusters, size=num_points)
    points = centers[labels] + rng.normal(0.0, spread, size=(num_points, dim))
    # Iterating the array yields its row views in one C-level pass.
    return list(zip(range(num_points), points)), centers
