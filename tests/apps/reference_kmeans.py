"""K-means' per-group sums as Python loops over the groups.

``reference_sum_groups`` is ``repro.apps.kmeans.program._sum_groups`` as
it was before the sums became one ``group_sums`` call: ``np.add.reduce``
over each group's contiguous slice of the sorted value matrix.  For
vectors of two or more elements that reduction adds the rows one after
the other, so it defines what the kernel must return for them; a
one-element vector is reduced pairwise, which is why the vectorized
forms answer to ``reference_combine`` there instead.

``reference_combine`` is ``KMeansProgram.combine``, the record-at-a-time
combiner the program had beside ``combine_batch``: one group's
``(vector, count)`` pairs summed, the vectors left to right from +0.0.

``reference_assign_points`` is ``assign_points`` as it was before its
distances were scaled and shifted in place: a fresh ``2.0 * cross`` and
a fresh broadcast subtraction from the centroid norms, then the same
``np.argmin``.

``reference_gaussian_mixture`` is ``gaussian_mixture`` as it was before
its records were zipped from the point array: the same draws, then one
``points[i]`` index per record.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.mapreduce.columnar import GroupedBatch
from repro.util.rng import as_generator


def reference_sum_groups(grouped: GroupedBatch) -> tuple[np.ndarray, np.ndarray]:
    vecs, cnts = grouped.sorted_values.slots
    data = vecs.data
    counts = cnts.values
    num_groups = len(grouped)
    totals = np.empty((num_groups, data.shape[1]), dtype=np.float64)
    csums = np.empty(num_groups, dtype=np.int64)
    starts = grouped.starts.tolist()
    ends = grouped.ends.tolist()
    for g in range(num_groups):
        s, e = starts[g], ends[g]
        totals[g] = np.add.reduce(data[s:e], axis=0)
        csums[g] = counts[s:e].sum()
    return totals, csums


def reference_combine(key: Any, values: list[Any]) -> tuple[np.ndarray, int]:
    vecs = [vec for vec, _n in values]
    total = sum(vecs, np.zeros(np.shape(vecs[0])))
    count = sum(n for _vec, n in values)
    return (total, count)


def reference_assign_points(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    cross = points @ centroids.T
    c_norms = np.einsum("ij,ij->i", centroids, centroids)
    return np.argmin(c_norms[None, :] - 2.0 * cross, axis=1)


def reference_gaussian_mixture(
    num_points: int,
    num_clusters: int,
    dim: int = 3,
    separation: float = 10.0,
    spread: float = 1.0,
    seed: int = 0,
) -> tuple[list[tuple[int, np.ndarray]], np.ndarray]:
    rng = as_generator(seed)
    side = separation * spread * num_clusters ** (1.0 / dim)
    centers = rng.uniform(-side / 2, side / 2, size=(num_clusters, dim))
    labels = rng.integers(0, num_clusters, size=num_points)
    points = centers[labels] + rng.normal(0.0, spread, size=(num_points, dim))
    records = [(int(i), points[i]) for i in range(num_points)]
    return records, centers
