"""K-means as a PIC program (paper Figures 1(b) and 6).

Conventional IC realisation:

* **map** — associate each point with its closest centroid, emitting
  ``(centroid_id, (point_vector, 1))`` per point (the per-point mapper
  output is the intermediate-data volume Table II measures);
* **combine** — sum vectors and counts locally (the paper's baselines
  "utilize combiner optimizations");
* **reduce** — new centroid = summed vector / count;
* **converged** — every centroid moved less than a threshold.

PIC extras (Figure 6 / Section IV-A): random data partitioning with a
copy of the model per sub-problem, correspondence-by-key averaging as
the merge, and the *same* convergence criterion for local, best-effort,
and top-off loops.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Any, Sequence

import numpy as np

from repro.apps.kmeans.serial import assign_points
from repro.mapreduce.columnar import (
    ArrayColumn,
    ColumnBatch,
    GroupedBatch,
    Records,
    ScalarColumn,
    TupleColumn,
    build_column,
    columnize,
    group_sums,
    int_column,
    stack_rows,
)
from repro.mapreduce.costs import CostHints
from repro.mapreduce.job import TaskContext
from repro.pic.api import PICProgram
from repro.pic.convergence import Verdict, either, fixed_iterations, max_change_below
from repro.pic.model import KeyedModel, as_model
from repro.util.rng import SeedLike, as_generator


def _sum_groups(grouped: GroupedBatch) -> tuple[np.ndarray, np.ndarray]:
    """Per-group sums of the ``(vector, count)`` values that
    :meth:`KMeansProgram.batch_map` and :meth:`~KMeansProgram.combine_batch`
    produce: a float matrix column and an int count column, each summed
    by :func:`group_sums`' left-to-right fold."""
    vecs, cnts = grouped.sorted_values.slots
    return group_sums(grouped, vecs.data), group_sums(grouped, cnts.values)


class KMeansProgram(PICProgram):
    """K-means clustering for the PIC framework.

    The model is ``{centroid_id: coordinate_vector}``.
    """

    def __init__(
        self,
        k: int,
        dim: int = 3,
        threshold: float = 1e-3,
        num_reducers: int = 8,
        max_iterations: int = 300,
    ) -> None:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        if threshold <= 0:
            raise ValueError(f"threshold must be positive, got {threshold}")
        self.k = k
        self.dim = dim
        self.threshold = threshold
        self.num_reducers = num_reducers
        self.max_iterations = max_iterations
        self.name = "kmeans"
        # Distance computation dominates: ~k*dim multiply-adds per point,
        # at Hadoop-era Java throughput.
        self.costs = CostHints(
            map_seconds_per_record=1e-6 + 2.5e-8 * k * dim,
            reduce_seconds_per_record=1e-6,
        )

    # -- conventional IC pieces -----------------------------------------

    def initial_model(
        self, records: Sequence[tuple[Any, Any]], seed: SeedLike = 0
    ) -> dict[int, np.ndarray]:
        """Forgy initialisation from the input records."""
        rng = as_generator(seed)
        if len(records) < self.k:
            raise ValueError(f"need at least k={self.k} points")
        idx = rng.choice(len(records), size=self.k, replace=False)
        return {int(c): np.array(records[int(i)][1], dtype=float) for c, i in enumerate(idx)}

    def batch_map(self, ctx: TaskContext, records: ColumnBatch) -> None:
        """Vectorized nearest-centroid assignment for a whole split."""
        if not len(records):
            return
        model = as_model(ctx.model)
        centroids = stack_rows(model.value_column)  # one row per centroid id
        values = records.values
        if isinstance(values, ArrayColumn) and values.data.dtype == np.float64:
            points = values.data  # one row per point
        else:
            points = np.stack([np.asarray(v, dtype=float) for v in values.rows()])
        assignment = assign_points(points, centroids)
        ids = np.asarray(stack_rows(model.key_column), dtype=np.int64)[assignment]
        ones = ScalarColumn("int", np.ones(len(points), dtype=np.int64))
        ctx.emit_batch(
            ColumnBatch(
                int_column(ids),
                TupleColumn((ArrayColumn(points), ones), len(points)),
            )
        )

    def combine_batch(self, grouped: GroupedBatch) -> ColumnBatch:
        """Sum (vector, count) pairs locally before the shuffle, over all
        the groups of a map output: each group's vectors left to right
        from +0.0 (:func:`group_sums`), its counts exactly."""
        totals, csums = _sum_groups(grouped)
        return ColumnBatch(
            grouped.unique_keys(),
            TupleColumn(
                (ArrayColumn(totals), ScalarColumn("int", csums)), len(csums)
            ),
        )

    def batch_reduce(self, ctx: TaskContext, grouped: GroupedBatch) -> None:
        """New centroid = summed vectors / summed counts (Figure 1(b)),
        for all the centroids of one reduce partition at once."""
        if not len(grouped):
            return  # a partition no centroid id hashed to
        totals, csums = _sum_groups(grouped)
        keep = np.nonzero(csums > 0)[0]
        ctx.emit_batch(
            ColumnBatch(
                grouped.unique_keys().take(keep),
                ArrayColumn(totals[keep] / csums[keep, None]),
            )
        )

    def build_model(self, model: Mapping[Any, Any], output: Records) -> KeyedModel:
        """New centroids, as float vectors; clusters that received no
        points keep theirs."""
        output = columnize(output)
        values = output.values
        if not (isinstance(values, ArrayColumn) and values.data.dtype == np.float64):
            values = build_column(
                [np.asarray(centroid, dtype=float) for centroid in values.rows()]
            )
        return super().build_model(model, ColumnBatch(output.keys, values))

    def converged(self, previous: Any, current: Any, iteration: int) -> Verdict:
        """All centroids moved less than the threshold (Figure 1(b))."""
        return either(
            fixed_iterations(self.max_iterations),
            max_change_below(self.threshold),
        )(previous, current, iteration)

    # -- PIC extras -------------------------------------------------------
    # partition: library default (random data partition + model copies),
    # exactly the paper's choice for K-means.
    # merge: library default (average corresponding centroids by key).
    # be_converged: library default (the same criterion), per Section IV-A.

    def merge_element(self, key: Any, values: list[Any]) -> Any:
        """Average corresponding centroid values (distributed merge)."""
        return np.mean(np.stack([np.asarray(v, dtype=float) for v in values]), axis=0)

    def local_max_iterations(self) -> int:
        """Local loops share the conventional iteration cap."""
        return self.max_iterations

    def centroid_array(self, model: Mapping[int, np.ndarray]) -> np.ndarray:
        """Model as a (k, dim) array in centroid-id order (for metrics)."""
        return np.stack([model[c] for c in sorted(model)])
