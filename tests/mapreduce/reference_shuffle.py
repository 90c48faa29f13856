"""Per-partition reference implementation of the shuffle's reduce input.

This is how the runner assembled a reducer's input before a job grouped
all of its map outputs in one pass: every map task cut its partitioned
(and combined) output into one bucket per reducer, and every reduce
task concatenated its own buckets in map-index order and grouped them
on their own.  It defines what each reducer must still be handed: the
same groups, in the same order, with the same values in the same order,
in columns of the same kinds — kinds that come from the reducer's own
buckets, not from the other reducers'.

Partition ids come from the job's scalar ``partitioner`` called per key
(``hash_partitioner`` included), so the reference leans on neither the
batched hash nor the runner's bucket ids.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.mapreduce.columnar import (
    ColumnBatch,
    GroupedBatch,
    concat_batches,
    group_batch,
    group_buckets,
)
from repro.mapreduce.job import JobSpec


def reference_buckets(spec: JobSpec, batch: ColumnBatch) -> list[ColumnBatch]:
    """One map output's bucket per reducer: a stable scatter by
    partition id or, with a combiner, one grouping by (partition id,
    key) combined in one call — then one ``slice`` per bucket."""
    num_reducers = spec.num_reducers
    pids = np.array(
        [spec.partitioner(key, num_reducers) for key in batch.keys.rows()],
        dtype=np.int64,
    )
    if spec.combiner is None:
        sorted_batch = batch.take(np.argsort(pids, kind="stable"))
        counts = np.bincount(pids, minlength=num_reducers)
    else:
        grouped, counts = group_buckets(batch, pids, num_reducers)
        sorted_batch = spec.run_combiner(grouped)
    bounds = np.concatenate(([0], np.cumsum(counts))).tolist()
    return [
        sorted_batch.slice(bounds[p], bounds[p + 1]) for p in range(num_reducers)
    ]


def reference_reduce_inputs(
    spec: JobSpec, map_outputs: Sequence[ColumnBatch]
) -> list[GroupedBatch]:
    """Every reducer's input, given the map outputs in map-index order:
    its buckets concatenated in that order, then grouped by key."""
    buckets = [reference_buckets(spec, output) for output in map_outputs]
    return [
        group_batch(concat_batches([per_map[p] for per_map in buckets]))
        for p in range(spec.num_reducers)
    ]
