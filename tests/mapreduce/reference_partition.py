"""Per-bucket reference implementation of the map-side partition step.

This is the implementation ``_JobState._partition`` had before it grouped
a whole map output by (partition id, key) in one pass: scatter the
records into one bucket per reducer with a stable argsort, then — for a
job with a combiner — ``group_batch`` and ``run_combiner`` once per
non-empty bucket.  It defines what the fused step must produce, bucket
for bucket: the same records in the same order with the same
``nbytes_wire``.

Partition ids come from the job's scalar ``partitioner`` called per key
(``hash_partitioner`` included), so the reference leans on neither the
batched hash nor the fused grouping it is compared with.
"""

from __future__ import annotations

import numpy as np

from repro.mapreduce.columnar import ColumnBatch, group_batch
from repro.mapreduce.job import JobSpec


def reference_partition(spec: JobSpec, batch: ColumnBatch) -> list[ColumnBatch]:
    """One (combined) bucket per reducer, the per-bucket way."""
    num_reducers = spec.num_reducers
    pids = np.array(
        [spec.partitioner(key, num_reducers) for key in batch.keys.rows()],
        dtype=np.int64,
    )
    sorted_batch = batch.take(np.argsort(pids, kind="stable"))
    counts = np.bincount(pids, minlength=num_reducers)
    bounds = np.concatenate(([0], np.cumsum(counts))).tolist()
    empty = sorted_batch.slice(0, 0)
    buckets = [empty] * num_reducers
    for p in np.flatnonzero(counts).tolist():
        bucket = sorted_batch.slice(bounds[p], bounds[p + 1])
        if spec.combiner is not None:
            bucket = spec.run_combiner(group_batch(bucket))
        buckets[p] = bucket
    return buckets
