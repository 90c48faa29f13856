"""Per-split reference implementation of a job's map wave.

This is :mod:`repro.parallel.tasks` as it was before a record-wise job
mapped a batch of splits in one call: :func:`compute_job` runs one map
task per split — one mapper call, one partition pass and one
:class:`MapCharge` each — whatever the job declares.  It defines what
the grouped wave must produce: the same reduce outputs, row for row and
column kind for column kind, and the same charge for every split.
Kept verbatim; never edit it to make a change pass.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.mapreduce.columnar import (
    ColumnBatch,
    bucket_kinds,
    concat_batches,
    group_buckets,
    singleton_groups,
)
from repro.mapreduce.job import ComputedJob, JobSpec, MapCharge, TaskContext
from repro.mapreduce.records import hash_partitioner
from repro.parallel.executor import TaskExecutor


#: One map task's result: the records that travel (combined, when the
#: job has a combiner), each one's reduce partition, and its charge —
#: ``None`` when the task was not sized.
MapOutput = tuple[ColumnBatch, np.ndarray, MapCharge | None]


def compute_job(
    spec: JobSpec,
    model: Any,
    splits: Sequence[ColumnBatch],
    num_reducers: int,
    executor: TaskExecutor | None,
    split_models: Sequence[Any] | None = None,
) -> ComputedJob:
    """Run a job's real computation, all of it, now: map task ``i`` over
    ``splits[i]`` through ``executor``, seeing ``split_models[i]`` (or
    ``model``) as ``ctx.model``; one grouping of every map output by
    (partition, key), concatenated by map index, so neither arrival
    timing nor the executor leaks into float summation order; then each
    of ``num_reducers`` reducers over its partition's groups, in the
    kinds its own buckets concatenate to.  A lone map output with a
    combiner is grouped already: its records are one-value groups.

    No ``executor`` means no simulation will charge the job (a
    best-effort local iteration): its map tasks run here, in this
    process, sizing nothing, and ``charges`` comes back empty."""
    payloads = [
        (spec, model if split_models is None else split_models[i], i, records,
         num_reducers)
        for i, records in enumerate(splits)
    ]
    results: list[Any]
    if executor is None:
        results = [run_map_task(*payload, sized=False) for payload in payloads]
    else:
        results = executor.map(map_task, payloads)
    outputs, pids, charges = zip(*results)
    del results
    kinds = None
    if len(outputs) == 1:
        merged, ids = outputs[0], pids[0]
    else:
        kinds = bucket_kinds(outputs, pids, num_reducers)
        merged, ids = concat_batches(outputs), np.concatenate(pids)
    del outputs, pids  # one copy of the shuffle at a time, none after the reduces
    if len(charges) == 1 and spec.combiner is not None:
        grouped, groups = singleton_groups(merged), np.bincount(ids, minlength=num_reducers)
    else:
        grouped, groups = group_buckets(merged, ids, num_reducers)
    del merged, ids
    parts = [grouped]
    if num_reducers > 1:
        bounds = np.concatenate(([0], np.cumsum(groups))).tolist()
        parts = [grouped.groups(bounds[p], bounds[p + 1]) for p in range(num_reducers)]
    reduce_outputs = []
    for p, part in enumerate(parts):
        ctx = TaskContext(model=model)
        spec.reducer(ctx, part if kinds is None else part.as_kinds(kinds[p]))
        reduce_outputs.append(ctx.collect())
    return ComputedJob(reduce_outputs, [c for c in charges if c is not None])


def run_map_task(
    spec: JobSpec,
    model: Any,
    split_index: int,
    records: ColumnBatch,
    num_reducers: int,
    sized: bool = True,
) -> MapOutput:
    """Run one map task's real computation: the mapper against a fresh
    context over its read-only split — made so here, in the process that
    runs it, as a pickled split arrives writable (a split frozen before
    is not scanned again) — then the partition (and combine) step over
    its output (:func:`partition_output`), and, when ``sized``, the
    output's :class:`MapCharge`."""
    records.freeze()
    ctx = TaskContext(model=model, split_index=split_index)
    spec.mapper(ctx, records)
    output = ctx.collect()
    batch, pids, counts = partition_output(spec, output, num_reducers)
    if not sized:
        return batch, pids, None
    bucket_bytes = batch.bucket_nbytes(pids, counts)
    # Without a combiner the buckets are exactly the raw output
    # re-partitioned, so one sizing pass covers both totals.
    raw_bytes = sum(bucket_bytes) if spec.combiner is None else output.nbytes_wire()
    charge = MapCharge(
        counts.tolist(), bucket_bytes, len(output), raw_bytes, dict(ctx.stats)
    )
    return batch, pids, charge


def map_task(payload: tuple[JobSpec, Any, int, ColumnBatch, int]) -> MapOutput:
    """:func:`run_map_task` over one payload of its arguments — the
    executor passes each task one argument."""
    return run_map_task(*payload)


def partition_output(
    spec: JobSpec, batch: ColumnBatch, num_reducers: int
) -> tuple[ColumnBatch, np.ndarray, np.ndarray]:
    """Partition (and combine) one map task's output over ``num_reducers``
    partitions: the records that travel, each one's partition id, and
    the record count per partition.  The ids are the batched
    ``stable_hash``, or the job's own ``partitioner`` per key.  Without a
    combiner the output travels as emitted; with one, it is grouped by
    (partition id, key) and the combiner runs once over all the
    partitions' groups, leaving one record per group, partition after
    partition.  Ids come back in the narrowest unsigned type that holds
    them (uint8 up to 256 reducers), which the reduce-side grouping's
    stable argsort sorts by radix."""
    if spec.partitioner is hash_partitioner:
        # With a combiner and several reducers the grouping hashes the
        # keys itself, once per distinct key where it can.
        pids = (
            batch.partition_ids(num_reducers)
            if spec.combiner is None or num_reducers == 1
            else None
        )
    else:
        pids = np.empty(len(batch), dtype=np.int64)
        for i, key in enumerate(batch.keys.rows()):
            p = spec.partitioner(key, num_reducers)
            # An id no reducer owns would silently drop the record.
            if not isinstance(p, (int, np.integer)) or not 0 <= p < num_reducers:
                raise ValueError(
                    f"job {spec.name!r}: partitioner returned {p!r} "
                    f"for key {key!r}; expected an integer in "
                    f"range({num_reducers})"
                )
            pids[i] = p
    id_type = np.min_scalar_type(num_reducers - 1)
    if spec.combiner is None:
        assert pids is not None
        counts = np.bincount(pids, minlength=num_reducers)
        return batch, pids.astype(id_type), counts
    # One record per group, partition after partition: a partition's
    # share of the combined batch is its number of groups.
    grouped, counts = group_buckets(batch, pids, num_reducers)
    pids = np.repeat(np.arange(num_reducers, dtype=id_type), counts)
    return spec.run_combiner(grouped), pids, counts
