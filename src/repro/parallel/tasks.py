"""Module-level task functions shipped to worker processes.

Every function here is pure: it reads its arguments, computes, and
returns a picklable result.  Keeping them at module level (not closures
or bound methods of runner state) is what makes them importable from a
freshly spawned/forked worker.  The job runner sends every map task of
a job through :func:`map_task` at submit, whatever the executor; a
serial executor simply runs them in-process.
"""

from __future__ import annotations

from typing import Any, NamedTuple, Sequence

import numpy as np

from repro.mapreduce.columnar import ColumnBatch, group_buckets
from repro.mapreduce.job import JobSpec, TaskContext
from repro.mapreduce.records import hash_partitioner


class MapCharge(NamedTuple):
    """What the simulation charges for one map task's output."""

    #: Records per reduce partition, and each partition's wire size:
    #: what each shuffle flow carries.
    counts: list[int]
    bucket_bytes: list[int]
    #: The mapper's output before the combiner: records and wire size.
    raw_records: int
    raw_bytes: int
    #: The task's ``ctx.stats``.
    stats: dict[str, float]


#: One map task's result: the records that travel (combined, when the
#: job has a combiner), each one's reduce partition, and its charge.
MapOutput = tuple[ColumnBatch, np.ndarray, MapCharge]


def solve_subproblem(
    payload: tuple[Any, ColumnBatch | Sequence[tuple[Any, Any]], Any, int | None],
) -> tuple[Any, int, float]:
    """Run one sub-problem's local IC iterations to convergence.

    Payload: ``(program, records, sub_model, max_iterations)``.
    Returns ``(solved_model, iterations, compute_seconds)`` — exactly
    :meth:`PICProgram.solve_in_memory`'s contract.
    """
    program, records, model, max_iterations = payload
    return program.solve_in_memory(records, model, max_iterations=max_iterations)


def run_map_task(
    spec: JobSpec, model: Any, split_index: int, records: ColumnBatch
) -> MapOutput:
    """Run one map task's real computation: the mapper against a fresh
    context, then the partition (and combine) step over its output
    (:func:`partition_output`)."""
    ctx = TaskContext(model=model, split_index=split_index)
    spec.mapper(ctx, records)
    output = ctx.collect()
    batch, pids, counts = partition_output(spec, output)
    bucket_bytes = batch.bucket_nbytes(pids, counts)
    # Without a combiner the buckets are exactly the raw output
    # re-partitioned, so one sizing pass covers both totals.
    raw_bytes = sum(bucket_bytes) if spec.combiner is None else output.nbytes_wire()
    charge = MapCharge(
        counts.tolist(), bucket_bytes, len(output), raw_bytes, dict(ctx.stats)
    )
    return batch, pids, charge


def map_task(payload: tuple[JobSpec, Any, int, ColumnBatch]) -> MapOutput:
    """:func:`run_map_task` over one ``(spec, model, split_index,
    records)`` payload — the executor passes each task one argument."""
    return run_map_task(*payload)


def partition_output(
    spec: JobSpec, batch: ColumnBatch
) -> tuple[ColumnBatch, np.ndarray, np.ndarray]:
    """Partition (and combine) one map task's output: the records that
    travel, each one's partition id, and the record count per partition.
    The ids are the batched ``stable_hash``, or the job's own
    ``partitioner`` per key.  Without a combiner the output travels as
    emitted; with one, it is grouped by (partition id, key) and the
    combiner runs once over all the partitions' groups, leaving one
    record per group, partition after partition.  Ids come back in the
    narrowest unsigned type that holds them (uint8 up to 256 reducers),
    which the reduce-side grouping's stable argsort sorts by radix."""
    num_reducers = spec.num_reducers
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
