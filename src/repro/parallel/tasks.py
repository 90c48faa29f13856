"""A job's host computation, and the task functions it ships to workers.

:func:`compute_job` is the one computation of every job — a cluster
job's at :meth:`JobRunner.submit`, and a best-effort local iteration's
(one split, one reducer, in-process) — so both apply one key rule and
one combiner rule.  A local iteration computes only what the next model
needs: its lone map task runs here, without an executor, and sizes
nothing — no :class:`MapCharge`, so no bucket or raw-output byte counts
— since no simulation charges an in-memory iteration for its output.
Task functions are pure and module-level: a freshly spawned or forked
worker can import them, and a serial executor simply runs them
in-process.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.mapreduce.columnar import (
    ColumnBatch,
    bucket_kinds,
    concat_batches,
    group_buckets,
    kinds_agree,
    singleton_groups,
)
from repro.mapreduce.job import ComputedJob, JobSpec, MapCharge, TaskContext
from repro.mapreduce.records import hash_partitioner
from repro.parallel.executor import TaskExecutor


#: One map task's result: the records that travel (combined, when the
#: job has a combiner), each one's reduce partition, and the charge of
#: each split the task mapped — none when the task was not sized.
MapOutput = tuple[ColumnBatch, np.ndarray, list[MapCharge]]


def compute_job(
    spec: JobSpec,
    model: Any,
    splits: Sequence[ColumnBatch],
    num_reducers: int,
    executor: TaskExecutor | None,
    split_models: Sequence[Any] | None = None,
) -> ComputedJob:
    """Run a job's real computation, all of it, now: the map tasks
    through ``executor``, each over a group of consecutive splits
    (:func:`map_groups`), split ``i`` seeing ``split_models[i]`` (or
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
        (spec, model if split_models is None else split_models[first], first,
         splits[first:stop], num_reducers)
        for first, stop in map_groups(spec, splits, executor, split_models)
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
    return ComputedJob(reduce_outputs, [c for group in charges for c in group])


def map_groups(
    spec: JobSpec,
    splits: Sequence[ColumnBatch],
    executor: TaskExecutor | None,
    split_models: Sequence[Any] | None = None,
) -> list[tuple[int, int]]:
    """Each map task's splits, as ``(first, stop)`` bounds in split order.

    A record-wise job whose splits share one model and agree on their
    column kinds maps them in as few calls as the executor has workers
    — one call when serial — each over near-equal runs of consecutive
    splits: its mapper sees every record exactly as it would in its own
    split's call.  Every other job maps each split on its own."""
    n = len(splits)
    if (not spec.record_wise or split_models is not None or n < 2
            or not kinds_agree(splits)):
        return [(i, i + 1) for i in range(n)]
    tasks = min(n, 1 if executor is None else executor.workers)
    bounds = [round(g * n / tasks) for g in range(tasks + 1)]
    return list(zip(bounds, bounds[1:]))


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
    spec: JobSpec,
    model: Any,
    first_split: int,
    splits: Sequence[ColumnBatch],
    num_reducers: int,
    sized: bool = True,
) -> MapOutput:
    """Run one map task's real computation over splits ``first_split``
    onward: one mapper call against a fresh context over their records,
    read-only — made so here, in the process that runs it, as a pickled
    split arrives writable (a split frozen before is not scanned again)
    — then the partition (and combine) step over its output
    (:func:`partition_output`), and, when ``sized``, each split's
    :class:`MapCharge`.

    Only a record-wise job maps several splits at once (:func:`map_groups`).
    Its mapper sees them concatenated and no ``split_index``, and must
    keep its contract: exactly one record out per record in, no
    ``ctx.stats``.  Split ``s``'s records are then the output's next
    ``len(s)``, and its charge is cut from one count and one sizing
    pass over the bucket id ``s × num_reducers + partition``."""
    records = splits[0] if len(splits) == 1 else concat_batches(splits)
    records.freeze()
    ctx = TaskContext(
        model=model, split_index=None if spec.record_wise else first_split
    )
    spec.mapper(ctx, records)
    output = ctx.collect()
    if spec.record_wise and len(output) != len(records):
        raise ValueError(
            f"job {spec.name!r}: record-wise mapper emitted {len(output)} "
            f"records for {len(records)} input records; expected exactly one each"
        )
    if spec.record_wise and ctx.stats:
        raise ValueError(
            f"job {spec.name!r}: record-wise mapper wrote ctx.stats "
            f"{sorted(ctx.stats)}; a record-wise map task keeps no stats"
        )
    batch, pids, counts = partition_output(spec, output, num_reducers)
    if not sized:
        return batch, pids, []
    buckets = pids
    if len(splits) > 1:
        offsets = np.arange(0, len(splits) * num_reducers, num_reducers)
        buckets = np.repeat(offsets, [len(s) for s in splits]) + pids
        counts = np.bincount(buckets, minlength=len(offsets) * num_reducers)
    bucket_bytes = batch.bucket_nbytes(buckets, counts)
    charges: list[MapCharge] = []
    for lo in range(0, len(counts), num_reducers):
        split_counts = counts[lo : lo + num_reducers].tolist()
        split_bytes = bucket_bytes[lo : lo + num_reducers]
        if spec.combiner is None:
            # The buckets are exactly the raw output re-partitioned, so
            # one sizing pass covers both totals.
            raw_records, raw_bytes = sum(split_counts), sum(split_bytes)
        else:
            raw_records, raw_bytes = len(output), output.nbytes_wire()
        charges.append(MapCharge(
            split_counts, split_bytes, raw_records, raw_bytes, dict(ctx.stats)
        ))
    return batch, pids, charges


def map_task(
    payload: tuple[JobSpec, Any, int, Sequence[ColumnBatch], int],
) -> MapOutput:
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
