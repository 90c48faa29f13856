"""The neural net's combiner and reducer, one record group at a time.

``reference_combine`` and ``reference_reduce`` are
``NeuralNetProgram.combine`` and ``.reduce``, the record-at-a-time pair
the program carried before ``combine_batch``/``batch_reduce`` folded
every group of a call at once.  ``reference_combine_batch`` and
``reference_batch_reduce`` loop them the way ``PICProgram``'s default
``combine_batch`` and ``batch_reduce`` do — ``from_rows`` over the
combined records, one ``emit`` per key — so they define the rows, the
column kinds and the wire bytes the batch pair must produce.
"""

from __future__ import annotations

from typing import Any

from repro.mapreduce.columnar import ColumnBatch, GroupedBatch
from repro.mapreduce.job import TaskContext


def reference_combine(key: Any, values: list[Any]) -> Any:
    total = None
    count = 0
    for weights, n in values:
        total = weights.copy() if total is None else total + weights
        count += n
    return (total, count)


def reference_reduce(ctx: TaskContext, key: Any, values: list[Any]) -> None:
    total = None
    count = 0
    for weights, n in values:
        total = weights.copy() if total is None else total + weights
        count += n
    ctx.emit(key, total / max(count, 1))


def reference_combine_batch(grouped: GroupedBatch) -> ColumnBatch:
    return ColumnBatch.from_rows(
        [(key, reference_combine(key, values)) for key, values in grouped]
    )


def reference_batch_reduce(ctx: TaskContext, grouped: GroupedBatch) -> None:
    for key, values in grouped:
        reference_reduce(ctx, key, values)
