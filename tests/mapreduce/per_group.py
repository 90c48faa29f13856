"""Per-group job functions in a ``JobSpec``'s batch signatures.

A job's combiner takes a whole ``GroupedBatch`` and returns one record
per group; its reducer takes a ``GroupedBatch`` and a context.  Tests
whose combiner or reducer is clearest one group at a time — an oracle,
or a scalar value a test wants to see in an object column — wrap it
here, in the same loops ``PICProgram``'s default ``combine_batch`` and
``batch_reduce`` run.  The wrappers are plain objects, so a job built
from module-level functions still pickles into a worker pool.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.mapreduce.columnar import ColumnBatch, GroupedBatch
from repro.mapreduce.job import TaskContext


@dataclass(frozen=True)
class GroupCombiner:
    """``combine(key, values) -> value`` as a batch combiner."""

    combine: Callable[[Any, list[Any]], Any]

    def __call__(self, grouped: GroupedBatch) -> ColumnBatch:
        return ColumnBatch.from_rows(
            [(key, self.combine(key, values)) for key, values in grouped]
        )


@dataclass(frozen=True)
class GroupReducer:
    """``reduce(ctx, key, values)`` as a batch reducer."""

    reduce: Callable[[TaskContext, Any, list[Any]], None]

    def __call__(self, ctx: TaskContext, grouped: GroupedBatch) -> None:
        for key, values in grouped:
            self.reduce(ctx, key, values)
