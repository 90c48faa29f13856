"""PageRank's two mappers, its aggregate combiner and its aggregate
reducer as scalar loops.

The mappers are ``PageRankProgram._map_aggregate`` and
``_map_propagate`` as they were while each walked its split's ragged
adjacency lists through a dict model and emitted one record per call,
leaving the columnization to the task context.  They define what the
batch emitters must produce: the same records in the same order, in
columns of the same kinds.  The reducer is ``_reduce_aggregate`` as it
was before it summed every group at once; its sum is written out as the
left-to-right fold from ``0.0`` that ``float(sum(values))`` computed on
the Python versions it ran on (newer ones compensate a float ``sum``).
The combiner is ``_combine_sum``, the per-group form the program kept
beside ``_combine_sums``: the same fold, one group at a time.
"""

from __future__ import annotations

from functools import reduce
from operator import add
from typing import Any, Mapping

from repro.apps.pagerank.program import EDGE, PR
from repro.mapreduce.columnar import ColumnBatch
from repro.mapreduce.job import TaskContext


def reference_map_aggregate(
    ctx: TaskContext, model: Mapping[Any, float], records: ColumnBatch
) -> None:
    emit = ctx.emit
    for v, outs in records:
        emit(v, 0.0)  # keep sink-only vertices alive
        for t in outs:
            emit(t, model[(EDGE, v, t)])


def reference_combine_sum(key: Any, values: list[float]) -> float:
    return reduce(add, values, 0.0)


def reference_reduce_aggregate(
    damping: float, ctx: TaskContext, key: Any, values: list[float]
) -> None:
    total = 0.0
    for value in values:
        total += value
    ctx.emit((PR, key), (1.0 - damping) + damping * total)


def reference_map_propagate(
    ctx: TaskContext, model: Mapping[Any, float], records: ColumnBatch
) -> None:
    emit = ctx.emit
    for v, outs in records:
        if not outs:
            continue
        score = model[(PR, v)] / len(outs)
        for t in outs:
            emit((EDGE, v, t), score)
