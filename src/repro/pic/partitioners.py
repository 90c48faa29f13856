"""Default ``partition`` strategies (Section III-B).

The paper's experiments use simple random partitioning for K-means and
random vertex grouping for PageRank, and note that "sophisticated
partitioning schemes such as min-cut graph partitioning" are possible.
All strategies here take a :class:`ColumnBatch` (a row list is columnized
on entry) and return one ``take``/``slice`` batch per partition — no
per-record Python work.  Model handling (replicate vs split) is separate:
see :func:`replicate_model` and the graph partitioner in :mod:`repro.apps.pagerank`.
"""

from __future__ import annotations

import copy
from typing import Any

import numpy as np

from repro.mapreduce.columnar import ColumnBatch, Records, columnize
from repro.util.rng import SeedLike, as_generator


def _check_num_partitions(num_partitions: int) -> None:
    if num_partitions <= 0:
        raise ValueError(f"num_partitions must be positive, got {num_partitions}")


def random_partition(
    records: Records, num_partitions: int, seed: SeedLike = 0
) -> list[ColumnBatch]:
    """Shuffle records and deal them into near-equal partitions."""
    _check_num_partitions(num_partitions)
    batch = columnize(records)
    order = as_generator(seed).permutation(len(batch))
    return [batch.take(order[p::num_partitions]) for p in range(num_partitions)]


def chunk_partition(records: Records, num_partitions: int) -> list[ColumnBatch]:
    """Contiguous near-equal chunks (preserves input order/locality)."""
    _check_num_partitions(num_partitions)
    return columnize(records).even_slices(num_partitions)


def hash_partition(records: Records, num_partitions: int) -> list[ColumnBatch]:
    """Partition by stable key hash (co-locates equal keys)."""
    _check_num_partitions(num_partitions)
    batch = columnize(records)
    pids = batch.partition_ids(num_partitions)
    return [batch.take(np.flatnonzero(pids == p)) for p in range(num_partitions)]


def replicate_model(model: Any, num_partitions: int) -> list[Any]:
    """Give each sub-problem its own deep copy of the model.

    Deep copies keep sub-problems from mutating shared arrays — the
    sub-problems are *independent* by construction in PIC.
    """
    _check_num_partitions(num_partitions)
    return [copy.deepcopy(model) for _ in range(num_partitions)]

