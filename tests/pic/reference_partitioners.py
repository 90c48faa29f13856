"""Row-at-a-time reference implementations of the data partitioners.

These are the implementations ``repro.pic.partitioners`` and
``DistributedDataset.materialize`` had while they dealt Python row
tuples into lists.  They define what the batch versions (``take`` /
``slice`` of one ingested ``ColumnBatch``) must produce, partition for
partition: the same rows in the same order, and therefore the same
serialized size.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.mapreduce.records import stable_hash
from repro.util.rng import SeedLike, as_generator

Rows = list[tuple[Any, Any]]


def reference_random_partition(
    records: Sequence[tuple[Any, Any]], num_partitions: int, seed: SeedLike = 0
) -> list[Rows]:
    """Shuffle records and deal them round-robin, one row at a time."""
    order = as_generator(seed).permutation(len(records))
    parts: list[Rows] = [[] for _ in range(num_partitions)]
    for position, record_index in enumerate(order):
        parts[position % num_partitions].append(records[record_index])
    return parts


def reference_chunk_partition(
    records: Sequence[tuple[Any, Any]], num_partitions: int
) -> list[Rows]:
    """Contiguous near-equal chunks, cut by list slicing (this is also
    how ``materialize`` cut its input splits)."""
    n = len(records)
    bounds = [round(i * n / num_partitions) for i in range(num_partitions + 1)]
    return [list(records[bounds[i] : bounds[i + 1]]) for i in range(num_partitions)]


def reference_hash_partition(
    records: Sequence[tuple[Any, Any]], num_partitions: int
) -> list[Rows]:
    """One scalar ``stable_hash`` per record."""
    parts: list[Rows] = [[] for _ in range(num_partitions)]
    for key, value in records:
        parts[stable_hash(key) % num_partitions].append((key, value))
    return parts
