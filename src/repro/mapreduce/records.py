"""Records, input splits, and DFS-backed distributed datasets."""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable, Sequence

from repro.dfs.dfs import DistributedFileSystem

if TYPE_CHECKING:
    from repro.mapreduce.columnar import ColumnBatch, Records


def stable_hash(key: Any) -> int:
    """Deterministic hash for partitioning (Python's ``hash`` is salted)."""
    if isinstance(key, bool):
        data = b"b1" if key else b"b0"
    elif isinstance(key, int):
        try:
            data = b"i" + key.to_bytes(16, "little", signed=True)
        except OverflowError:
            # Beyond 128 bits: minimal signed width (always > 16 bytes,
            # so these never collide with the fixed-width form above).
            width = key.bit_length() // 8 + 1
            data = b"i" + key.to_bytes(width, "little", signed=True)
    elif isinstance(key, float):
        data = b"f" + repr(key).encode()
    elif isinstance(key, str):
        data = b"s" + key.encode("utf-8")
    elif isinstance(key, bytes):
        data = b"y" + key
    elif isinstance(key, tuple):
        data = b"t" + b"|".join(
            stable_hash(item).to_bytes(8, "little") for item in key
        )
    else:
        raise TypeError(f"unhashable partition key type: {type(key).__name__}")
    return zlib.crc32(data)


def hash_partitioner(key: Any, num_partitions: int) -> int:
    """Hadoop's default: stable hash of the key modulo reducer count."""
    if num_partitions <= 0:
        raise ValueError(f"num_partitions must be positive, got {num_partitions}")
    return stable_hash(key) % num_partitions


def group_by_key(records: Iterable[tuple[Any, Any]]) -> list[tuple[Any, list[Any]]]:
    """Group values by key, in sorted key order when keys are sortable.

    This mirrors Hadoop's sort phase, and is the scalar definition the
    vectorized :func:`repro.mapreduce.columnar.group_batch` is tested
    against (and calls, for key sets numpy cannot order).  Mixed-type
    key sets (unorderable in Python 3) fall back to sorting by
    ``(type qualname, repr)``: qualifying by type first keeps keys of
    different types from interleaving on repr collisions (``1`` vs
    ``np.int64(1)`` both repr as ``"1"``), so the order is deterministic
    and same-type keys stay grouped together.  A NaN key equals nothing,
    itself included, so every NaN record is its own group — whether or
    not the records share one NaN object, which a dict lookup would
    otherwise match by identity.
    """
    slots: dict[Any, list[Any]] = {}
    items: list[tuple[Any, list[Any]]] = []
    for key, value in records:
        values = slots.get(key)
        if values is None or key != key:
            values = slots[key] = []
            items.append((key, values))
        values.append(value)
    try:
        return sorted(items, key=lambda kv: kv[0])
    except TypeError:
        return sorted(
            items, key=lambda kv: (type(kv[0]).__qualname__, repr(kv[0]))
        )


@dataclass
class Split:
    """One input split: its records plus their serialized size.

    ``records`` is a :class:`~repro.mapreduce.columnar.ColumnBatch`; it
    iterates as ``(key, value)`` rows for record-at-a-time mappers.

    ``nbytes`` defaults to the measured serialized size of the records
    but can be overridden when the dataset models a larger on-disk
    encoding.
    """

    index: int
    records: ColumnBatch
    nbytes: int = field(default=-1)

    def __post_init__(self) -> None:
        if self.nbytes < 0:
            self.nbytes = self.records.nbytes_wire()

    def __len__(self) -> int:
        return len(self.records)


class DistributedDataset:
    """Input data registered with the DFS, split for map tasks.

    Each split is backed by exactly one DFS block so the scheduler's
    locality decisions see the same placement a Hadoop job would.
    """

    def __init__(
        self, path: str, splits: list[Split], dfs: DistributedFileSystem
    ) -> None:
        if not splits:
            raise ValueError("a dataset needs at least one split")
        self.path = path
        self.splits = splits
        self.dfs = dfs
        #: Total record count and serialized size over all splits.
        self.num_records = sum(len(s) for s in splits)
        self.nbytes = sum(s.nbytes for s in splits)
        self._block_locations: list[tuple[int, ...]] = []

    @classmethod
    def materialize(
        cls,
        dfs: DistributedFileSystem,
        path: str,
        records: Records,
        num_splits: int,
    ) -> "DistributedDataset":
        """Columnize ``records`` (a batch passes through), cut the batch
        into near-equal contiguous splits — zero-copy views of it — and
        register them with the DFS."""
        # Deferred: repro.mapreduce.columnar builds on this module's
        # scalar hash and grouping.
        from repro.mapreduce.columnar import columnize

        if num_splits <= 0:
            raise ValueError(f"num_splits must be positive, got {num_splits}")
        batch = columnize(records)
        chunks = batch.even_slices(min(num_splits, max(1, len(batch))))
        splits = [Split(index=i, records=chunk) for i, chunk in enumerate(chunks)]
        dataset = cls(path, splits, dfs)
        dataset._register_blocks()
        return dataset

    @classmethod
    def from_partitions(
        cls,
        dfs: DistributedFileSystem,
        path: str,
        partitions: Sequence[Records],
        placements: Sequence[int],
    ) -> "DistributedDataset":
        """Build a dataset with one split per given partition, each
        pinned (unreplicated) to a chosen node — PIC's co-located
        sub-problem data.  Batches pass through; row lists are columnized."""
        from repro.mapreduce.columnar import columnize

        if len(placements) != len(partitions):
            raise ValueError(
                f"{len(partitions)} partitions but {len(placements)} placements"
            )
        splits = [
            Split(index=i, records=columnize(p)) for i, p in enumerate(partitions)
        ]
        dataset = cls(path, splits, dfs)
        for split, node in zip(splits, placements):
            meta = dfs.namenode.create(
                f"{path}/part-{split.index:05d}", split.nbytes, node, replication=1
            )
            dataset._block_locations.append(meta.blocks[0].replicas)
        return dataset

    def _register_blocks(self) -> None:
        """Create one DFS file per split (block-per-split placement)."""
        namenode = self.dfs.namenode
        num_nodes = self.dfs.cluster.num_nodes
        for split in self.splits:
            # Bypass the data-plane cost for ingest: the paper's runs
            # (and its strengthened baseline) start from data already in
            # HDFS. Metadata-only create still decides replica placement;
            # rotating the "writer" spreads first replicas like a real
            # parallel ingest would.
            writer = split.index % num_nodes
            meta = namenode.create(
                f"{self.path}/part-{split.index:05d}", split.nbytes, writer
            )
            self._block_locations.append(meta.blocks[0].replicas)

    def locations(self, split_index: int) -> tuple[int, ...]:
        """Nodes holding the block backing ``split_index``."""
        return self._block_locations[split_index]

    def all_records(self) -> list[tuple[Any, Any]]:
        """All records, concatenated in split order."""
        return [record for split in self.splits for record in split.records]
