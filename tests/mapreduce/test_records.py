"""Tests for records, partitioning helpers and datasets."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.cluster.cluster import Cluster
from repro.dfs.dfs import DistributedFileSystem
from repro.mapreduce.columnar import ColumnBatch
from repro.mapreduce.records import (
    DistributedDataset,
    Split,
    group_by_key,
    hash_partitioner,
    stable_hash,
)


class TestStableHash:
    def test_deterministic(self):
        assert stable_hash("foo") == stable_hash("foo")
        assert stable_hash(42) == stable_hash(42)

    def test_types_disambiguated(self):
        assert stable_hash(1) != stable_hash("1")
        assert stable_hash(True) != stable_hash(1)

    def test_tuple_keys(self):
        assert stable_hash(("pr", 3)) == stable_hash(("pr", 3))
        assert stable_hash(("pr", 3)) != stable_hash(("pr", 4))

    def test_unhashable_rejected(self):
        with pytest.raises(TypeError):
            stable_hash(object())

    def test_beyond_128_bit_ints(self):
        # 2**127 is the first int that overflows the fixed 16-byte
        # packing; arbitrary-width ints must still hash.
        for key in (2**127, -(2**127) - 1, 10**50, -(10**50)):
            assert stable_hash(key) == stable_hash(key)
            assert stable_hash(key) >= 0
        assert stable_hash(2**127) != stable_hash(2**127 + 1)

    @given(st.one_of(st.integers(), st.text(), st.floats(allow_nan=False)))
    def test_always_non_negative(self, key):
        assert stable_hash(key) >= 0


class TestHashPartitioner:
    @given(st.integers(), st.integers(1, 64))
    def test_in_range(self, key, n):
        assert 0 <= hash_partitioner(key, n) < n

    def test_zero_partitions_rejected(self):
        with pytest.raises(ValueError):
            hash_partitioner(1, 0)

    def test_spreads_keys(self):
        counts = [0] * 8
        for i in range(800):
            counts[hash_partitioner(i, 8)] += 1
        assert min(counts) > 40  # roughly uniform


class TestGroupByKey:
    def test_groups_and_sorts(self):
        out = group_by_key([("b", 1), ("a", 2), ("b", 3)])
        assert out == [("a", [2]), ("b", [1, 3])]

    def test_value_order_preserved(self):
        out = group_by_key([("k", 1), ("k", 2), ("k", 3)])
        assert out[0][1] == [1, 2, 3]

    def test_unsortable_keys_fall_back_to_repr(self):
        out = group_by_key([((1, 2), "a"), ("s", "b")])
        assert len(out) == 2

    def test_mixed_key_fallback_key_order_is_arrival_independent(self):
        # Unorderable key sets must come out in the same key order no
        # matter how records arrive (reducer input order must not depend
        # on mapper completion order). Value order within a group still
        # tracks arrival order, like Hadoop's unsorted reduce values.
        records = [(1, "a"), ("1", "b"), ((1,), "c"), (None, "d"), (1, "e")]
        baseline = group_by_key(records)
        keys = [k for k, _ in baseline]
        assert [k for k, _ in group_by_key(reversed(records))] == keys
        assert keys == sorted(
            {1, "1", (1,), None}, key=lambda k: (type(k).__qualname__, repr(k))
        )
        assert dict(baseline)[1] == ["a", "e"]

    def test_mixed_key_fallback_separates_repr_collisions(self):
        # Distinct keys of different types whose reprs collide ("1" for
        # both) would tie under a repr-only sort, letting dict insertion
        # order (= arrival order) pick the winner. Qualifying by type
        # qualname breaks the tie deterministically.
        class Alpha:
            def __init__(self, n):
                self.n = n

            def __repr__(self):
                return repr(self.n)

            def __hash__(self):
                return hash(self.n)

            def __eq__(self, other):
                return type(other) is type(self) and other.n == self.n

        class Beta(Alpha):
            pass

        records = [(Beta(1), "b"), (Alpha(1), "a"), (None, "n")]
        keys_fwd = [k for k, _ in group_by_key(records)]
        keys_rev = [k for k, _ in group_by_key(reversed(records))]
        assert keys_fwd == keys_rev
        assert len(keys_fwd) == 3
        types = [type(k).__qualname__ for k in keys_fwd]
        assert types == sorted(types)

    def test_empty(self):
        assert group_by_key([]) == []

    def test_every_nan_record_is_its_own_group(self):
        # NaN equals nothing, itself included; a dict lookup would match
        # one shared NaN object by identity and merge its records.
        shared = group_by_key([(math.nan, 1), (2.0, 2), (math.nan, 3)])
        fresh = group_by_key([(float("nan"), 1), (2.0, 2), (float("nan"), 3)])
        assert [values for _k, values in shared] == [[1], [2], [3]]
        assert repr(shared) == repr(fresh)


class TestSplit:
    def test_nbytes_auto_measured(self):
        split = Split(index=0, records=ColumnBatch.from_rows([(1, 2.0)]))
        assert split.nbytes == 16

    def test_nbytes_override(self):
        split = Split(
            index=0, records=ColumnBatch.from_rows([(1, 2.0)]), nbytes=1000
        )
        assert split.nbytes == 1000

    def test_len(self):
        split = Split(index=0, records=ColumnBatch.from_rows([(1, 1), (2, 2)]))
        assert len(split) == 2


def make_dfs(num_nodes=6):
    cluster = Cluster(num_nodes=num_nodes, nodes_per_rack=num_nodes)
    return cluster, DistributedFileSystem(cluster)


class TestDistributedDataset:
    def test_even_split_sizes(self):
        _c, dfs = make_dfs()
        records = [(i, i) for i in range(10)]
        ds = DistributedDataset.materialize(dfs, "/d", records, num_splits=3)
        assert [len(s) for s in ds.splits] == [3, 4, 3]
        assert ds.num_records == 10

    def test_more_splits_than_records_clamped(self):
        _c, dfs = make_dfs()
        ds = DistributedDataset.materialize(dfs, "/d", [(1, 1)], num_splits=5)
        assert len(ds.splits) == 1

    def test_zero_splits_rejected(self):
        _c, dfs = make_dfs()
        with pytest.raises(ValueError):
            DistributedDataset.materialize(dfs, "/d", [(1, 1)], num_splits=0)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            DistributedDataset("/d", [], None)

    def test_locations_rotate_over_nodes(self):
        _c, dfs = make_dfs()
        records = [(i, i) for i in range(12)]
        ds = DistributedDataset.materialize(dfs, "/d", records, num_splits=6)
        first_replicas = [ds.locations(i)[0] for i in range(6)]
        assert first_replicas == [0, 1, 2, 3, 4, 5]

    def test_all_records_roundtrip(self):
        _c, dfs = make_dfs()
        records = [(i, i * 2) for i in range(7)]
        ds = DistributedDataset.materialize(dfs, "/d", records, num_splits=3)
        assert ds.all_records() == records

    def test_ingest_columnizes_row_lists(self):
        # Row lists stop at the ingest boundary: every split holds a
        # ColumnBatch, and a batch handed in is kept as it is.
        _c, dfs = make_dfs()
        records = [(i, float(i)) for i in range(10)]
        ds = DistributedDataset.materialize(dfs, "/d", records, num_splits=2)
        assert all(type(s.records) is ColumnBatch for s in ds.splits)
        batch = ColumnBatch.from_rows(records[:4])
        parts = DistributedDataset.from_partitions(
            dfs, "/p", [batch, records[4:]], placements=[0, 1]
        )
        assert parts.splits[0].records is batch
        assert type(parts.splits[1].records) is ColumnBatch
        assert parts.all_records() == records

    def test_materialize_charges_no_traffic(self):
        cluster, dfs = make_dfs()
        DistributedDataset.materialize(dfs, "/d", [(i, i) for i in range(10)], 3)
        assert cluster.meter.grand_total() == 0

    def test_from_partitions_pins_placement(self):
        _c, dfs = make_dfs()
        parts = [[(0, "a")], [(1, "b")], [(2, "c")]]
        ds = DistributedDataset.from_partitions(
            dfs, "/p", parts, placements=[4, 2, 0]
        )
        assert ds.locations(0) == (4,)
        assert ds.locations(1) == (2,)
        assert ds.locations(2) == (0,)

    def test_from_partitions_length_mismatch(self):
        _c, dfs = make_dfs()
        with pytest.raises(ValueError):
            DistributedDataset.from_partitions(dfs, "/p", [[(0, 1)]], placements=[0, 1])

    @given(st.integers(1, 50), st.integers(1, 10))
    def test_even_chunks_partition_everything(self, n, k):
        _c, dfs = make_dfs()
        records = [(i, i) for i in range(n)]
        ds = DistributedDataset.materialize(dfs, "/d", records, num_splits=k)
        assert len(ds.splits) == min(k, n)
        assert ds.all_records() == records
        sizes = [len(s) for s in ds.splits]
        assert max(sizes) - min(sizes) <= 1
        assert (ds.num_records, ds.nbytes) == (n, sum(s.nbytes for s in ds.splits))
