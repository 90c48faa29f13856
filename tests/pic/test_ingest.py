"""The input is ingested once: one ``ColumnBatch`` per run, with input
splits, PIC partitions and sub-problems cut from it.

Two kinds of test: the batch partitioners and ``materialize`` against
the row-at-a-time references they replaced (same rows, same order, same
bytes), and spies on the row <-> column conversions that pin *how
often* a run crosses that boundary.
"""

import math
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.kmeans import KMeansProgram, gaussian_mixture
from repro.cluster.cluster import Cluster
from repro.dfs.dfs import DistributedFileSystem
from repro.mapreduce.columnar import ColumnBatch
from repro.mapreduce.records import DistributedDataset
from repro.pic.engine import BestEffortEngine
from repro.pic.partitioners import chunk_partition, hash_partition, random_partition
from repro.pic.runner import PICRunner, run_ic_baseline
from repro.util.sizing import sizeof_records
from tests.mapreduce.test_columnar import _assert_same_rows, any_rows
from tests.pic.reference_partitioners import (
    reference_chunk_partition,
    reference_hash_partition,
    reference_random_partition,
)


def make_cluster(num_nodes=4):
    return Cluster(num_nodes=num_nodes, nodes_per_rack=num_nodes)


def _assert_parts_match(parts, reference):
    assert len(parts) == len(reference)
    for part, rows in zip(parts, reference):
        assert type(part) is ColumnBatch
        _assert_same_rows(part.to_rows(), rows)
        assert part.nbytes_wire() == sizeof_records(rows)


class TestAgainstRowReferences:
    """Over every column kind (``any_rows`` draws typed, object and
    mixed keys), from row lists and from an already-ingested batch."""

    @settings(max_examples=60, deadline=None)
    @given(any_rows, st.integers(1, 9), st.integers(0, 99))
    def test_random_partition(self, rows, p, seed):
        reference = reference_random_partition(rows, p, seed=seed)
        _assert_parts_match(random_partition(rows, p, seed=seed), reference)
        batch = ColumnBatch.from_rows(rows)
        _assert_parts_match(random_partition(batch, p, seed=seed), reference)

    @settings(max_examples=60, deadline=None)
    @given(any_rows, st.integers(1, 9))
    def test_chunk_partition(self, rows, p):
        reference = reference_chunk_partition(rows, p)
        _assert_parts_match(chunk_partition(rows, p), reference)
        _assert_parts_match(chunk_partition(ColumnBatch.from_rows(rows), p), reference)

    @settings(max_examples=60, deadline=None)
    @given(any_rows, st.integers(1, 9))
    def test_hash_partition(self, rows, p):
        try:
            reference = reference_hash_partition(rows, p)
        except TypeError:  # a key stable_hash refuses (None)
            with pytest.raises(TypeError):
                hash_partition(rows, p)
            return
        _assert_parts_match(hash_partition(rows, p), reference)

    @settings(max_examples=60, deadline=None)
    @given(any_rows, st.integers(1, 9))
    def test_materialize_splits(self, rows, num_splits):
        dfs = DistributedFileSystem(make_cluster())
        dataset = DistributedDataset.materialize(dfs, "/d", rows, num_splits)
        reference = reference_chunk_partition(
            rows, min(num_splits, max(1, len(rows)))
        )
        _assert_parts_match([s.records for s in dataset.splits], reference)
        assert [s.nbytes for s in dataset.splits] == [
            sizeof_records(chunk) for chunk in reference
        ]
        assert dataset.num_records == len(rows)
        assert dataset.nbytes == sizeof_records(rows)

    def test_partitions_are_copies_and_splits_are_views(self):
        # ``take`` partitions own their storage (sub-problems alias
        # neither each other nor the input); ``slice`` splits share it.
        records, _ = gaussian_mixture(60, 3, dim=2, seed=5)
        batch = ColumnBatch.from_rows(records)
        points = batch.values.data
        for part in random_partition(batch, 4, seed=1):
            assert not np.shares_memory(part.values.data, points)
        dfs = DistributedFileSystem(make_cluster())
        dataset = DistributedDataset.materialize(dfs, "/d", batch, 4)
        for split in dataset.splits:
            assert np.shares_memory(split.records.values.data, points)


@contextmanager
def conversions(monkeypatch):
    """Record the row count of every ``from_rows`` and ``to_rows`` call."""
    seen = {"from_rows": [], "to_rows": []}
    from_rows = ColumnBatch.from_rows.__func__
    to_rows = ColumnBatch.to_rows

    def spy_from_rows(cls, rows):
        seen["from_rows"].append(len(rows))
        return from_rows(cls, rows)

    def spy_to_rows(self):
        seen["to_rows"].append(len(self))
        return to_rows(self)

    with monkeypatch.context() as patch:
        patch.setattr(ColumnBatch, "from_rows", classmethod(spy_from_rows))
        patch.setattr(ColumnBatch, "to_rows", spy_to_rows)
        yield seen


class TestIngestCount:
    POINTS = 3_000
    K = 4

    def _kmeans(self):
        records, _ = gaussian_mixture(self.POINTS, self.K, dim=3, seed=2)
        program = KMeansProgram(k=self.K, dim=3, threshold=0.05)
        return program, records, program.initial_model(records, seed=3)

    def _assert_one_ingest(self, cluster, sizes):
        # One conversion of the whole input; after it nothing larger
        # than one map task's output is ever turned into columns.
        map_output = math.ceil(self.POINTS / cluster.topology.total_map_slots())
        assert sizes.count(self.POINTS) == 1
        assert sizes[0] == self.POINTS
        assert all(n <= map_output for n in sizes[1:])

    def test_ic_baseline_columnizes_the_input_once(self, monkeypatch):
        program, records, model = self._kmeans()
        cluster = make_cluster()
        with conversions(monkeypatch) as seen:
            run_ic_baseline(cluster, program, records, initial_model=model)
        self._assert_one_ingest(cluster, seen["from_rows"])

    def test_pic_run_columnizes_the_input_once(self, monkeypatch):
        program, records, model = self._kmeans()
        cluster = make_cluster()
        with conversions(monkeypatch) as seen:
            pic = PICRunner(cluster, program, num_partitions=6, seed=3).run(
                records, initial_model=model
            )
        assert pic.be_iterations >= 1 and pic.topoff_iterations >= 1
        self._assert_one_ingest(cluster, seen["from_rows"])

    def test_a_batch_passes_through_uncopied(self, monkeypatch):
        program, records, model = self._kmeans()
        batch = ColumnBatch.from_rows(records)
        with conversions(monkeypatch) as seen:
            run_ic_baseline(make_cluster(), program, batch, initial_model=model)
            PICRunner(make_cluster(), program, num_partitions=6, seed=3).run(
                batch, initial_model=model
            )
        assert self.POINTS not in seen["from_rows"]

    def test_best_effort_rounds_do_no_per_record_python_work(self, monkeypatch):
        # The default partitioner re-deals the input every round; with a
        # batch in hand that is one ``take`` per partition, and k-means
        # maps, combines and reduces whole columns — so across all the
        # rounds no conversion touches more rows than a model has.
        program, records, model = self._kmeans()
        batch = ColumnBatch.from_rows(records)
        num_partitions = 6
        engine = BestEffortEngine(
            make_cluster(), program, num_partitions=num_partitions, seed=3
        )
        with conversions(monkeypatch) as seen:
            result = engine.run(batch, model)
        assert result.be_iterations >= 2
        smallest_partition = self.POINTS // num_partitions
        assert max(seen["from_rows"] + seen["to_rows"]) < smallest_partition
