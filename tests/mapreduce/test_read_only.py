"""Read-only columns: what a callback is handed cannot be written.

Splits are views of the ingested batch, groupings views of one sort and
a model's array values views of its column, so a write into any of them
would reach other tasks and sub-problems.  ``read_only`` clears
``writeable`` on every array a callback is handed — a typed column's and
each ndarray an object column of values holds; the write then raises
``ValueError`` at the offending line — in this process, and in a pool
worker, where a pickled split arrives writable.
"""

import pickle

import numpy as np
import pytest

from repro.mapreduce import columnar
from repro.mapreduce.columnar import (
    ArrayColumn,
    ColumnBatch,
    ObjectColumn,
    ScalarColumn,
    StringColumn,
    TupleColumn,
    columnize,
    float_column,
    group_batch,
    int_column,
    read_only,
)
from repro.mapreduce.job import JobSpec
from repro.parallel.executor import ProcessPoolTaskExecutor, SerialExecutor
from repro.parallel.tasks import compute_job
from repro.pic.model import KeyedModel, as_model

EXECUTORS = [
    pytest.param(SerialExecutor(), id="serial"),
    pytest.param(ProcessPoolTaskExecutor(2), id="pool"),
]


def _fresh_splits(num_splits=2, rows=6):
    """Writable splits: built directly, never columnized."""
    return [
        ColumnBatch(
            int_column(np.arange(rows) % 3),
            float_column(np.arange(rows, dtype=np.float64) + s),
        )
        for s in range(num_splits)
    ]


def _emit_sum(ctx, grouped):
    for key, values in grouped:
        ctx.emit(key, sum(values))


def _emit_all(ctx, records):
    ctx.emit_batch(ColumnBatch(records.keys, records.values))


def _map_writes_split(ctx, records):
    records.values.values[0] = -1.0


def _map_writes_model(ctx, records):
    ctx.model["w"][0] = -1.0
    _emit_all(ctx, records)


def _combine_writes(grouped):
    grouped.sorted_values.values.fill(0.0)
    return ColumnBatch(grouped.unique_keys(), grouped.sorted_values.take(grouped.starts))


def _reduce_writes_values(ctx, grouped):
    grouped.sorted_values.values[0] = 0.0


def _reduce_writes_starts(ctx, grouped):
    grouped.starts.fill(0)


def _spec(mapper=_emit_all, reducer=_emit_sum, combiner=None):
    return JobSpec(
        name="guard", mapper=mapper, reducer=reducer, combiner=combiner, num_reducers=2
    )


class TestReadOnlyHelper:
    def test_every_typed_kind_is_frozen(self):
        scalar = int_column(np.arange(4))
        string = StringColumn(np.array(["a", "b", "c", "d"]))
        array = ArrayColumn(np.zeros((4, 2)))
        nested = TupleColumn((float_column(np.ones(4)), TupleColumn((int_column(np.arange(4)),))))
        read_only(scalar, string)
        read_only(array, nested)
        for arr in (
            scalar.values,
            string.values,
            array.data,
            nested.slots[0].values,
            nested.slots[1].slots[0].values,
        ):
            assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array.row(1)[0] = 1.0

    def test_object_columns_pass_untouched(self):
        # Values side: every ndarray an object column holds is frozen in
        # place; any other object passes untouched.  Keys side: not
        # scanned (a key is hashable, an ndarray is not).
        held, other = np.zeros(2), [1.0]
        values = ObjectColumn([held, other, (1, 2), "x"])
        read_only(ObjectColumn([1, 2, 3, 4]), values)
        assert not held.flags.writeable
        other[0] = 2.0
        assert values.values == [held, [2.0], (1, 2), "x"]
        key_side = ObjectColumn([np.zeros(2)])
        read_only(key_side, float_column(np.zeros(1)))
        assert key_side.values[0].flags.writeable

    def test_views_inherit_but_the_base_stays_writable(self):
        base = np.arange(8, dtype=np.float64)
        view = ScalarColumn("float", base[2:6])
        read_only(int_column(np.arange(4)), view)
        assert not view.slice(0, 2).values.flags.writeable
        base[3] = 99.0  # the caller's own array is not frozen
        assert view.values[1] == 99.0

    def test_columnize_freezes_rows_and_batches(self):
        from_rows = columnize([(1, 1.5), (2, 2.5)])
        assert not from_rows.values.values.flags.writeable
        batch = _fresh_splits(1)[0]
        assert columnize(batch) is batch
        assert not batch.keys.values.flags.writeable
        assert not batch.even_slices(2)[1].values.values.flags.writeable

    def test_grouped_batch_columns_and_bounds(self):
        grouped = group_batch(_fresh_splits(1)[0])
        for arr in (
            grouped.sorted_keys.values,
            grouped.sorted_values.values,
            grouped.starts,
            grouped.ends,
        ):
            assert not arr.flags.writeable
        part = grouped.groups(1, 3)
        assert not part.sorted_values.values.flags.writeable


class TestFrozenOnce:
    """A batch frozen once is marked and not scanned again; the mark
    never crosses a pickle, whose copy arrives writable."""

    @staticmethod
    def _scanned(monkeypatch):
        """The value column of every ``read_only`` call (groupings too)."""
        scanned = []
        real = columnar.read_only

        def spy(keys, values):
            scanned.append(values)
            real(keys, values)

        monkeypatch.setattr(columnar, "read_only", spy)
        return scanned

    def test_a_frozen_split_is_not_scanned_again(self, monkeypatch):
        scanned = self._scanned(monkeypatch)
        split = columnize(_fresh_splits(1)[0])
        for _ in range(3):
            compute_job(_spec(), None, [split], 2, SerialExecutor())
        assert sum(values is split.values for values in scanned) == 1

    def test_a_task_marks_the_split_it_froze(self, monkeypatch):
        scanned = self._scanned(monkeypatch)
        split = _fresh_splits(1)[0]
        for _ in range(3):
            compute_job(_spec(), None, [split], 2, SerialExecutor())
        assert sum(values is split.values for values in scanned) == 1
        assert not split.values.values.flags.writeable

    def test_the_mark_does_not_travel(self):
        copy = pickle.loads(pickle.dumps(columnize(_fresh_splits(1)[0])))
        assert copy.values.values.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            compute_job(_spec(mapper=_map_writes_split), None, [copy], 2, SerialExecutor())

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_a_frozen_split_is_frozen_again_in_a_worker(self, executor):
        splits = [columnize(s) for s in _fresh_splits(4)]
        with pytest.raises(ValueError, match="read-only"):
            compute_job(_spec(mapper=_map_writes_split), None, splits, 2, executor)


class TestCallbackWritesRaise:
    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_mapper_writing_its_split(self, executor):
        splits = _fresh_splits()
        with pytest.raises(ValueError, match="read-only"):
            compute_job(_spec(mapper=_map_writes_split), None, splits, 2, executor)

    def test_pool_split_is_frozen_in_the_worker(self):
        # The parent's arrays stay writable: the worker froze its own
        # unpickled copy before the mapper ran.
        splits = _fresh_splits()
        with pytest.raises(ValueError, match="read-only"):
            compute_job(
                _spec(mapper=_map_writes_split), None, splits, 2, ProcessPoolTaskExecutor(2)
            )
        assert all(s.values.values.flags.writeable for s in splits)

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_combiner_writing_its_grouping(self, executor):
        spec = _spec(combiner=_combine_writes)
        with pytest.raises(ValueError, match="read-only"):
            compute_job(spec, None, _fresh_splits(), 2, executor)

    @pytest.mark.parametrize("reducer", [_reduce_writes_values, _reduce_writes_starts])
    def test_reducer_writing_its_grouping(self, reducer):
        with pytest.raises(ValueError, match="read-only"):
            compute_job(_spec(reducer=reducer), None, _fresh_splits(), 2, SerialExecutor())

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_mapper_writing_the_model(self, executor):
        model = as_model({"w": np.zeros(3), "v": np.ones(3)})
        with pytest.raises(ValueError, match="read-only"):
            compute_job(_spec(mapper=_map_writes_model), model, _fresh_splits(), 2, executor)

    def test_reading_callbacks_run_unchanged(self):
        splits = _fresh_splits()
        job = compute_job(_spec(), None, splits, 2, SerialExecutor())
        assert sum(len(out) for out in job.outputs) == 3


class TestModelColumns:
    def test_both_columns_frozen(self):
        model = as_model({"a": np.zeros(2), "b": np.ones(2)})
        assert not model.key_column.values.flags.writeable
        assert not model.value_column.data.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            model["a"] += 1.0

    def test_frozen_again_on_unpickling(self):
        model = pickle.loads(pickle.dumps(as_model({1: 1.0, 2: 2.0})))
        assert isinstance(model, KeyedModel)
        assert not model.value_column.values.flags.writeable

    def test_object_held_arrays_frozen_again_on_unpickling(self):
        # Tensors of different shapes make an object value column; a
        # pickled copy arrives writable and is frozen again.
        model = as_model({"W1": np.zeros((2, 3)), "b1": np.zeros(3)})
        assert isinstance(model.value_column, ObjectColumn)
        for copy in (model, pickle.loads(pickle.dumps(model))):
            with pytest.raises(ValueError, match="read-only"):
                copy["W1"][0, 0] = 1.0

    def test_updates_write_a_copy(self):
        model = as_model({1: 1.0, 2: 2.0})
        new = model.updated(columnize([(2, 5.0)]))
        assert dict(new) == {1: 1.0, 2: 5.0}
        assert dict(model) == {1: 1.0, 2: 2.0}
        assert not new.value_column.values.flags.writeable
