"""A record-wise job's map wave against the per-split wave it replaced.

A job whose mapper is record-wise (``JobSpec.record_wise``) maps a run
of consecutive splits in one call — one call in all when serial, one per
pool worker otherwise — and cuts each split's charge from the one
output.  ``tests/parallel/reference_tasks.py`` keeps the one-call-per-
split wave; both must give the same reduce outputs (rows, Python types,
column kinds and dtypes) and the same ``MapCharge`` for every split.
"""

from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.mapreduce.columnar import (
    ArrayColumn,
    ColumnBatch,
    ObjectColumn,
    ScalarColumn,
    StringColumn,
    TupleColumn,
    concat_batches,
    float_column,
    int_column,
    kinds_agree,
)
from repro.mapreduce.job import JobSpec
from repro.mapreduce.records import hash_partitioner
from repro.parallel import ProcessPoolTaskExecutor, SerialExecutor, tasks
from tests.parallel import reference_tasks

MODEL = {"scale": 3}

#: The sizes of the mapper calls made in this process.
CALLS: list[int] = []


def _scaled(column, scale):
    """``column``'s values scaled by ``scale``, in ``column``'s kind:
    strings as they are, anything in an object column by Python's ``*``."""
    if isinstance(column, ScalarColumn):
        with np.errstate(over="ignore"):  # a large float goes to inf, as in Python
            return ScalarColumn(column.kind, column.values * scale)
    if isinstance(column, ArrayColumn):
        return ArrayColumn(column.data * scale)
    if isinstance(column, TupleColumn):
        return TupleColumn(
            tuple(_scaled(slot, scale) for slot in column.slots), len(column)
        )
    if isinstance(column, StringColumn):
        return column
    return ObjectColumn([
        tuple(v * scale for v in value) if isinstance(value, tuple) else value * scale
        for value in column.rows()
    ])


def scale_mapper(ctx, records):
    """Record-wise, and its output kinds are its input's: each record's
    value scaled by the model's factor."""
    CALLS.append(len(records))
    ctx.emit_batch(ColumnBatch(records.keys, _scaled(records.values, ctx.model["scale"])))


def pass_through_reducer(ctx, grouped):
    """Emits the reducer's input as it arrives: order, kinds and all."""
    ctx.emit_batch(ColumnBatch(grouped.sorted_keys, grouped.sorted_values))


def repr_partitioner(key, num_partitions):
    return len(repr(key)) % num_partitions


def drops_last_mapper(ctx, records):
    for key, value in records.to_rows()[:-1]:
        ctx.emit(key, value)


def doubles_first_mapper(ctx, records):
    rows = records.to_rows()
    for key, value in rows[:1] + rows:
        ctx.emit(key, value)


def stats_mapper(ctx, records):
    ctx.stats["rows"] = float(len(records))
    for key, value in records:
        ctx.emit(key, value)


EXECUTORS = {
    "serial": SerialExecutor(),
    "pool2": ProcessPoolTaskExecutor(2),
    "pool3": ProcessPoolTaskExecutor(3),
}

_ints = st.integers(-10**6, 10**6)
# NUL and a non-ASCII letter make some splits' strings an object column.
_text = st.text(alphabet="ab\x00\xe9", max_size=3)
KEYS = {
    "int": _ints,
    "str": _text,
    "tuple": st.tuples(_ints, _text),
}
VALUES = {
    "int": _ints,
    "float": st.floats(allow_nan=False, width=64),
    "array": st.lists(
        st.floats(-1e6, 1e6), min_size=2, max_size=2
    ).map(lambda xs: np.array(xs)),
    "tuple": st.tuples(st.floats(allow_nan=False), _text),
}


@st.composite
def wave(draw):
    """Splits of 0–7 records each, one key kind and one value kind."""
    keys, values = KEYS[draw(st.sampled_from(sorted(KEYS)))], VALUES[
        draw(st.sampled_from(sorted(VALUES)))
    ]
    sizes = draw(st.lists(st.integers(0, 7), min_size=1, max_size=64))
    rows = [(draw(keys), draw(values)) for _ in range(sum(sizes))]
    bounds = np.concatenate(([0], np.cumsum(sizes))).tolist()
    if draw(st.booleans()):
        # Each split ingested on its own, as a row list.
        splits = [ColumnBatch.from_rows(rows[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
    else:
        # Views of one ingested batch, as a dataset's splits are.
        whole = ColumnBatch.from_rows(rows)
        splits = [whole.slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    return splits


def _spec(mapper=scale_mapper, num_reducers=2, partitioner=hash_partitioner):
    return JobSpec(
        name="record-wise", mapper=mapper, reducer=pass_through_reducer,
        num_reducers=num_reducers, partitioner=partitioner, record_wise=True,
    )


def _same_column(a, b) -> bool:
    if type(a) is not type(b):
        return False
    if isinstance(a, ScalarColumn):
        return a.kind == b.kind and a.values.dtype == b.values.dtype
    if isinstance(a, StringColumn):
        return a.values.dtype == b.values.dtype
    if isinstance(a, ArrayColumn):
        return a.data.dtype == b.data.dtype and a.data.shape == b.data.shape
    if isinstance(a, TupleColumn):
        return len(a.slots) == len(b.slots) and all(
            map(_same_column, a.slots, b.slots)
        )
    return True


def _same_value(a, b) -> bool:
    if type(a) is not type(b):
        return False
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.tobytes() == b.tobytes()
    if isinstance(a, tuple):
        return len(a) == len(b) and all(map(_same_value, a, b))
    if isinstance(a, float):
        return np.float64(a).tobytes() == np.float64(b).tobytes()
    return a == b


def assert_same_job(job, ref):
    assert job.charges == ref.charges
    assert len(job.outputs) == len(ref.outputs)
    for out, want in zip(job.outputs, ref.outputs):
        assert _same_column(out.keys, want.keys)
        assert _same_column(out.values, want.values)
        assert len(out) == len(want)
        assert all(
            _same_value(k, wk) and _same_value(v, wv)
            for (k, v), (wk, wv) in zip(out.to_rows(), want.to_rows())
        )


@pytest.mark.parametrize("executor", sorted(EXECUTORS))
@settings(
    max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    splits=wave(),
    num_reducers=st.sampled_from([1, 2, 8]),
    partitioner=st.sampled_from([hash_partitioner, repr_partitioner]),
)
def test_grouped_wave_equals_the_per_split_wave(
    executor, splits, num_reducers, partitioner
):
    spec = _spec(num_reducers=num_reducers, partitioner=partitioner)
    pool = EXECUTORS[executor]
    groups = tasks.map_groups(spec, splits, pool)
    assert [s for lo, hi in groups for s in range(lo, hi)] == list(range(len(splits)))
    CALLS.clear()
    job = tasks.compute_job(spec, MODEL, splits, num_reducers, pool)
    calls = list(CALLS)
    ref = reference_tasks.compute_job(spec, MODEL, splits, num_reducers, SerialExecutor())
    assert_same_job(job, ref)
    # One mapper call per group: a run of splits per worker when the
    # splits agree on their kinds, else one split per call.
    n = len(splits)
    if n > 1 and kinds_agree(splits):
        runs = min(n, pool.workers)
        bounds = [round(g * n / runs) for g in range(runs + 1)]
        assert groups == list(zip(bounds, bounds[1:]))
    else:
        assert groups == [(i, i + 1) for i in range(n)]
    if executor == "serial":
        assert calls == [sum(len(s) for s in splits[lo:hi]) for lo, hi in groups]


def test_one_mapper_call_maps_a_serial_wave():
    splits = ColumnBatch.from_rows([(i, float(i)) for i in range(40)]).even_slices(8)
    CALLS.clear()
    job = tasks.compute_job(_spec(), MODEL, splits, 2, SerialExecutor())
    assert CALLS == [40]
    assert len(job.charges) == 8
    ref = reference_tasks.compute_job(_spec(), MODEL, splits, 2, SerialExecutor())
    assert_same_job(job, ref)


@pytest.mark.parametrize("executor", sorted(EXECUTORS))
def test_splits_whose_kinds_disagree_map_one_by_one(executor):
    # Int keys in one split, string keys in the next: their concatenation
    # is an object column, so each split keeps its own call and kinds.
    splits = [
        ColumnBatch.from_rows([(1, 1.0), (2, 2.0)]),
        ColumnBatch.from_rows([("a", 3.0)]),
        ColumnBatch.from_rows([(3, 4.0)]),
    ]
    spec = _spec(num_reducers=1)
    assert tasks.map_groups(spec, splits, EXECUTORS[executor]) == [(0, 1), (1, 2), (2, 3)]
    job = tasks.compute_job(spec, MODEL, splits, 1, EXECUTORS[executor])
    ref = reference_tasks.compute_job(spec, MODEL, splits, 1, SerialExecutor())
    assert_same_job(job, ref)


def test_split_models_map_one_by_one():
    splits = ColumnBatch.from_rows([(i, i) for i in range(6)]).even_slices(3)
    models = [{"scale": s} for s in (1, 2, 3)]
    assert tasks.map_groups(_spec(), splits, SerialExecutor(), models) == [
        (0, 1), (1, 2), (2, 3)
    ]
    job = tasks.compute_job(_spec(), None, splits, 2, SerialExecutor(), models)
    ref = reference_tasks.compute_job(_spec(), None, splits, 2, SerialExecutor(), models)
    assert_same_job(job, ref)


def test_other_jobs_map_one_split_per_call():
    splits = ColumnBatch.from_rows([(i, i) for i in range(6)]).even_slices(3)
    spec = JobSpec(name="plain", mapper=scale_mapper, reducer=pass_through_reducer)
    assert tasks.map_groups(spec, splits, ProcessPoolTaskExecutor(2)) == [
        (0, 1), (1, 2), (2, 3)
    ]


def test_groups_are_near_equal_runs_of_consecutive_splits():
    splits = ColumnBatch.from_rows([(i, i) for i in range(20)]).even_slices(10)
    assert tasks.map_groups(_spec(), splits, SerialExecutor()) == [(0, 10)]
    assert tasks.map_groups(_spec(), splits, ProcessPoolTaskExecutor(3)) == [
        (0, 3), (3, 7), (7, 10)
    ]
    assert tasks.map_groups(_spec(), splits[:2], ProcessPoolTaskExecutor(3)) == [
        (0, 1), (1, 2)
    ]


class TestContract:
    """A mapper that breaks the record-wise contract is an error naming
    the job, not a wrong charge."""

    @pytest.mark.parametrize("executor", sorted(EXECUTORS))
    @pytest.mark.parametrize("mapper, extra", [
        (drops_last_mapper, -1), (doubles_first_mapper, 1),
    ], ids=["one-too-few", "one-too-many"])
    def test_a_wrong_record_count_raises(self, executor, mapper, extra):
        splits = ColumnBatch.from_rows([(i, i) for i in range(12)]).even_slices(6)
        with pytest.raises(ValueError) as raised:
            tasks.compute_job(_spec(mapper=mapper), MODEL, splits, 2, EXECUTORS[executor])
        found = re.fullmatch(
            r"job 'record-wise': record-wise mapper emitted (\d+) records for "
            r"(\d+) input records; expected exactly one each", str(raised.value),
        )
        assert found and int(found[1]) == int(found[2]) + extra

    @pytest.mark.parametrize("executor", sorted(EXECUTORS))
    def test_written_stats_raise(self, executor):
        splits = ColumnBatch.from_rows([(i, i) for i in range(12)]).even_slices(6)
        with pytest.raises(
            ValueError, match=r"'record-wise': record-wise mapper wrote ctx.stats \['rows'\]"
        ):
            tasks.compute_job(_spec(mapper=stats_mapper), MODEL, splits, 2, EXECUTORS[executor])

    def test_a_lone_split_is_checked_too(self):
        # A local iteration maps one split, unsized: the contract holds there.
        split = ColumnBatch.from_rows([(1, 1), (2, 2)])
        with pytest.raises(ValueError, match="emitted 1 records for 2"):
            tasks.compute_job(_spec(mapper=drops_last_mapper), MODEL, [split], 1, None)

    def test_the_mapper_sees_no_split_index(self):
        seen = []

        def index_mapper(ctx, records):
            seen.append(ctx.split_index)
            scale_mapper(ctx, records)

        splits = ColumnBatch.from_rows([(i, i) for i in range(4)]).even_slices(2)
        tasks.compute_job(_spec(mapper=index_mapper), MODEL, splits, 1, SerialExecutor())
        assert seen == [None]


def typed_mapper(ctx, records):
    """Record-wise, and its output kinds are fixed: int keys, float values."""
    keys = np.fromiter(map(int, records.keys.rows()), dtype=np.int64, count=len(records))
    ctx.emit_batch(ColumnBatch(int_column(keys), float_column(keys * 0.5)))


def kinds_reducer(ctx, grouped):
    """Names the column kinds it is handed, even for no records."""
    ctx.emit(type(grouped.sorted_keys).__name__, type(grouped.sorted_values).__name__)


@pytest.mark.parametrize("mapper", [scale_mapper, typed_mapper])
@pytest.mark.parametrize("num_reducers", [1, 2])
def test_empty_wave_reduces_like_the_per_split_wave(mapper, num_reducers):
    # Every split empty: no records, and the reducer sees no kinds, even
    # from a mapper that emits typed columns for no records.
    splits = [ColumnBatch.from_rows([(1, 2.0)]).slice(0, 0) for _ in range(3)]
    spec = JobSpec(
        name="record-wise", mapper=mapper, reducer=kinds_reducer,
        num_reducers=num_reducers, record_wise=True,
    )
    job = tasks.compute_job(spec, MODEL, splits, num_reducers, SerialExecutor())
    ref = reference_tasks.compute_job(spec, MODEL, splits, num_reducers, SerialExecutor())
    assert_same_job(job, ref)
    assert concat_batches(job.outputs).to_rows() == [
        ("ObjectColumn", "ObjectColumn")
    ] * num_reducers
