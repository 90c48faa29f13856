"""The shuffle's reduce input against the per-partition reference.

A job groups all of its map outputs once, by (partition, key), and each
reducer takes its partition's run of groups.  ``reference_shuffle``
keeps the assembly that grouping replaced — per reducer, its buckets
concatenated in map-index order and grouped on their own — and every
reducer's ``GroupedBatch`` must equal it row for row, group for group,
column kind for column kind.  Map outputs are drawn so their column
kinds disagree from one map to the next (int, float, text, tuple,
object keys; scalar, text, array, tuple, mixed values), with float NaN
and signed-zero keys, empty map outputs and empty partitions, through
jobs with and without a combiner, a batch combiner, custom
partitioners, injected failures and speculative twins.
"""

import math
import zlib

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.cluster.cluster import Cluster
from repro.cluster.topology import NodeSpec
from repro.dfs.dfs import DistributedFileSystem
from repro.mapreduce.columnar import (
    ArrayColumn,
    ColumnBatch,
    GroupedBatch,
    ObjectColumn,
    ScalarColumn,
    StringColumn,
    TupleColumn,
    build_column,
)
from repro.mapreduce.costs import CostHints
from repro.mapreduce.job import JobSpec, TaskContext
from repro.mapreduce.records import DistributedDataset, hash_partitioner
from repro.mapreduce.runner import JobRunner
from tests.mapreduce.per_group import GroupCombiner
from tests.mapreduce.reference_shuffle import reference_reduce_inputs

# -- the job's functions (module level: they may cross a process boundary) --


def _pass_through(ctx, records):
    ctx.emit_batch(records)


def _count_reducer(ctx, grouped):
    for key, values in grouped:
        ctx.emit(key, len(values))


#: Each reducer's input, call by call: a job runs its reducers in
#: partition order, in the submitting process.
_RECEIVED: list[GroupedBatch] = []


def _recording_reducer(ctx, grouped):
    _RECEIVED.append(grouped)
    _count_reducer(ctx, grouped)


def _tuple_combiner(_key, values):
    return tuple(values)  # nothing a reordered or regrouped value hides in


def _tuple_batch_combiner(grouped):
    return ColumnBatch(
        grouped.unique_keys(), build_column([tuple(vs) for _key, vs in grouped])
    )


def _repr_partitioner(key, n):
    """By type and repr: ``1``/``1.0``/``True`` land apart."""
    return zlib.crc32(f"{type(key).__qualname__}:{key!r}".encode()) % n


def _first_partitioner(_key, _n):
    """Everything to partition 0: every other partition is empty."""
    return 0


def _int_or_not_partitioner(key, n):
    """Int keys to partition 0, the rest to 1: in a job whose map
    outputs disagree on kinds, partitions whose own buckets agree."""
    return (0 if type(key) is int else 1) % n


_PARTITIONERS = [
    hash_partitioner, _repr_partitioner, _first_partitioner, _int_or_not_partitioner,
]
# No combiner, a per-group one (an object column from its rows) and one
# that builds its value column itself.
_COMBINERS = [
    {},
    {"combiner": GroupCombiner(_tuple_combiner)},
    {"combiner": _tuple_batch_combiner},
]

# -- strategies ----------------------------------------------------------------

# Few distinct keys per family, so groups form across map outputs.
_KEY_FAMILIES = [
    st.sampled_from([0, 1, 2, -3, 2**40]),
    st.sampled_from([0.0, -0.0, 1.5, -2.0, math.nan]),
    st.sampled_from(["", "a", "b", "ab"]),
    st.tuples(st.sampled_from([0, 1]), st.sampled_from(["x", "y"])),
    st.tuples(
        st.tuples(st.sampled_from([0, 1]), st.just("x")),
        st.sampled_from([0.0, math.nan]),
    ),
    st.sampled_from([1, 1.0, True, "é", 2**70, (1, "x")]),  # object keys
]
_VALUE_FAMILIES = [
    st.integers(-(2**63), 2**63 - 1),
    st.floats(allow_nan=True),
    st.text(alphabet="abc", max_size=3),
    st.builds(np.full, st.just(2), st.floats(-4, 4)),
    st.builds(np.full, st.just(3), st.integers(-4, 4)),
    st.tuples(st.integers(0, 3), st.floats(-1, 1)),
    st.one_of(st.none(), st.integers(0, 3), st.text(max_size=2)),
]


@st.composite
def _map_inputs(draw):
    """One row list per split; each split picks its own key and value
    family unless they share one, so column kinds disagree by map."""
    num_splits = draw(st.integers(1, 4))
    shared = draw(st.booleans())
    picks = [
        (draw(st.integers(0, len(_KEY_FAMILIES) - 1)),
         draw(st.integers(0, len(_VALUE_FAMILIES) - 1)))
        for _ in range(1 if shared else num_splits)
    ]
    splits = []
    for i in range(num_splits):
        k, v = picks[0 if shared else i]
        rows = st.tuples(_KEY_FAMILIES[k], _VALUE_FAMILIES[v])
        splits.append(draw(st.lists(rows, max_size=10)))
    return splits


# -- harness -------------------------------------------------------------------


def _run(partitions, spec, pipeline=False, failures=None, speculative=False):
    """Run ``spec`` with one split per row list on a cluster with one slow
    node; return each reducer's input as its reducer received it, the
    map outputs in map-index order, and the job's counters."""
    specs = [NodeSpec(cpu_speed=0.125 if i == 2 else 1.0) for i in range(4)]
    cluster = Cluster(
        num_nodes=4, nodes_per_rack=4, node_spec=NodeSpec(), node_specs=specs
    )
    dfs = DistributedFileSystem(cluster)
    dataset = DistributedDataset.from_partitions(
        dfs, "/in", partitions, [i % 4 for i in range(len(partitions))]
    )
    del _RECEIVED[:]
    result = JobRunner(cluster, dfs, pipeline=pipeline).run(
        spec, dataset, failures=failures, speculative=speculative
    )
    cut = dict(enumerate(_RECEIVED))
    outputs = []
    for split in dataset.splits:
        ctx = TaskContext(split_index=split.index)
        spec.mapper(ctx, split.records)
        outputs.append(ctx.collect())
    return cut, outputs, result.counters


def _spec(num_reducers, partitioner=hash_partitioner, **combiners):
    return JobSpec(
        name="shuffle", mapper=_pass_through, reducer=_recording_reducer,
        num_reducers=num_reducers, partitioner=partitioner,
        # Compute-heavy maps: the slow node's tasks straggle.
        costs=CostHints(map_seconds_per_record=2e-3, task_overhead_seconds=0.05),
        **combiners,
    )


def _layout(column):
    """Column class and kind, recursively: what a reducer's code sees."""
    if isinstance(column, ScalarColumn):
        return ("scalar", column.kind, column.values.dtype)
    if isinstance(column, StringColumn):
        return ("str",)
    if isinstance(column, ArrayColumn):
        return ("array", column.data.dtype, column.data.shape[1:])
    if isinstance(column, TupleColumn):
        return ("tuple", *map(_layout, column.slots))
    assert type(column) is ObjectColumn
    return ("object",)


def _same(a, b):
    """Same type and value, NaN matching NaN, tuples slot for slot."""
    if type(a) is not type(b):
        return False
    if isinstance(a, tuple):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b, equal_nan=a.dtype.kind == "f")
    return a == b or (a != a and b != b)


def _assert_same_grouping(actual, expected):
    assert type(actual) is GroupedBatch
    for got, want in (
        (actual.sorted_keys, expected.sorted_keys),
        (actual.sorted_values, expected.sorted_values),
    ):
        assert _layout(got) == _layout(want)
        got_rows, want_rows = got.rows(), want.rows()
        assert len(got_rows) == len(want_rows)
        assert all(_same(g, w) for g, w in zip(got_rows, want_rows))
    assert actual.starts.dtype == expected.starts.dtype
    assert actual.starts.tolist() == expected.starts.tolist()
    assert actual.ends.tolist() == expected.ends.tolist()


def _assert_matches_reference(cut, outputs, spec):
    expected = reference_reduce_inputs(spec, outputs)
    assert sorted(cut) == list(range(spec.num_reducers))
    for p, want in enumerate(expected):
        _assert_same_grouping(cut[p], want)


# -- properties ----------------------------------------------------------------


class TestReduceInputMatchesPerPartitionReference:
    @settings(max_examples=120, deadline=None)
    @given(
        _map_inputs(),
        st.integers(1, 4),
        st.sampled_from(range(len(_PARTITIONERS))),
        st.sampled_from(range(len(_COMBINERS))),
        st.booleans(),
        st.dictionaries(st.integers(0, 3), st.integers(1, 2), max_size=2),
        st.booleans(),
    )
    # Typed buckets in jobs whose outputs disagree: each reducer's
    # columns are rebuilt in its own buckets' kinds — scalar, array,
    # tuple, and a tuple whose slots disagree in one reducer only.
    @example([[(1, 1.0), (2, 2.0)], [("a", 1.0)]], 2, 3, 0, False, {}, False)
    @example(
        [[(1, np.full(2, 1.0)), (2, np.full(2, 2.0))], [("a", 7)]],
        2, 3, 0, False, {}, False,
    )
    @example(
        [[(1, (0, 1.5))], [(2, (0, "s"))], [("a", (1, 2.0))]],
        2, 3, 0, False, {}, False,
    )
    @example([[(0.0, 1), (-0.0, 2)], [(-0.0, 3), (math.nan, 4)]], 3, 0, 1, True, {0: 1}, True)
    @example([[], [(7, 1)], []], 4, 0, 2, False, {}, True)  # empty outputs
    def test_every_reducer_gets_the_per_partition_grouping(
        self, partitions, n, partitioner, combiners, pipeline, failures, speculative
    ):
        spec = _spec(n, _PARTITIONERS[partitioner], **_COMBINERS[combiners])
        # A failure for a split the job lacks is rejected at submit.
        failures = {i: k for i, k in failures.items() if i < len(partitions)}
        cut, outputs, _counters = _run(
            partitions, spec, pipeline, failures, speculative
        )
        _assert_matches_reference(cut, outputs, spec)

    def test_disagreeing_outputs_leave_each_bucket_its_own_kinds(self):
        # Map 0 emits int keys, map 1 text keys; the job-wide
        # concatenation holds both in one object column, but each
        # reducer sees the typed column its own buckets concatenate to.
        partitions = [[(1, 1.0), (2, 2.0), (1, 3.0)], [("a", 4.0), ("b", 5.0)]]
        spec = _spec(2, _int_or_not_partitioner)
        cut, outputs, _counters = _run(partitions, spec)
        _assert_matches_reference(cut, outputs, spec)
        assert isinstance(cut[0].sorted_keys, ScalarColumn)
        assert isinstance(cut[1].sorted_keys, StringColumn)
        assert [list(cut[p]) for p in (0, 1)] == [
            [(1, [1.0, 3.0]), (2, [2.0])], [("a", [4.0]), ("b", [5.0])]
        ]

    def test_empty_partitions_get_kindless_groupings(self):
        spec = _spec(3, _first_partitioner)
        cut, outputs, _counters = _run([[(1, 1.0)], [(2, 2.0)]], spec)
        _assert_matches_reference(cut, outputs, spec)
        assert isinstance(cut[0].sorted_keys, ScalarColumn)
        for p in (1, 2):
            assert len(cut[p]) == 0
            assert isinstance(cut[p].sorted_keys, ObjectColumn)

    def test_speculative_twins_and_failed_attempts_feed_one_output_per_map(self):
        partitions = [[(i % 3, float(i)) for i in range(40 * s, 40 * s + 40)]
                      for s in range(4)]
        spec = _spec(2, combiner=GroupCombiner(_tuple_combiner))
        cut, outputs, counters = _run(
            partitions, spec, failures={1: 1}, speculative=True
        )
        assert counters.get("speculative_attempts") > 0
        assert counters.get("failed_map_attempts") == 1
        _assert_matches_reference(cut, outputs, spec)
