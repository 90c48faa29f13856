"""Property tests for the columnar record batches.

``ColumnBatch`` is the only record container of the data plane; what it
computes is defined by the scalar functions ``stable_hash``,
``group_by_key`` and ``sizeof_record``: same partition ids, same groups
in the same order, same wire bytes, same rows back.  These properties
are the contract, checked over adversarial key/value mixes (bool-vs-int,
float repr edge cases and NaNs, >int64 integers, non-ASCII text, mixed
types, nested tuples) so that every column kind — the object kind
included — is held to it.
"""

import math
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.cluster.cluster import Cluster
from repro.dfs.dfs import DistributedFileSystem
from repro.mapreduce.columnar import (
    _JOIN_ROWS,
    ArrayColumn,
    ColumnBatch,
    GroupedBatch,
    ObjectColumn,
    ScalarColumn,
    StringColumn,
    TupleColumn,
    build_column,
    columnize,
    concat_batches,
    emit_first_values,
    group_batch,
    group_buckets,
    group_sums,
    int_column,
    singleton_groups,
    stack_rows,
)
from repro.mapreduce.job import JobSpec, TaskContext
from repro.mapreduce.records import (
    DistributedDataset,
    group_by_key,
    hash_partitioner,
    stable_hash,
)
from repro.mapreduce.runner import JobRunner, _JobState
from repro.util.sizing import sizeof_record, sizeof_records
from tests.mapreduce.per_group import GroupCombiner
from tests.mapreduce.reference_columns import reference_build_column
from tests.mapreduce.reference_partition import reference_partition

# -- strategies --------------------------------------------------------------

ascii_text = st.text(
    alphabet=st.characters(min_codepoint=1, max_codepoint=127), max_size=8
)
int64_ints = st.integers(-(2**63), 2**63 - 1)
big_ints = st.integers(-(2**80), 2**80)
finite_floats = st.floats(allow_nan=False)
scalar_keys = st.one_of(
    st.booleans(), int64_ints, finite_floats, ascii_text,
    st.text(max_size=4),  # may contain non-ASCII → object fallback
)
hashable_keys = st.one_of(
    scalar_keys,
    st.tuples(int64_ints, ascii_text),
    st.tuples(ascii_text, int64_ints, int64_ints),
    big_ints,
)
plain_values = st.one_of(
    st.booleans(), int64_ints, finite_floats, ascii_text, st.none()
)
# Keys the typed columns cannot order the way ``sorted`` does: float
# NaNs, tuples nesting tuples, and (drawn from the union) mixed types.
nan_floats = st.one_of(finite_floats, st.just(math.nan), st.just(float("nan")))
nested_tuples = st.tuples(st.tuples(int64_ints, ascii_text), nan_floats)
any_keys = st.one_of(hashable_keys, nan_floats, nested_tuples, st.none())
any_rows = st.lists(st.tuples(any_keys, plain_values), min_size=0, max_size=24)


def _same(a, b):
    """Same type and value, NaN matching NaN (in float arrays too),
    tuples slot for slot."""
    if type(a) is not type(b):
        return False
    if isinstance(a, tuple):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, np.ndarray):
        nan_aware = a.dtype.kind in "fc" and a.dtype == b.dtype
        return np.array_equal(a, b, equal_nan=nan_aware)
    return a == b or (a != a and b != b)


def _assert_same_rows(actual, expected):
    assert len(actual) == len(expected)
    for (ka, va), (ke, ve) in zip(actual, expected):
        assert _same(ka, ke) and _same(va, ve)


# -- partitioner equivalence -------------------------------------------------


class TestHashEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(hashable_keys, min_size=1, max_size=32), st.integers(1, 16))
    def test_partition_ids_match_scalar_hash(self, keys, n):
        batch = ColumnBatch(build_column(keys), build_column([0] * len(keys)))
        pids = batch.partition_ids(n)
        assert pids.tolist() == [hash_partitioner(k, n) for k in keys]

    @settings(max_examples=40, deadline=None)
    @given(st.lists(hashable_keys, min_size=1, max_size=32))
    def test_column_hashes_match_scalar_hash(self, keys):
        hashes = build_column(keys).stable_hashes()
        assert hashes.tolist() == [stable_hash(k) for k in keys]

    def test_vectorized_int_path_is_used_and_exact(self):
        keys = [0, -1, 1, 2**62, -(2**62), 7, -7]
        col = build_column(keys)
        assert isinstance(col, ScalarColumn) and col.kind == "int"
        assert col.stable_hashes().tolist() == [stable_hash(k) for k in keys]

    def test_bool_keys_hash_differently_from_int_keys(self):
        assert stable_hash(True) != stable_hash(1)
        assert stable_hash(False) != stable_hash(0)
        mixed = [True, 1, False, 0]
        col = build_column(mixed)
        assert isinstance(col, ObjectColumn)  # not silently widened to int
        assert col.stable_hashes().tolist() == [stable_hash(k) for k in mixed]

    def test_float_repr_edge_cases(self):
        keys = [0.0, -0.0, 1e308, -1e308, 5e-324, float("inf"), float("-inf"), 0.1]
        col = build_column(keys)
        assert isinstance(col, ScalarColumn) and col.kind == "float"
        assert col.stable_hashes().tolist() == [stable_hash(k) for k in keys]
        # repr distinguishes signed zeros, so the wire hash does too —
        # on both paths equally.
        assert stable_hash(0.0) != stable_hash(-0.0)

    def test_numpy_scalars_fall_back_losslessly(self):
        keys = [np.float64(0.5), np.float64(1.5)]
        col = build_column(keys)
        assert isinstance(col, ObjectColumn)
        assert col.rows() == keys
        assert [type(v) for v in col.rows()] == [np.float64, np.float64]

    def test_oversized_ints_fall_back_losslessly(self):
        keys = [2**64, -(2**100), 3]
        col = build_column(keys)
        assert isinstance(col, ObjectColumn)
        assert col.stable_hashes().tolist() == [stable_hash(k) for k in keys]

    def test_tuple_keys_vectorize(self):
        keys = [("e", 3, 1), ("e", 1, 2), ("e", 3, 1), ("e", -4, 0)]
        col = build_column(keys)
        assert isinstance(col, TupleColumn)
        assert col.stable_hashes().tolist() == [stable_hash(k) for k in keys]


# -- row/columnar round trip -------------------------------------------------


class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(any_rows)
    def test_to_rows_inverts_from_rows(self, rows):
        _assert_same_rows(ColumnBatch.from_rows(rows).to_rows(), rows)

    def test_columnize_converts_rows_and_keeps_batches(self):
        rows = [(i, float(i)) for i in range(4)]
        batch = columnize(rows)
        assert type(batch) is ColumnBatch and batch.to_rows() == rows
        assert columnize(batch) is batch

    def test_ndarray_values_round_trip(self):
        rows = [(i, np.arange(3, dtype=float) + i) for i in range(5)]
        batch = ColumnBatch.from_rows(rows)
        assert isinstance(batch.values, ArrayColumn)
        _assert_same_rows(batch.to_rows(), rows)

    def test_tuple_of_array_and_count_round_trips(self):
        rows = [(i % 2, (np.ones(4) * i, 1)) for i in range(6)]
        batch = ColumnBatch.from_rows(rows)
        assert isinstance(batch.values, TupleColumn)
        out = batch.to_rows()
        for (k, (vec, n)), (ek, (evec, en)) in zip(out, rows):
            assert k == ek and n == en and type(n) is int
            assert np.array_equal(vec, evec)

    def test_string_column_rejects_trailing_nul(self):
        # numpy's fixed-width U dtype trims trailing NULs; those strings
        # must take the lossless object path instead.
        rows = [("a", 1), ("b\x00", 2)]
        batch = ColumnBatch.from_rows(rows)
        assert not isinstance(batch.keys, StringColumn)
        _assert_same_rows(batch.to_rows(), rows)

    def test_iteration_matches_rows(self):
        rows = [(i, float(i)) for i in range(8)]
        batch = ColumnBatch.from_rows(rows)
        assert list(batch) == rows
        assert len(batch) == 8


# -- kind selection ----------------------------------------------------------


def _kind(col):
    """A column's kind, down to scalar types, dtypes and tuple slots."""
    if isinstance(col, ScalarColumn):
        return ("scalar", col.kind)
    if isinstance(col, StringColumn):
        return ("string",)
    if isinstance(col, ArrayColumn):
        return ("array", col.data.dtype, col.data.shape[1:])
    if isinstance(col, TupleColumn):
        return ("tuple", tuple(_kind(slot) for slot in col.slots))
    assert type(col) is ObjectColumn
    return ("object",)


class _Subclassed(np.ndarray):
    pass


_KIND_EDGES = {
    "empty": [],
    "bools": [True, False],
    "bool-then-int": [True, 1],  # bool is not int
    "int-then-bool": [1, True],
    "int64-extremes": [0, 2**63 - 1, -(2**63)],
    "one-past-int64": [0, 2**63],
    "one-below-int64": [-(2**63) - 1, 0],
    "huge-ints": [2**80, 2**90],
    "int-and-float": [1, 2.0],
    "floats-nan-negzero": [1.0, float("nan"), -0.0],
    "numpy-int-scalars": [np.int64(1), np.int64(2)],  # stay objects
    "numpy-float-and-float": [np.float64(1.0), 2.0],
    "ascii": ["a", "", "bc"],
    "trailing-nul": ["a", "b\x00"],  # numpy would trim it
    "only-nul": ["\x00"],
    "interior-nul": ["a\x00b", "c"],  # survives a "<U" array
    "non-ascii": ["a", "\u00e9"],
    "str-and-bytes": ["a", b"a"],
    "vectors": [np.zeros(3), np.ones(3)],
    "matrices": [np.zeros((2, 3)), np.ones((2, 3))],
    "shape-mismatch": [np.zeros(3), np.ones(4)],
    "shape-transposed": [np.zeros((2, 3)), np.ones((3, 2))],
    "dtype-mismatch": [np.zeros(3), np.ones(3, dtype=np.float32)],
    "int-vectors": [np.zeros(3, dtype=np.int64), np.ones(3, dtype=np.int64)],
    "0-d-arrays": [np.array(1.0), np.array(2.0)],
    "zero-length-vectors": [np.zeros(0), np.zeros(0)],
    "strided-views": [np.zeros(3)[::2], np.ones(4)[::2]],
    "strided-and-contiguous": [np.arange(3.0), np.arange(6.0)[::2]],
    "fortran-order-matrices": [
        np.arange(6.0).reshape(3, 2).T, np.arange(6.0, 12.0).reshape(3, 2).T
    ],
    "ndim-mismatch": [np.zeros(3), np.zeros((1, 3))],
    "ndim-mismatch-matrix-first": [np.zeros((1, 3)), np.zeros(3)],
    "length-mismatch-after-equal": [np.zeros(3), np.ones(3), np.ones(2)],
    "structured-rows": [
        np.zeros(2, dtype=[("a", "<i4"), ("b", "<f8")]),
        np.ones(2, dtype=[("a", "<i4"), ("b", "<f8")]),
    ],
    "byte-swapped": [np.arange(3, dtype=">f8"), np.arange(3, 6, dtype=">f8")],
    "byte-order-mismatch": [np.zeros(3, dtype=">f8"), np.zeros(3, dtype="<f8")],
    "zero-width-matrices": [np.zeros((2, 0)), np.ones((2, 0))],
    "bool-vectors": [np.array([True, False]), np.array([False, True])],
    "uint8-vectors": [np.arange(4, dtype=np.uint8), np.arange(4, 8, dtype=np.uint8)],
    "complex-vectors": [np.array([1 + 2j, -0.0j]), np.array([3j, 4.0])],
    "text-vectors": [np.array(["ab", "c"]), np.array(["d", "ef"])],
    "nan-and-negative-zero": [np.array([np.nan, -0.0]), np.array([np.inf, 0.0])],
    "ndarray-subclass": [
        np.zeros(3).view(_Subclassed), np.ones(3).view(_Subclassed)
    ],
    "ndarray-and-subclass": [np.zeros(3), np.ones(3).view(_Subclassed)],
    "object-arrays": [
        np.array(["a", "b"], dtype=object), np.array([1, None], dtype=object)
    ],
    "empty-tuples": [(), ()],
    "flat-tuples": [(1, "a"), (2, "b")],
    "arity-mismatch": [(1, "a"), (2, "b", 3)],
    "tuple-and-list": [(1, "a"), [2, "b"]],
    "slot-degrades": [(1, 2.0), (True, 3.0)],
    "nested-with-array-slot": [((1, 2), np.zeros(2)), ((3, 4), np.ones(2))],
    "array-and-count": [(np.zeros(2), 1), (np.ones(2), 2)],
    "nones": [None, None],
    "none-and-int": [None, 1],
}


class TestKindSelection:
    """``build_column``'s whole-list checks pick the kind the
    element-at-a-time reference picks, and hold the same values."""

    @staticmethod
    def _assert_matches_reference(values):
        col, reference = build_column(values), reference_build_column(values)
        assert _kind(col) == _kind(reference)
        assert len(col) == len(values)
        if isinstance(col, ArrayColumn) and col.data.dtype.kind in "biufc":
            assert col.data.tobytes() == reference.data.tobytes()
            assert col.data.flags.writeable
        for got, expected in zip(col.rows(), values):
            assert _same(got, expected)
        assert col.nbytes_wire() == reference.nbytes_wire()
        # Slots arrive as tuples (zip) when a tuple column is built.
        assert _kind(build_column(tuple(values))) == _kind(col)

    @pytest.mark.parametrize("values", _KIND_EDGES.values(), ids=_KIND_EDGES)
    def test_edge_kinds_match_the_reference(self, values):
        self._assert_matches_reference(values)

    @settings(max_examples=120, deadline=None)
    @given(any_rows)
    def test_drawn_columns_match_the_reference(self, rows):
        self._assert_matches_reference([k for k, _v in rows])
        self._assert_matches_reference([v for _k, v in rows])

    def test_array_rows_do_not_alias_their_sources(self):
        sources = [np.zeros(3), np.ones(3)]
        col = build_column(sources)
        col.data[0, 0] = 7.0
        assert sources[0][0] == 0.0

    @pytest.mark.parametrize("odd_row", [None, 0, _JOIN_ROWS, 2 * _JOIN_ROWS + 2])
    def test_more_rows_than_one_join_chunk(self, odd_row):
        # Rows beyond the first chunk land at their own offsets; a
        # non-contiguous row (a strided view) anywhere among them,
        # the last chunk included, is copied like any other.
        base = np.random.default_rng(0).normal(size=(2 * _JOIN_ROWS + 3, 3))
        rows = list(base)
        if odd_row is not None:
            rows[odd_row] = np.repeat(base[odd_row], 2)[::2]
            assert not rows[odd_row].flags.c_contiguous
        self._assert_matches_reference(rows)
        assert build_column(rows).data.tobytes() == base.tobytes()

    def test_ingest_leaves_no_buffer_state_on_its_rows(self):
        # Exporting an array's buffer makes numpy keep its description
        # until the array dies; ingest copies through tobytes(), so the
        # caller's rows hold nothing more afterwards.
        build_column(list(np.ones((10, 3))))  # warm-up, on other rows
        rows = list(np.random.default_rng(1).normal(size=(3000, 3)))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            column = build_column(rows)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held < column.data.nbytes + 4096


# -- ingest boundary ---------------------------------------------------------


class TestMalformedRecords:
    @pytest.mark.parametrize(
        "bad", [(1, 2, 3), (1,), 7], ids=["3-tuple", "1-tuple", "bare-int"]
    )
    def test_from_rows_names_the_offending_record(self, bad):
        rows = [(0, 0.0), (1, 1.0), bad, (3, 3.0)]
        with pytest.raises(ValueError, match="record 2 is not a") as err:
            ColumnBatch.from_rows(rows)
        assert repr(bad) in str(err.value)

    def test_the_run_boundary_reports_it(self):
        dfs = DistributedFileSystem(Cluster(num_nodes=2, nodes_per_rack=2))
        with pytest.raises(ValueError, match=r"record 1 .*\(5, 6, 7\)"):
            DistributedDataset.materialize(dfs, "/d", [(0, 1), (5, 6, 7)], 2)


# -- grouping ----------------------------------------------------------------


def _assert_same_groups(grouped, expected):
    assert isinstance(grouped, GroupedBatch)
    assert len(grouped) == len(expected)
    for (gk, gvs), (ek, evs) in zip(grouped, expected):
        assert _same(gk, ek)
        assert gvs == evs


class TestGrouping:
    @settings(max_examples=120, deadline=None)
    @given(any_rows)
    def test_group_records_matches_group_by_key(self, rows):
        # Total over every key kind: typed, object, mixed-type,
        # nested-tuple and NaN keys all group like the scalar definition.
        batch = ColumnBatch.from_rows(rows)
        _assert_same_groups(group_batch(batch), group_by_key(batch.to_rows()))

    def test_nan_keys_group_one_record_each(self):
        # One answer whatever the NaN's object identity: two distinct
        # NaN objects, or the same ``math.nan`` passed twice (which a
        # dict-based grouping would merge by identity) — in a float
        # column and, next to a string key, in an object column.
        for nan_a, nan_b in [(float("nan"), float("nan")), (math.nan, math.nan)]:
            for other in (2.0, "s"):
                rows = [(nan_a, 1), (other, 2), (nan_b, 3)]
                grouped = group_batch(ColumnBatch.from_rows(rows))
                assert sorted(values for _k, values in grouped) == [[1], [2], [3]]
                # NaN != NaN, so compare structure via repr.
                assert repr(list(grouped)) == repr(group_by_key(rows))

    def test_grouped_batch_behaves_like_group_by_key(self):
        rows = [(i % 3, i * 1.0) for i in range(9)]
        grouped = group_batch(ColumnBatch.from_rows(rows))
        assert isinstance(grouped, GroupedBatch)
        assert list(grouped) == group_by_key(rows)
        assert grouped.unique_keys().rows() == [0, 1, 2]

    def test_singleton_groups_views_combined_batch(self):
        batch = ColumnBatch.from_rows([(0, 1.5), (1, 2.5)])
        grouped = singleton_groups(batch)
        assert list(grouped) == [(0, [1.5]), (1, [2.5])]

    def test_emit_first_values_parity(self):
        rows = [(i % 4, float(i)) for i in range(12)]
        ctx = TaskContext()
        emit_first_values(ctx, group_batch(ColumnBatch.from_rows(rows)))
        assert ctx.output == [(k, vs[0]) for k, vs in group_by_key(rows)]


# -- per-group sums ----------------------------------------------------------


def _fold(rows, row_shape):
    """The oracle: ``0.0 + x1 + x2 + ...`` element by element, in Python
    floats, over a group's rows in order."""
    width = math.prod(row_shape)
    sums = [0.0] * width
    for row in rows:
        for j, x in enumerate(np.asarray(row, dtype=np.float64).reshape(width).tolist()):
            sums[j] = sums[j] + x
    return sums


def _groups_of(sizes):
    """A grouping with groups of the given sizes (its keys are the
    group numbers; ``group_sums`` reads only the boundaries)."""
    sizes = np.asarray(sizes, dtype=np.int64)
    keys = np.repeat(np.arange(len(sizes)), sizes)
    starts = np.cumsum(sizes) - sizes
    return GroupedBatch(int_column(keys), int_column(keys), starts)


# Values that make an addition order show: signed zeros, NaN, both
# infinities (inf + -inf is NaN), and magnitudes from 1e-300 to 1e300.
_awkward_floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]),
    st.builds(
        lambda m, e: m * 10.0 ** e, st.floats(-10, 10), st.integers(-300, 300)
    ),
)


class TestGroupSums:
    """``group_sums`` is, byte for byte, the left-to-right fold from
    +0.0 of each group's rows, for float64 rows of any shape; int64 sums
    are exact."""

    @staticmethod
    def _assert_folds(grouped, values):
        got = group_sums(grouped, values)
        row_shape = values.shape[1:]
        assert got.shape == (len(grouped), *row_shape) and got.dtype == np.float64
        expected = [
            _fold(values[s:e], row_shape)
            for s, e in zip(grouped.starts.tolist(), grouped.ends.tolist())
        ]
        expected = np.array(expected, dtype=np.float64).reshape(got.shape)
        # Byte for byte, signed zeros included; a NaN only as a NaN —
        # which of two NaN operands' payloads an addition returns is up
        # to the machine instruction, not to the order of the fold.
        nan = np.isnan(expected)
        assert (np.isnan(got) == nan).all()
        assert got[~nan].tobytes() == expected[~nan].tobytes()

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(1, 6), min_size=0, max_size=8),
        st.sampled_from([(), (1,), (2,), (3,), (4,), (5,), (6,), (7,), (8,), (9,), (2, 3)]),
        st.data(),
    )
    @example([1], (1,), None)
    @example([4, 1, 1], (3,), None)
    def test_float_sums_are_the_left_to_right_fold(self, sizes, row_shape, data):
        n = sum(sizes)
        count = n * math.prod(row_shape)
        flat = (
            np.full(count, -0.0) if data is None
            else np.array(data.draw(st.lists(_awkward_floats, min_size=count, max_size=count)))
        )
        self._assert_folds(_groups_of(sizes), flat.reshape(n, *row_shape))

    def test_negative_zero_groups_sum_to_positive_zero(self):
        values = np.full((5, 2), -0.0)
        got = group_sums(_groups_of([2, 3]), values)
        assert got.tobytes() == np.zeros((2, 2)).tobytes()

    def test_infinities_of_both_signs_sum_to_nan(self):
        # Column 1 overflows only when added left to right.
        values = np.array([[np.inf, 1e308], [-np.inf, 1e308], [1.0, -1e308]])
        got = group_sums(_groups_of([3]), values)
        assert np.isnan(got[0, 0]) and got[0, 1] == np.inf

    @settings(max_examples=80, deadline=None)
    @given(any_rows, st.integers(1, 4), st.data())
    def test_groups_of_a_grouping_and_of_its_cuts(self, rows, width, data):
        # The groups of a real grouping, and contiguous runs of them cut
        # by GroupedBatch.groups(first, stop): each sums its own rows.
        keys = [k for k, _v in rows]
        values = np.array(
            data.draw(st.lists(_awkward_floats, min_size=len(rows) * width,
                               max_size=len(rows) * width)),
            dtype=np.float64,
        ).reshape(len(rows), width)
        batch = ColumnBatch(build_column(keys), ArrayColumn(values))
        grouped = group_batch(batch)
        self._assert_folds(grouped, stack_rows(grouped.sorted_values).reshape(-1, width))
        first = data.draw(st.integers(0, len(grouped)))
        stop = data.draw(st.integers(first, len(grouped)))
        cut = grouped.groups(first, stop)
        if len(cut):
            self._assert_folds(cut, cut.sorted_values.data)
            assert group_sums(cut, cut.sorted_values.data).tobytes() == (
                group_sums(grouped, grouped.sorted_values.data)[first:stop].tobytes()
            )

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.integers(1, 6), min_size=0, max_size=8),
        st.sampled_from([(), (2,)]),
        st.data(),
    )
    def test_int_sums_are_exact(self, sizes, row_shape, data):
        n = sum(sizes)
        values = np.array(
            data.draw(st.lists(st.integers(-(2**40), 2**40),
                               min_size=n * math.prod(row_shape),
                               max_size=n * math.prod(row_shape))),
            dtype=np.int64,
        ).reshape(n, *row_shape)
        grouped = _groups_of(sizes)
        got = group_sums(grouped, values)
        assert got.dtype == np.int64 and got.shape == (len(sizes), *row_shape)
        bounds = zip(grouped.starts.tolist(), grouped.ends.tolist())
        expected = [values[s:e].tolist() for s, e in bounds]
        assert got.tolist() == [
            sum(rows) if not row_shape else [sum(col) for col in zip(*rows)]
            for rows in expected
        ]

    def test_the_empty_grouping(self):
        empty = _groups_of([])
        assert group_sums(empty, np.zeros((0, 3))).shape == (0, 3)
        assert group_sums(empty, np.zeros(0, dtype=np.int64)).shape == (0,)
        assert group_sums(empty, np.zeros((0, 2), dtype=np.int64)).shape == (0, 2)

    @pytest.mark.parametrize("dtype", [np.float32, np.int32, np.uint64, bool, object])
    def test_other_dtypes_are_refused(self, dtype):
        with pytest.raises(TypeError, match="float64 or int64"):
            group_sums(_groups_of([2]), np.zeros(2, dtype=dtype))


# -- wire sizing -------------------------------------------------------------


class TestSizing:
    @settings(max_examples=60, deadline=None)
    @given(any_rows)
    def test_batch_wire_size_matches_row_sum(self, rows):
        batch = ColumnBatch.from_rows(rows)
        assert batch.nbytes_wire() == sum(sizeof_record(k, v) for k, v in rows)
        assert sizeof_records(batch) == sizeof_records(rows)

    def test_array_and_tuple_values_size_identically(self):
        rows = [(i, (np.full(5, float(i)), 1)) for i in range(7)]
        batch = ColumnBatch.from_rows(rows)
        assert batch.nbytes_wire() == sum(sizeof_record(k, v) for k, v in rows)

    def test_bucket_sizes_are_additive(self):
        rows = [(i, float(i)) for i in range(40)]
        batch = ColumnBatch.from_rows(rows)
        pids = batch.partition_ids(4)
        order = np.argsort(pids, kind="stable")
        sorted_batch = batch.take(order)
        counts = np.bincount(pids, minlength=4)
        bounds = np.concatenate(([0], np.cumsum(counts)))
        total = sum(
            sorted_batch.slice(int(bounds[p]), int(bounds[p + 1])).nbytes_wire()
            for p in range(4)
        )
        assert total == batch.nbytes_wire()

    # Every column kind: typed scalars and text, arrays, flat and nested
    # tuples, object columns; empty ranges and empty batches included.
    _sized_rows = st.one_of(
        any_rows,
        st.lists(
            st.tuples(int64_ints, st.builds(np.full, st.just(3), finite_floats)),
            max_size=12,
        ),
        st.lists(
            st.tuples(
                st.tuples(ascii_text, st.tuples(int64_ints, st.booleans())),
                st.tuples(finite_floats, ascii_text),
            ),
            max_size=12,
        ),
    )

    @settings(max_examples=120, deadline=None)
    @given(_sized_rows, st.data())
    def test_row_sizes_sum_to_every_ranges_wire_size(self, rows, data):
        batch = ColumnBatch.from_rows(rows)
        lo = data.draw(st.integers(0, len(rows)))
        hi = data.draw(st.integers(lo, len(rows)))

        def range_sum(sizes):
            # A fixed-width column answers with one int, no per-row array.
            if isinstance(sizes, int):
                return sizes * (hi - lo)
            assert sizes.dtype == np.int64 and len(sizes) == len(rows)
            return int(sizes[lo:hi].sum())

        def fixed_width(column):
            if isinstance(column, TupleColumn):
                return all(map(fixed_width, column.slots))
            return isinstance(column, (ScalarColumn, ArrayColumn))

        for column in (batch.keys, batch.values):
            assert isinstance(column.row_nbytes(), int) == fixed_width(column)
            assert range_sum(column.row_nbytes()) == column.slice(lo, hi).nbytes_wire()
        assert (
            range_sum(batch.row_nbytes())
            == batch.slice(lo, hi).nbytes_wire()
            == sizeof_records(rows[lo:hi])
        )

    @settings(max_examples=80, deadline=None)
    @given(_sized_rows, st.integers(1, 6), st.data())
    def test_bucket_sizes_are_the_buckets_wire_sizes(self, rows, n, data):
        batch = ColumnBatch.from_rows(rows)
        ids = np.array(
            data.draw(st.lists(st.integers(0, n - 1), min_size=len(rows), max_size=len(rows))),
            dtype=np.uint8,
        )
        counts = np.bincount(ids, minlength=n)
        assert batch.bucket_nbytes(ids, counts) == [
            batch.take(np.flatnonzero(ids == p)).nbytes_wire() for p in range(n)
        ]


# -- concat / slice / take ---------------------------------------------------


class TestBatchAlgebra:
    def test_concat_then_group_matches_rows(self):
        a = ColumnBatch.from_rows([(1, 1.0), (2, 2.0)])
        b = ColumnBatch.from_rows([(1, 3.0), (3, 4.0)])
        merged = concat_batches([a, b])
        assert isinstance(merged.keys, ScalarColumn)
        assert list(group_batch(merged)) == group_by_key(
            a.to_rows() + b.to_rows()
        )

    def test_concat_mismatched_types_degrades_to_object_column(self):
        a = ColumnBatch.from_rows([(1, 1.0)])
        b = ColumnBatch.from_rows([("s", 1.0)])
        merged = concat_batches([a, b])
        assert isinstance(merged.keys, ObjectColumn)
        assert isinstance(merged.values, ScalarColumn)  # kinds agree: kept
        _assert_same_rows(merged.to_rows(), [(1, 1.0), ("s", 1.0)])

    def test_concat_skips_empty_batches_and_of_nothing_is_empty(self):
        typed = ColumnBatch.from_rows([(1, 1.0), (2, 2.0)])
        empty = ColumnBatch.from_rows([])
        assert concat_batches([empty, typed, empty]) is typed
        assert len(concat_batches([])) == 0
        assert len(concat_batches([empty, empty])) == 0

    @settings(max_examples=120, deadline=None)
    @given(st.lists(any_rows, min_size=0, max_size=4))
    def test_concat_of_disagreeing_kinds_round_trips(self, pieces):
        # Each piece picks its own column kinds (int vs str keys, tuple
        # arities, ...); whatever they are, no row is lost or altered,
        # and the merged batch sizes and groups like its rows.
        merged = concat_batches([ColumnBatch.from_rows(p) for p in pieces])
        rows = [row for piece in pieces for row in piece]
        _assert_same_rows(merged.to_rows(), rows)
        assert merged.nbytes_wire() == sizeof_records(rows)
        _assert_same_groups(group_batch(merged), group_by_key(merged.to_rows()))

    def test_concat_array_shapes_that_disagree(self):
        a = ColumnBatch.from_rows([("w", np.ones((2, 2)))])
        b = ColumnBatch.from_rows([("b", np.ones(3))])
        merged = concat_batches([a, b])
        assert isinstance(merged.keys, StringColumn)
        assert isinstance(merged.values, ObjectColumn)
        _assert_same_rows(merged.to_rows(), a.to_rows() + b.to_rows())

    def test_take_and_slice_match_row_indexing(self):
        rows = [(i, float(i) * 2) for i in range(10)]
        batch = ColumnBatch.from_rows(rows)
        idx = np.array([7, 0, 3])
        assert batch.take(idx).to_rows() == [rows[i] for i in idx]
        assert batch.slice(2, 6).to_rows() == rows[2:6]


# -- the runner's partition step ---------------------------------------------


def _unused_mapper(ctx, records):
    raise AssertionError("the partition step runs no mapper")


def _unused_reducer(ctx, grouped):
    raise AssertionError("the partition step runs no reducer")


def _sum_combiner(_key, values):
    return sum(values)  # may leave int64: an object column


def _job_state(**spec_kw) -> _JobState:
    """A job's state object, for driving its partition step directly."""
    cluster = Cluster(num_nodes=2, nodes_per_rack=2)
    dfs = DistributedFileSystem(cluster)
    dataset = DistributedDataset.materialize(dfs, "/in", [(0, 0)], 1)
    spec = JobSpec(
        name="partition-step",
        mapper=_unused_mapper,
        reducer=_unused_reducer,
        **spec_kw,
    )
    return _JobState(JobRunner(cluster, dfs), spec, dataset, None, 0, (0,), False, 0)


def _reversed_hash_partitioner(key, n):
    """A custom partitioner over every hashable key: by stable hash,
    reversed — never the default's bucket layout."""
    return n - 1 - stable_hash(key) % n


def _repr_partitioner(key, n):
    """A custom partitioner over every key at all (``None`` included):
    by type and repr, so ``False``/``0`` and ``1``/``1.0``/``True`` —
    equal, yet different keys — mostly land in different buckets."""
    return zlib.crc32(f"{type(key).__qualname__}:{key!r}".encode()) % n


def _tuple_combiner(_key, values):
    return tuple(values)  # nothing a reordered or regrouped value hides in


def _tuple_batch_combiner(grouped):
    return ColumnBatch(
        grouped.unique_keys(), build_column([tuple(vs) for _key, vs in grouped])
    )


def _partition_buckets(state, batch):
    """Drive the partition step, check the shape of what it returns —
    one batch, one id per record in the narrowest unsigned type, the
    counts those ids make; with a combiner, partition after partition —
    and cut the batch into per-reducer buckets in batch order.  Returns
    the buckets, the counts and the wire size per bucket the runner
    ships."""
    n = state.num_reducers
    out, pids, counts = state._partition(batch)
    assert type(out) is ColumnBatch and len(pids) == len(out)
    assert pids.dtype == np.min_scalar_type(n - 1)
    assert counts.tolist() == np.bincount(pids, minlength=n).tolist()
    if state.spec.combiner is not None:
        assert bool((np.diff(pids.astype(np.int64)) >= 0).all())
    buckets = [out.take(np.flatnonzero(pids == p)) for p in range(n)]
    return buckets, counts, out.bucket_nbytes(pids, counts)


_SHARED_NAN = float("nan")
# {no combiner, per group, batch} x {default, custom}.
_PARTITION_MATRIX = [
    dict(partitioner=partitioner, **combiners)
    for partitioner in (hash_partitioner, _repr_partitioner)
    for combiners in (
        {},
        {"combiner": GroupCombiner(_tuple_combiner)},
        {"combiner": _tuple_batch_combiner},
    )
]


class TestPartitionStep:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.tuples(hashable_keys, plain_values), min_size=0, max_size=24),
        st.integers(1, 5),
    )
    def test_custom_partitioner_buckets_match_per_row_calls(self, rows, n):
        state = _job_state(num_reducers=n, partitioner=_reversed_hash_partitioner)
        buckets, counts, sizes = _partition_buckets(state, ColumnBatch.from_rows(rows))
        assert len(buckets) == n
        assert counts.tolist() == [len(b) for b in buckets]
        assert sizes == [b.nbytes_wire() for b in buckets]
        for p, bucket in enumerate(buckets):
            assert type(bucket) is ColumnBatch
            # Emission order survives inside each bucket.
            expected = [r for r in rows if _reversed_hash_partitioner(r[0], n) == p]
            _assert_same_rows(bucket.to_rows(), expected)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.tuples(hashable_keys, int64_ints), min_size=0, max_size=24),
        st.integers(1, 5),
    )
    def test_scalar_combined_buckets_size_like_their_rows(self, rows, n):
        state = _job_state(num_reducers=n, combiner=GroupCombiner(_sum_combiner))
        buckets, counts, sizes = _partition_buckets(state, ColumnBatch.from_rows(rows))
        combined = 0
        for p, bucket in enumerate(buckets):
            assert type(bucket) is ColumnBatch
            expected = [
                (k, _sum_combiner(k, vs))
                for k, vs in group_by_key(
                    r for r in rows if hash_partitioner(r[0], n) == p
                )
            ]
            _assert_same_rows(bucket.to_rows(), expected)
            assert bucket.nbytes_wire() == sizes[p] == sizeof_records(expected)
            combined += len(expected)
        assert sum(len(b) for b in buckets) == combined == int(counts.sum())

    @settings(max_examples=60, deadline=None)
    @given(any_rows, st.integers(1, 6))
    # Equal keys that hash apart stay apart, each with its own reducer.
    @example([(False, 0), (0, 1)], 3)
    @example([(1, 1), (1.0, 2), (True, 3)], 3)  # 1 and True share bucket 1
    @example([(1, 1), (1.0, 2), (True, 3)], 5)  # three buckets
    @example([(0.0, 1), (-0.0, 2)], 3)
    @example([(_SHARED_NAN, 1), (_SHARED_NAN, 2), (0.5, 3)], 2)
    @example([(3, 1), ("a", 2), (3, 3), (None, 4)], 1)  # all one bucket
    @example([(7, 1), (7, 2), (7, 3)], 6)  # all empty but one
    def test_buckets_match_the_per_bucket_reference(self, rows, n):
        batch = ColumnBatch.from_rows(rows)
        for spec_kw in _PARTITION_MATRIX:
            state = _job_state(num_reducers=n, **spec_kw)
            try:
                expected = reference_partition(state.spec, batch)
            except TypeError:  # a key stable_hash refuses (None)
                with pytest.raises(TypeError):
                    state._partition(batch)
                continue
            buckets, counts, sizes = _partition_buckets(state, batch)
            assert len(buckets) == n
            assert counts.tolist() == [len(b) for b in expected]
            assert sizes == [b.nbytes_wire() for b in expected]
            for bucket, reference in zip(buckets, expected):
                assert type(bucket) is ColumnBatch
                _assert_same_rows(bucket.to_rows(), reference.to_rows())
                assert bucket.nbytes_wire() == reference.nbytes_wire()

    @settings(max_examples=60, deadline=None)
    @given(any_rows, st.integers(1, 6))
    @example([(False, 0), (0, 1), (False, 2)], 3)
    @example([(_SHARED_NAN, 1), (_SHARED_NAN, 2)], 2)
    def test_group_buckets_is_group_by_key_bucket_by_bucket(self, rows, n):
        batch = ColumnBatch.from_rows(rows)
        rows = batch.to_rows()  # what the columns hold (fresh NaN objects)
        pids = np.array([_repr_partitioner(k, n) for k, _v in rows], dtype=np.int64)
        grouped, groups_per_bucket = group_buckets(batch, pids, n)
        per_bucket = [
            group_by_key(r for r, p in zip(rows, pids.tolist()) if p == bucket)
            for bucket in range(n)
        ]
        assert groups_per_bucket.tolist() == [len(groups) for groups in per_bucket]
        _assert_same_groups(grouped, [g for groups in per_bucket for g in groups])

    # Few distinct keys per column kind, so runs of equal keys form:
    # the kinds whose equal keys hash alike (int, bool, ASCII text, flat
    # tuples of those) and the ones that must hash per record (floats,
    # where 0.0 == -0.0 hash apart, and tuples holding a float).
    _repeated_keys = st.one_of(
        st.lists(st.sampled_from([0, 1, -7, 2**40, 2**63 - 1]), max_size=30),
        st.lists(st.booleans(), max_size=30),
        st.lists(st.sampled_from(["", "a", "ab", "b\x01"]), max_size=30),
        st.lists(
            st.tuples(st.sampled_from([0, 1, 2]), st.sampled_from(["x", "y"])),
            max_size=30,
        ),
        st.lists(st.sampled_from([0.0, -0.0, 1.5, -2.0]), max_size=30),
        st.lists(
            st.tuples(st.sampled_from([0, 1]), st.sampled_from([0.0, -0.0])),
            max_size=30,
        ),
    )

    @settings(max_examples=150, deadline=None)
    @given(_repeated_keys, st.integers(2, 7))
    @example([0.0, -0.0, 0.0], 3)
    def test_hashing_inside_the_grouping_matches_per_record_ids(self, keys, n):
        # ``bucket_ids=None`` hash-partitions inside group_buckets — one
        # hash per run of equal keys where that is sound; the oracle is
        # the same grouping handed one scalar-defined id per record.
        batch = ColumnBatch.from_rows([(k, i) for i, k in enumerate(keys)])
        pids = np.array([hash_partitioner(k, n) for k in keys], dtype=np.int64)
        hashed, hashed_counts = group_buckets(batch, None, n)
        explicit, explicit_counts = group_buckets(batch, pids, n)
        assert hashed_counts.tolist() == explicit_counts.tolist()
        assert hashed.starts.tolist() == explicit.starts.tolist()
        _assert_same_groups(hashed, list(explicit))



class TestStackRows:
    def test_array_and_scalar_columns_hand_over_their_storage(self):
        data = np.arange(6.0).reshape(3, 2)
        assert stack_rows(ArrayColumn(data)) is data
        ints = build_column([3, 1, 2])
        assert stack_rows(ints) is ints.values

    def test_object_rows_are_stacked(self):
        column = build_column([[1.0, 2.0], [3.0, 4.0]])
        assert isinstance(column, ObjectColumn)
        assert np.array_equal(stack_rows(column), np.stack(column.rows()))

    def test_no_rows_is_an_empty_array(self):
        assert stack_rows(build_column([])).shape == (0,)
