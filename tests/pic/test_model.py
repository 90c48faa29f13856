"""Tests for the KV model helpers and the model table behind them; the
dict model of ``reference_model.py`` is the oracle."""

import copy
import itertools
import pickle

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.apps.pagerank import PageRankProgram, local_web_graph
from repro.mapreduce import columnar
from repro.mapreduce.columnar import ColumnBatch, int_column
from repro.pic import model as model_module
from repro.pic.model import (
    KeyedModel,
    as_model,
    model_nbytes,
    model_to_records,
    records_to_model,
)
from repro.util.sizing import sizeof_records
from tests.pic.reference_model import (
    reference_build_model,
    reference_model_nbytes,
    reference_model_to_records,
)


class TestRoundTrip:
    def test_simple_roundtrip(self):
        model = {1: 1.0, 0: 2.0}
        assert records_to_model(model_to_records(model)) == model

    def test_records_sorted_by_key(self):
        records = model_to_records({3: "c", 1: "a", 2: "b"})
        assert [k for k, _v in records] == [1, 2, 3]

    def test_unsortable_keys_use_repr_order(self):
        model = {("pr", 1): 0.5, "x": 1.0}
        records = model_to_records(model)
        assert records_to_model(records) == model

    def test_duplicate_keys_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            records_to_model([(1, "a"), (1, "b")])

    def test_empty_model(self):
        assert model_to_records({}) == []
        assert records_to_model([]) == {}

    @given(
        st.dictionaries(
            st.integers(), st.floats(allow_nan=False), max_size=30
        )
    )
    def test_roundtrip_property(self, model):
        assert records_to_model(model_to_records(model)) == model


class TestSizing:
    def test_size_matches_records(self):
        model = {0: np.zeros(3), 1: np.zeros(3)}
        # per entry: key 8 + array (24 + 8 header)
        assert model_nbytes(model) == 2 * (8 + 32)

    def test_empty_model_is_zero(self):
        assert model_nbytes({}) == 0

    def test_size_grows_with_entries(self):
        small = model_nbytes({0: 1.0})
        big = model_nbytes({0: 1.0, 1: 2.0})
        assert big > small

    # A sum needs no order: model_nbytes skips the deterministic sort
    # model_to_records pays for, and must still size the same records.

    def test_pagerank_mixed_arity_keys_size_like_their_records(self):
        # ("pr", v) beside ("e", j, i), 5 082 of them per PageRank model.
        records = local_web_graph(60, avg_out_degree=4.0, seed=2)
        model = PageRankProgram().initial_model(records)
        assert {len(key) for key in model} == {2, 3}
        assert model_nbytes(model) == sizeof_records(model_to_records(model))

    def test_mixed_type_keys_size_like_their_records(self):
        # Unorderable keys: model_to_records falls back to sorted(key=repr).
        model = {("pr", 1): 0.5, "x": 1.0, 7: np.ones(4), (2, "e"): [1, 2.0], None: "é"}
        assert model_nbytes(model) == sizeof_records(model_to_records(model))

    @given(
        st.dictionaries(
            st.one_of(st.integers(), st.text(max_size=4),
                      st.tuples(st.text(max_size=2), st.integers())),
            st.one_of(st.floats(allow_nan=False), st.lists(st.integers(), max_size=3)),
            max_size=40,
        )
    )
    def test_size_is_the_size_of_the_records(self, model):
        assert model_nbytes(model) == sizeof_records(model_to_records(model))


# -- the table against the dict model ----------------------------------------

# Keys of several types and arities side by side (so both the plain sort
# and the ``sorted(key=repr)`` fallback occur), values of the kinds the
# apps store: floats, vectors, lists.
_keys = st.one_of(
    st.integers(-50, 50),
    st.text("abcé", max_size=3),
    st.tuples(st.sampled_from(["pr", "e"]), st.integers(0, 9)),
    st.tuples(st.sampled_from(["pr", "e"]), st.integers(0, 9), st.integers(0, 9)),
)
_values = st.one_of(
    st.floats(allow_nan=False),
    st.lists(st.floats(allow_nan=False), min_size=2, max_size=2).map(np.array),
    st.lists(st.integers(), max_size=3),
)
_models = st.one_of(
    st.dictionaries(_keys, _values, max_size=25),
    # One key type, one value kind: the typed columns.
    st.dictionaries(st.integers(-50, 50), st.floats(allow_nan=False), max_size=25),
    st.dictionaries(_keys.filter(lambda k: isinstance(k, tuple)),
                    st.floats(allow_nan=False), max_size=25),
)


# Keys equal across types: a query may ask for 1 as 1.0 or True.
_equal_keys = st.sampled_from([0, 1, 0.0, 1.0, False, True])
_output_keys = st.one_of(_keys, _equal_keys)


def _same_key_of_another_type(key):
    """``key``, or a key of another type equal to it (1 → 1.0, True)."""
    if type(key) is int and key in (0, 1):
        return st.sampled_from([key, float(key), bool(key)])
    return st.just(key)


def _query(keys):
    """The key column ``from_rows`` builds: typed (one arity, one type)
    or an object column (mixed arities, mixed types)."""
    return ColumnBatch.from_rows([(k, 0) for k in keys]).keys


def _same_value(a, b):
    return type(a) is type(b) and (
        np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b
    )


def _assert_same_records(got, expected):
    """The same keys in the same order under values of the same types."""
    assert [k for k, _v in got] == [k for k, _v in expected]
    assert all(_same_value(g, e) for (_k, g), (_k2, e) in zip(got, expected))


class TestTableAgainstDict:
    @given(_models)
    def test_records_and_size_are_the_dict_models(self, model):
        table = as_model(model)
        _assert_same_records(table.batch().to_rows(), reference_model_to_records(model))
        _assert_same_records(list(table.items()), reference_model_to_records(model))
        assert table.nbytes_wire() == reference_model_nbytes(model)
        assert table.nbytes_wire() == sizeof_records(model_to_records(model))

    @given(_models, st.lists(st.tuples(_output_keys, _values), max_size=12))
    def test_updated_is_the_dict_upsert(self, model, output):
        # ``output`` brings keys the model has and keys it lacks, repeats
        # keys, and changes value kinds (a float becomes a vector).  It
        # is asked twice, as two equal batches: cold, then through the
        # positions the first answer left behind.
        expected = reference_build_model(model, output)
        table = as_model(model)
        for _pass in ("cold", "warm"):
            derived = table.updated(ColumnBatch.from_rows(output))
            _assert_same_records(
                derived.batch().to_rows(), reference_model_to_records(expected)
            )
            assert derived.nbytes_wire() == reference_model_nbytes(expected)

    @given(_models, st.data())
    def test_updated_with_known_keys_shares_the_key_column(self, model, data):
        table = as_model(model)
        keys = data.draw(
            st.lists(
                st.sampled_from(sorted(model, key=repr)).flatmap(_same_key_of_another_type),
                max_size=8,
            )
            if model else st.just([])
        )
        output = [(k, data.draw(_values)) for k in keys]
        expected = reference_model_to_records(reference_build_model(model, output))
        for _pass in ("cold", "warm"):
            derived = table.updated(ColumnBatch.from_rows(output))
            assert derived.key_column is table.key_column
            _assert_same_records(derived.batch().to_rows(), expected)

    @given(_models, st.data())
    def test_lookup_is_the_dict_getitem(self, model, data):
        table = as_model(model)
        keys = data.draw(
            st.lists(
                st.sampled_from(sorted(model, key=repr)).flatmap(_same_key_of_another_type),
                max_size=10,
            )
            if model else st.just([])
        )
        expected = [(k, model[k]) for k in keys]
        for _pass in ("cold", "warm"):
            got = table.lookup(_query(keys)).rows()
            _assert_same_records(list(zip(keys, got)), expected)
            assert table.positions(_query(keys)).tolist() == [
                list(table).index(k) for k in keys
            ]

    def test_value_kind_change_float_to_vector(self):
        table = as_model({0: 1.0, 1: 2.0})
        derived = table.updated(ColumnBatch.from_rows([(1, np.ones(3))]))
        assert derived.key_column is table.key_column
        assert derived[0] == 1.0 and np.array_equal(derived[1], np.ones(3))
        assert table[1] == 2.0  # the source model is untouched

    def test_unsortable_keys_keep_repr_order_through_an_update(self):
        model = {("pr", 1): 0.5, "x": 1.0, 7: 2.0}
        derived = as_model(model).updated(ColumnBatch.from_rows([(None, 3.0)]))
        assert list(derived) == sorted([*model, None], key=repr)

    def test_a_repeated_key_keeps_its_last_value(self):
        table = as_model({0: 1.0, 1: 2.0, 2: 3.0})
        derived = table.updated(ColumnBatch.from_rows([(0, 5.0), (2, 6.0), (0, 7.0)]))
        assert dict(derived) == {0: 7.0, 1: 2.0, 2: 6.0}
        assert derived.key_column is table.key_column

    def test_scatter_copies_the_value_column(self):
        table = as_model({0: np.zeros(2), 1: np.zeros(2)})
        derived = table.updated(ColumnBatch.from_rows([(0, np.ones(2))]))
        assert np.array_equal(table[0], np.zeros(2))
        assert np.array_equal(derived[0], np.ones(2))


class TestMappingSide:
    def test_reads_like_a_dict(self):
        model = {("pr", 2): 0.5, ("e", 1, 2): 0.25, ("pr", 1): 1.0}
        table = as_model(model)
        assert table == model and model == table
        assert table[("pr", 2)] == 0.5
        assert table.get(("pr", 9)) is None and table.get(("pr", 9), 7.0) == 7.0
        assert ("e", 1, 2) in table and ("e", 2, 1) not in table
        assert len(table) == 3
        assert sorted(table) == sorted(model) == list(table)
        assert dict(table) == model
        assert table.keys() == model.keys()
        with pytest.raises(KeyError):
            table[("pr", 9)]

    def test_is_read_only(self):
        with pytest.raises(TypeError):
            as_model({0: 1.0})[0] = 2.0

    def test_as_model_passes_tables_through_and_rejects_non_mappings(self):
        table = as_model({0: 1.0})
        assert as_model(table) is table
        for bad in ([(0, 1.0)], np.zeros(3), None):
            with pytest.raises(TypeError, match="mapping"):
                as_model(bad)

    def test_lookup_is_the_batch_getitem(self):
        table = as_model({("pr", v): float(v) for v in range(5)})
        keys = ColumnBatch.from_rows([(("pr", 3), 0), (("pr", 0), 0)]).keys
        assert table.lookup(keys).rows() == [3.0, 0.0]
        assert table.lookup(table.key_column) is table.value_column
        with pytest.raises(KeyError):
            table.lookup(ColumnBatch.from_rows([(("pr", 8), 0)]).keys)

    def test_records_to_model_returns_a_sorted_table(self):
        table = records_to_model([(2, "b"), (1, "a")])
        assert isinstance(table, KeyedModel)
        assert table.batch().to_rows() == [(1, "a"), (2, "b")]


class TestLazyState:
    def _pagerank_table(self):
        records = local_web_graph(40, avg_out_degree=3.0, seed=4)
        return as_model(PageRankProgram().initial_model(records))

    def test_keys_are_sized_once_per_key_column(self, monkeypatch):
        table = self._pagerank_table()
        calls = []

        def counting(value, _real=columnar.sizeof_value):
            calls.append(value)
            return _real(value)

        monkeypatch.setattr(columnar, "sizeof_value", counting)
        first = table.nbytes_wire()
        assert len(calls) == len(table)  # the object key column, entry by entry
        rows = table.batch().to_rows()
        derived = table.updated(ColumnBatch.from_rows([(k, v + 1.0) for k, v in rows]))
        assert derived.nbytes_wire() == first == model_nbytes(derived)
        assert copy.deepcopy(derived).nbytes_wire() == first
        assert len(calls) == len(table)  # not one sizeof_value more

    def test_a_superseded_model_drops_its_dict_view(self):
        table = self._pagerank_table()
        key, value = next(iter(table.items()))
        assert table._view is not None
        derived = table.updated(ColumnBatch.from_rows([(key, value + 1.0)]))
        assert table._view is None and derived._view is None
        assert table[key] == value  # rebuilt on demand

    def test_pickle_and_deepcopy_carry_the_columns_only(self):
        table = self._pagerank_table()
        cold = pickle.dumps(KeyedModel(table.key_column, table.value_column))
        table.nbytes_wire(), table.updated(table.batch()), table[next(iter(table))]
        table.lookup(_query([("pr", v) for v in range(5)]))
        assert table._view is not None and table._keys._index is not None
        assert table._keys._memo
        for clone in (pickle.loads(pickle.dumps(table)), copy.deepcopy(table)):
            assert clone._view is None
            assert clone.value_column is not table.value_column
            assert clone == table
        unpickled = pickle.loads(pickle.dumps(table))
        assert unpickled._keys._index is None and unpickled._keys._nbytes is None
        assert not unpickled._keys._memo
        assert len(pickle.dumps(table)) == len(cold)
        small = pickle.dumps(as_model({0: 1.0}))
        assert b"_view" not in small and b"_index" not in small
        assert b"_memo" not in small


class TestPositions:
    """The batched read by position, and the memo behind ``lookup`` and
    ``updated``: at most ``max(4 * len(key column), 256)`` position rows
    per key side (DESIGN.md §17)."""

    @staticmethod
    def _counting_probes(monkeypatch):
        calls = []
        real = model_module._Keys.positions

        def counting(self, keys, missing=None):
            calls.append(len(keys))
            return real(self, keys, missing)

        monkeypatch.setattr(model_module._Keys, "positions", counting)
        return calls

    def test_a_key_error_names_the_first_absent_key(self):
        table = as_model({0: 1.0, 1: 2.0, 2: 3.0})
        keys = int_column(np.array([2, 7, 9, 0]))
        for read in (table.positions, table.lookup):
            with pytest.raises(KeyError) as raised:
                read(keys)
            assert raised.value.args == (7,)

    def test_missing_fills_absent_keys(self):
        table = as_model({("pr", v): float(v) for v in range(4)})
        keys = _query([("pr", 3), ("pr", 8), ("pr", 0), ("e", 1)])
        assert table.positions(keys, missing=-1).tolist() == [3, -1, 0, -1]
        assert table.positions(keys, missing=99).tolist() == [3, 99, 0, 99]

    def test_an_equal_query_hits_the_memo(self, monkeypatch):
        table = as_model({("pr", v): float(v) for v in range(8)})
        calls = self._counting_probes(monkeypatch)
        first = table._keys.remembered_positions(_query([("pr", 5), ("pr", 2)]))
        again = _query([("pr", 5), ("pr", 2)])  # a new object, equal content
        second = table._keys.remembered_positions(again)
        assert calls == [2]  # one probe for both
        assert second is first and not second.flags.writeable
        assert np.array_equal(second, table.positions(again))
        assert table.lookup(again).rows() == [5.0, 2.0]
        assert calls == [2, 2]  # the fresh probe above, not the lookup

    def test_untyped_queries_are_probed_every_time(self, monkeypatch):
        table = as_model({("pr", 1): 0.5, ("e", 1, 2): 0.25, 3: 1.0})
        calls = self._counting_probes(monkeypatch)
        for _ in range(3):
            assert table.lookup(_query([("e", 1, 2), 3])).rows() == [0.25, 1.0]
        assert calls == [2, 2, 2] and not table._keys._memo

    def test_a_new_key_gives_a_fresh_key_side(self):
        table = as_model({0: 1.0, 1: 2.0})
        assert table.lookup(int_column(np.array([1, 0]))).rows() == [2.0, 1.0]
        assert table._keys._memo
        derived = table.updated(ColumnBatch.from_rows([(-1, 5.0)]))
        assert derived._keys is not table._keys and not derived._keys._memo
        # -1 sorts first, so every old position moved by one row.
        assert derived.lookup(int_column(np.array([1, 0]))).rows() == [2.0, 1.0]
        assert derived.positions(int_column(np.array([1, 0]))).tolist() == [2, 1]

    @pytest.mark.parametrize("size, width", [(10, 4), (200, 37)])
    def test_distinct_queries_keep_the_memo_within_its_bound(self, size, width):
        table = as_model({v: float(v) for v in range(size)})
        keys = table._keys
        bound = max(4 * size, 256)
        queries = itertools.islice(itertools.product(range(size), repeat=width), 10_000)
        for query in queries:
            values = np.array(query)
            assert table.lookup(int_column(values)).rows() == values.astype(float).tolist()
            held = sum(map(len, keys._memo.values()))
            assert held == keys._memo_rows <= bound
        assert keys._memo  # it was in use, not merely empty

    def test_a_query_longer_than_the_bound_is_not_kept(self):
        table = as_model({v: float(v) for v in range(10)})
        long = int_column(np.arange(300) % 10)
        assert table.lookup(long).rows() == [float(v % 10) for v in range(300)]
        assert not table._keys._memo and table._keys._memo_rows == 0
