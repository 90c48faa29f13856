"""Tests for the KV model helpers."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.apps.pagerank import PageRankProgram, local_web_graph
from repro.pic.model import model_nbytes, model_to_records, records_to_model
from repro.util.sizing import sizeof_records


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
