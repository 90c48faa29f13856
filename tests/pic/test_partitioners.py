"""Tests (incl. property-based) for the default partition strategies."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.pic.partitioners import (
    chunk_partition,
    hash_partition,
    random_partition,
    replicate_model,
    split_model_by_key,
)

records_strategy = st.lists(
    st.tuples(st.integers(0, 1000), st.floats(allow_nan=False)), max_size=80
)


def rows_of(parts):
    """The partitions (batches cut from the ingested input) as row lists."""
    return [part.to_rows() for part in parts]


class TestRandomPartition:
    def test_near_even_sizes(self):
        records = [(i, i) for i in range(100)]
        parts = rows_of(random_partition(records, 7, seed=1))
        sizes = [len(p) for p in parts]
        assert max(sizes) - min(sizes) <= 1

    def test_deterministic_for_seed(self):
        records = [(i, i) for i in range(50)]
        a = rows_of(random_partition(records, 5, seed=9))
        b = rows_of(random_partition(records, 5, seed=9))
        assert a == b

    def test_shuffles(self):
        records = [(i, i) for i in range(100)]
        parts = rows_of(random_partition(records, 2, seed=1))
        assert parts[0] != records[:50]

    def test_zero_partitions_rejected(self):
        with pytest.raises(ValueError):
            random_partition([], 0)

    @settings(max_examples=40)
    @given(records_strategy, st.integers(1, 10), st.integers(0, 99))
    def test_partition_is_exact_cover(self, records, p, seed):
        parts = rows_of(random_partition(records, p, seed=seed))
        assert len(parts) == p
        flattened = sorted(r for part in parts for r in part)
        assert flattened == sorted(records)


class TestChunkPartition:
    def test_preserves_order(self):
        records = [(i, i) for i in range(10)]
        parts = rows_of(chunk_partition(records, 3))
        assert [r for p in parts for r in p] == records

    @given(records_strategy, st.integers(1, 10))
    def test_exact_cover_in_order(self, records, p):
        parts = rows_of(chunk_partition(records, p))
        assert [r for part in parts for r in part] == list(records)
        sizes = [len(part) for part in parts]
        assert max(sizes) - min(sizes) <= 1 if records else True


class TestHashPartition:
    def test_equal_keys_colocated(self):
        records = [(i % 5, i) for i in range(50)]
        parts = rows_of(hash_partition(records, 4))
        for part in parts:
            keys = {k for k, _v in part}
            for key in keys:
                total_with_key = sum(
                    1 for p in parts for k, _v in p if k == key
                )
                in_this = sum(1 for k, _v in part if k == key)
                assert total_with_key == in_this

    @given(records_strategy, st.integers(1, 8))
    def test_exact_cover(self, records, p):
        parts = rows_of(hash_partition(records, p))
        assert sorted(r for part in parts for r in part) == sorted(records)


class TestReplicateModel:
    def test_copies_are_independent(self):
        model = {"w": np.zeros(3)}
        copies = replicate_model(model, 3)
        copies[0]["w"][0] = 99.0
        assert copies[1]["w"][0] == 0.0
        assert model["w"][0] == 0.0

    def test_count(self):
        assert len(replicate_model({}, 4)) == 4


class TestSplitModelByKey:
    def test_disjoint_split(self):
        model = {0: "a", 1: "b", 2: "c"}
        parts = split_model_by_key(model, {0: 0, 1: 1, 2: 0}, 2)
        assert parts == [{0: "a", 2: "c"}, {1: "b"}]

    def test_invalid_assignment_rejected(self):
        with pytest.raises(ValueError):
            split_model_by_key({0: "a"}, {0: 5}, 2)

    @given(
        st.dictionaries(st.integers(0, 50), st.integers(), min_size=1, max_size=30),
        st.integers(1, 5),
        st.integers(0, 9),
    )
    def test_split_is_exact_cover(self, model, p, seed):
        rng = np.random.default_rng(seed)
        assignment = {k: int(rng.integers(0, p)) for k in model}
        parts = split_model_by_key(model, assignment, p)
        rebuilt = {}
        for part in parts:
            for k, v in part.items():
                assert k not in rebuilt
                rebuilt[k] = v
        assert rebuilt == model
