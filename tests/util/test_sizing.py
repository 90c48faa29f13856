"""Tests for wire-size estimation."""

import enum
from collections import OrderedDict, namedtuple

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.util.sizing import sizeof_record, sizeof_records, sizeof_value
from tests.util.reference_sizing import reference_sizeof_value


class TestScalars:
    def test_int(self):
        assert sizeof_value(5) == 8

    def test_float(self):
        assert sizeof_value(3.14) == 8

    def test_bool(self):
        assert sizeof_value(True) == 1

    def test_none(self):
        assert sizeof_value(None) == 1

    def test_numpy_scalar(self):
        assert sizeof_value(np.float32(1.0)) == 4
        assert sizeof_value(np.int64(1)) == 8


class TestStrings:
    def test_ascii(self):
        assert sizeof_value("abc") == 3 + 2

    def test_utf8_multibyte(self):
        assert sizeof_value("é") == 2 + 2

    def test_bytes(self):
        assert sizeof_value(b"xyz") == 3 + 2

    def test_empty_string(self):
        assert sizeof_value("") == 2


class TestArrays:
    def test_float64_array(self):
        arr = np.zeros(10)
        assert sizeof_value(arr) == 80 + 8

    def test_2d_array(self):
        arr = np.zeros((4, 4), dtype=np.float32)
        assert sizeof_value(arr) == 64 + 8

    def test_empty_array(self):
        assert sizeof_value(np.zeros(0)) == 8


class TestContainers:
    def test_tuple(self):
        assert sizeof_value((1, 2.0)) == 4 + 8 + 8

    def test_list(self):
        assert sizeof_value([1, 2, 3]) == 4 + 24

    def test_dict(self):
        assert sizeof_value({1: 2.0}) == 4 + 16

    def test_nested(self):
        value = (np.zeros(2), 1)
        assert sizeof_value(value) == 4 + (16 + 8) + 8

    def test_unsupported_type_raises(self):
        with pytest.raises(TypeError, match="cannot size"):
            sizeof_value(object())


class TestRecords:
    def test_record_is_key_plus_value(self):
        assert sizeof_record(1, 2.0) == 16

    def test_records_sum(self):
        records = [(1, 1.0), (2, 2.0), (3, 3.0)]
        assert sizeof_records(records) == 48

    def test_empty_records(self):
        assert sizeof_records([]) == 0

    @given(st.lists(st.tuples(st.integers(), st.floats(allow_nan=False))))
    def test_total_matches_per_record_sum(self, records):
        assert sizeof_records(records) == sum(
            sizeof_record(k, v) for k, v in records
        )

    @given(st.lists(st.tuples(st.integers(), st.floats(allow_nan=False)), min_size=1))
    def test_positive_and_monotone(self, records):
        total = sizeof_records(records)
        assert total > 0
        assert sizeof_records(records[:-1]) < total


@pytest.mark.parametrize(
    "key, value, each",
    [(True, 2.0, 1 + 8), (None, True, 1 + 1), (3, None, 8 + 1),
     (False, "ab", 1 + 4), ("k", None, 3 + 1), (True, np.zeros(2), 1 + 24)],
)
def test_fixed_sizes_come_from_the_rule_table(key, value, each):
    assert sizeof_records([(key, value)] * 20) == 20 * each


class Colour(enum.IntEnum):
    RED = 1
    BLUE = 2


class Label(str):
    """A plain ``str`` subclass: sized as text."""


Point = namedtuple("Point", "x y")

# One leaf per rule of the table and per way of reaching it: the exact
# type, a Python subclass (by MRO), and the numpy scalars — np.float64
# is both a float and an np.generic; np.str_/np.bytes_ list str/bytes
# ahead of np.generic in their MRO yet size as scalars.
_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False),
    st.sampled_from(list(Colour)),
    st.text(max_size=6),  # includes non-ASCII
    st.text(max_size=6).map(Label),
    st.binary(max_size=6),
    st.floats(allow_nan=False).map(np.float64),
    st.floats(allow_nan=False, width=32).map(np.float32),
    st.integers(-(2**31), 2**31 - 1).map(np.int32),
    st.booleans().map(np.bool_),
    st.text(max_size=6).map(np.str_),
    st.binary(max_size=6).map(np.bytes_),
    st.complex_numbers(allow_nan=False).map(np.complex128),
    st.floats(allow_nan=False).map(np.array),  # 0-d
    st.builds(lambda n, m: np.zeros((n, m), dtype=np.float32),
              st.integers(0, 3), st.integers(0, 3)),
)
_hashable_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(), st.text(max_size=4),
    st.sampled_from(list(Colour)), st.integers(0, 9).map(np.int32),
)
_nested = st.recursive(
    _leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.tuples(inner, inner).map(lambda xy: Point(*xy)),
        st.sets(_hashable_leaves, max_size=4),
        st.frozensets(_hashable_leaves, max_size=4),
        st.dictionaries(_hashable_leaves, inner, max_size=3),
        st.dictionaries(_hashable_leaves, inner, max_size=3).map(OrderedDict),
    ),
    max_leaves=12,
)


class TestRuleTable:
    """``sizeof_value``'s type table against the ``isinstance`` ladder it
    replaced (``tests/util/reference_sizing.py``)."""

    @given(_nested)
    def test_table_equals_ladder(self, value):
        assert sizeof_value(value) == reference_sizeof_value(value)

    def test_ladder_order_is_kept_where_the_mro_disagrees(self):
        # By MRO np.str_ is a str first (UTF-8 + 2); the ladder reached
        # np.generic first (itemsize: 4 bytes per character).
        assert sizeof_value(np.str_("ab")) == 8
        assert sizeof_value(np.bytes_(b"abc")) == 3
        assert sizeof_value(np.float64(1.0)) == 8
        assert sizeof_value(Colour.RED) == 8
        assert sizeof_value(Label("é")) == 2 + 2

    @pytest.mark.parametrize(
        "value", [object(), 1j, range(3), (1, object()), {"k": [object()]}]
    )
    def test_unsizable_raises_the_same_error(self, value):
        with pytest.raises(TypeError) as expected:
            reference_sizeof_value(value)
        with pytest.raises(TypeError) as got:
            sizeof_value(value)
        assert str(got.value) == str(expected.value)
