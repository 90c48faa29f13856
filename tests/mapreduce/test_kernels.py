"""Oracle tests for the data plane's three array kernels.

Each kernel computes something a slower, obviously-right function
defines, and must agree with it bit for bit:

* ``crc32_rows`` / ``_hash_int64`` — CRC-32 through the GF(2)-linear
  distance table — against ``zlib.crc32`` and the scalar ``stable_hash``;
* ``sort_order`` — the radix order of narrow int keys — against
  ``np.argsort(values, kind="stable")`` on the int64 values themselves;
* and nothing is computed at import: every ledger process imports
  these modules, so a table built there is a ``setup_s`` regression.
"""

import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.mapreduce import columnar
from repro.mapreduce.columnar import (
    _RADIX_MIN,
    ScalarColumn,
    TupleColumn,
    _hash_int64,
    crc32_rows,
    int_column,
)
from repro.mapreduce.records import stable_hash

REPO = Path(__file__).resolve().parents[2]
INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1


def zlib_rows(matrix: np.ndarray) -> list[int]:
    return [zlib.crc32(row.tobytes()) for row in matrix]


@st.composite
def byte_matrices(draw):
    rows = draw(st.integers(0, 600))
    width = draw(st.integers(0, 64))
    seed = draw(st.integers(0, 2**32 - 1))
    return np.random.default_rng(seed).integers(
        0, 256, size=(rows, width), dtype=np.uint8
    )


class TestCrc32Rows:
    @settings(max_examples=60, deadline=None)
    @given(byte_matrices())
    def test_equals_zlib(self, matrix):
        got = crc32_rows(matrix)
        assert got.dtype == np.uint32
        assert got.tolist() == zlib_rows(matrix)

    def test_a_width_never_seen_before_grows_the_table(self):
        crc32_rows(np.zeros((1, 3), dtype=np.uint8))
        depth = len(columnar._CRC_Q)
        matrix = np.random.default_rng(7).integers(
            0, 256, size=(5, depth + 9), dtype=np.uint8
        )
        assert crc32_rows(matrix).tolist() == zlib_rows(matrix)
        assert len(columnar._CRC_Q) >= depth + 9
        # ... and narrower rows still read the same, now longer, table.
        assert crc32_rows(matrix[:, :4]).tolist() == zlib_rows(matrix[:, :4])

    def test_non_contiguous_input(self):
        base = np.random.default_rng(3).integers(0, 256, size=(40, 30), dtype=np.uint8)
        for view in (base[::2, 1::3], base.T, base[::-1, ::-1]):
            assert not view.flags.c_contiguous
            assert crc32_rows(view).tolist() == zlib_rows(view)

    @pytest.mark.parametrize(
        "bad", [np.zeros(4, dtype=np.uint8), np.zeros((2, 2), dtype=np.int64)]
    )
    def test_rejects_other_shapes_and_dtypes(self, bad):
        with pytest.raises(ValueError, match="uint8 matrix"):
            crc32_rows(bad)


def assert_hashes_like_scalar(keys: list[int]) -> None:
    got = _hash_int64(np.array(keys, dtype=np.int64))
    assert got.dtype == np.uint32
    assert got.tolist() == [stable_hash(k) for k in keys]


class TestHashInt64:
    @pytest.mark.parametrize(
        "keys",
        [
            [],
            [0],
            [7],
            [-1],
            [INT64_MIN],
            [INT64_MAX],
            [5] * 9,  # all equal
            [-300] * 4,
            [0, 255, 256, 65_535, 65_536, 2**31, INT64_MAX, -1, INT64_MIN],
            [-5, 5, -128, 127, -129, 128],  # mixed sign, one and two bytes
            [-1, -2, -3, -200, -256],  # narrow, all negative
            [-257, -65_536, -65_537],
            [INT64_MIN, INT64_MAX],
        ],
        ids=lambda keys: f"{len(keys)}keys-{keys[0] if keys else 'empty'}",
    )
    def test_edges(self, keys):
        assert_hashes_like_scalar(keys)

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(0, 63).flatmap(
            lambda bits: st.lists(
                st.integers(-(2**bits), 2**bits - 1), max_size=40
            )
        )
    )
    def test_columns_of_every_byte_width(self, keys):
        # Drawing the width first makes narrow columns — the ones whose
        # high bytes fold into the constant — as likely as wide ones.
        assert_hashes_like_scalar(keys)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(0, 2**40), min_size=1, max_size=40))
    def test_non_negative_columns(self, keys):
        assert_hashes_like_scalar(keys)

    def test_a_strided_view_hashes_like_its_copy(self):
        values = np.arange(-50, 50, dtype=np.int64)[::3]
        assert _hash_int64(values).tolist() == [stable_hash(int(v)) for v in values]

    def test_tuple_keys_fold_their_separators(self):
        keys = [("e", 3, 1), ("pr", 2**40, -1), ("e", -4, 0), ("", 0, INT64_MIN)]
        col = columnar.build_column(keys)
        assert isinstance(col, TupleColumn)
        assert col.stable_hashes().tolist() == [stable_hash(k) for k in keys]
        empty = TupleColumn((), length=3)
        assert empty.stable_hashes().tolist() == [stable_hash(())] * 3


def assert_orders_like_int64(values: np.ndarray) -> None:
    expected = np.argsort(values, kind="stable")
    got = int_column(values).sort_order()
    assert got.tolist() == expected.tolist()


class TestRadixOrder:
    @pytest.mark.parametrize("n", [0, 1, _RADIX_MIN - 1, _RADIX_MIN, _RADIX_MIN + 1, 5_000])
    @pytest.mark.parametrize(
        "lo, span",
        [
            (0, 1),  # all equal
            (0, 10),  # heavy duplicates
            (0, 2**8 - 1), (0, 2**8), (0, 2**8 + 1),  # straddling uint8
            (0, 2**16 - 1), (0, 2**16), (0, 2**16 + 1),  # straddling uint16
            (-40, 80),  # negative minimum, narrow
            (-(2**40), 300),
            (INT64_MAX - 200, 200),
            (INT64_MIN, 200),
        ],
    )
    def test_equals_stable_argsort(self, n, lo, span):
        rng = np.random.default_rng(n + span)
        values = lo + rng.integers(0, span, size=n, dtype=np.int64)
        if n >= 2:  # pin both ends of the range, so the span is exact
            values[rng.integers(n)] = lo
            values[rng.integers(n)] = lo + span - 1
        assert_orders_like_int64(values)

    @pytest.mark.parametrize("n", [_RADIX_MIN - 1, _RADIX_MIN, 3 * _RADIX_MIN])
    def test_both_int64_extremes_do_not_overflow_the_range_test(self, n):
        values = np.random.default_rng(n).integers(-3, 3, size=n, dtype=np.int64)
        values[n // 3] = INT64_MAX
        values[n // 2] = INT64_MIN
        assert_orders_like_int64(values)

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(0, 2**20), st.integers(1, 2**17), st.integers(0, 3 * _RADIX_MIN),
        st.integers(0, 2**32 - 1),
    )
    def test_random_ranges(self, lo, span, n, seed):
        rng = np.random.default_rng(seed)
        assert_orders_like_int64(lo - span // 2 + rng.integers(0, span, size=n))

    def test_other_kinds_are_left_alone(self):
        floats = np.random.default_rng(0).normal(size=2 * _RADIX_MIN)
        assert columnar._radix_key(floats) is floats
        bools = floats > 0
        assert columnar._radix_key(bools) is bools
        col = ScalarColumn("float", floats)
        assert col.sort_order().tolist() == np.argsort(floats, kind="stable").tolist()

    def test_tuple_keys_order_like_sorted(self):
        rng = np.random.default_rng(5)
        n = 2 * _RADIX_MIN
        keys = list(zip(
            rng.choice(["e", "pr"], size=n).tolist(),
            rng.integers(-3, 600, size=n).tolist(),
            rng.integers(0, 2**40, size=n).tolist(),
        ))
        col = columnar.build_column(keys)
        assert isinstance(col, TupleColumn)
        assert col.sort_order().tolist() == sorted(range(n), key=keys.__getitem__)


def test_importing_the_data_plane_builds_no_crc_table():
    # setup_s guard: the distance table is built on first use, not when
    # the module is imported.
    code = (
        "import repro.mapreduce.columnar as columnar, repro.util.sizing\n"
        "assert columnar._CRC_Q is None, 'CRC table built at import'\n"
        "columnar.crc32_rows(__import__('numpy').zeros((1, 2), dtype='uint8'))\n"
        "assert columnar._CRC_Q is not None\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={"PYTHONPATH": str(REPO / "src")}, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
