"""Columnar record batches: the record container of the data plane.

A :class:`ColumnBatch` holds one key column and one value column, and
every record between an input split and a reducer's output travels in
one: splits, map output, shuffle buckets, and (as a
:class:`GroupedBatch`) reduce input.  Row lists exist only at the ingest
boundaries, which :func:`columnize` them once.  The batch is
**losslessly convertible** to and from rows —
``ColumnBatch.from_rows(rows).to_rows() == rows`` — so record-at-a-time
mappers and reducers iterate it and see exactly the objects that were
emitted, while the hot paths (hash partitioning, group-by, combiner
application, wire sizing) run as whole-array numpy operations.

A column's *kind* is chosen from the data: typed kinds (scalar, string,
array, flat tuple) where numpy represents the values exactly,
:class:`ObjectColumn` for everything else (huge ints, numpy scalars,
non-ASCII strings, mixed types, ...).  Every operation is total over
every kind; the scalar functions of :mod:`repro.mapreduce.records` and
:mod:`repro.util.sizing` define the semantics (enforced by tests):

* **Partitioning** — ``stable_hashes`` is bit-identical to the scalar
  :func:`repro.mapreduce.records.stable_hash`, vectorized for typed
  columns (crc32 is affine over GF(2): one table gather per byte that
  *varies* across the column) and the scalar function for object ones.
* **Grouping** — :func:`group_batch` yields the groups of
  ``group_by_key(batch.to_rows())`` in the same order: one stable
  argsort for typed key columns (a linear-time radix sort for narrow
  int keys), ``group_by_key`` over the row indices
  for key sets numpy would order differently (object or mixed-type
  keys, nested tuples, float NaNs).  It is the one-bucket case of
  :func:`group_buckets`, which groups a map output by (reduce
  partition, key) — ``group_by_key`` bucket by bucket, in one pass.
* **Summing** — :func:`group_sums` gives each group's rows summed the
  way a Python ``sum`` over its value list adds them: left to right,
  from +0.0 (one ``bincount`` for floats, ``reduceat`` for ints).
* **Sizing** — ``nbytes_wire`` computes, per column, exactly the sum of
  :func:`repro.util.sizing.sizeof_record` over the materialized rows;
  ``row_nbytes`` is each row's share, so shuffle buckets are sized
  without being cut out of their batch.
"""

from __future__ import annotations

import math
import zlib
from operator import attrgetter, methodcaller
from typing import Any, Iterable, Iterator, Sequence

import numpy as np

from repro.mapreduce.records import group_by_key, stable_hash
from repro.util.sizing import (
    ARRAY_HEADER,
    SEQ_HEADER,
    STR_HEADER,
    sizeof_value,
)

# -- vectorized crc32 --------------------------------------------------------
#
# CRC-32's byte table is linear over GF(2), so the register update splits
# into ``s' = Z(s) ^ T[b]`` with ``Z(s) = (s >> 8) ^ T[s & 0xFF]`` linear
# too, and a ``w``-byte row unrolls to ``K[w] ^ XOR_j Q[w-1-j][b_j]`` with
# ``Q[d][b] = Z^d(T[b])``: a byte counts through its *distance from the
# row's end* alone.  ``Q[d][0] == 0``, so rows that differ only at some
# positions hash to the crc of one template row holding zero there (one
# ``zlib.crc32`` call) XOR one gather per varying position (DESIGN.md §10).

_CRC_Q: np.ndarray | None = None


def _crc_distance_table(depth: int) -> np.ndarray:
    """``Q[d][b]`` for ``d < depth``: one table for every row width, 1 KB
    per byte of the widest row seen.  Built on first use — nothing at
    import — and rebuilt at least twice as deep when a wider row comes."""
    global _CRC_Q
    q = _CRC_Q
    if q is None or len(q) < depth:
        byte = np.arange(256, dtype=np.uint32)
        for _ in range(8):  # Q[0]: the reflected CRC-32 byte table (0xEDB88320)
            byte = np.where(byte & 1, (byte >> 1) ^ np.uint32(0xEDB88320), byte >> 1)
        rows = [byte]
        while len(rows) < max(depth, 1 if q is None else 2 * len(q)):
            rows.append((rows[-1] >> 8) ^ byte[rows[-1] & 0xFF])
        q = _CRC_Q = np.array(rows)
    return q


def _crc32_template(
    template: bytes, varying: Iterable[tuple[int, np.ndarray]], n: int
) -> np.ndarray:
    """crc32 of ``n`` rows equal to ``template`` except at the positions
    in ``varying`` — ``(position, uint8 column)`` pairs, zero in the
    template.  Two array operations per varying byte."""
    width = len(template)
    table = _crc_distance_table(width)
    acc = np.full(n, zlib.crc32(template), dtype=np.uint32)
    for position, column in varying:
        acc ^= table[width - 1 - position].take(column)
    return acc


def crc32_rows(matrix: np.ndarray) -> np.ndarray:
    """crc32 of each row of a ``(n, width)`` uint8 matrix, bit-identical
    to ``zlib.crc32(row.tobytes())``: the all-zero template with every
    byte column varying."""
    if matrix.ndim != 2 or matrix.dtype != np.uint8:
        raise ValueError("crc32_rows needs a (n, width) uint8 matrix")
    n, width = matrix.shape
    return _crc32_template(bytes(width), enumerate(matrix.T), n)


def _hash_int64(values: np.ndarray) -> np.ndarray:
    """Vectorized ``stable_hash`` for an int64 array: the crc32 of
    ``b"i" + key.to_bytes(16, "little", signed=True)``.  When every key
    fits ``k`` signed bytes, bytes ``k..15`` are sign extension — zero, or
    one constant for all the negative keys — so only the low ``k`` bytes
    are gathered: one or two for the apps' ids."""
    n = len(values)
    if n == 0:
        return np.empty(0, dtype=np.uint32)
    lo, hi = int(values.min()), int(values.max())
    k = (max(hi, ~lo).bit_length() + 7) // 8
    le = np.ascontiguousarray(values, dtype="<i8").view(np.uint8).reshape(n, 8)
    zeros = b"i" + bytes(16)
    acc = _crc32_template(zeros, [(1 + j, le[:, j]) for j in range(k)], n)
    if lo < 0:
        ones = b"i" + bytes(k) + b"\xff" * (16 - k)
        flip = np.uint32(zlib.crc32(ones) ^ zlib.crc32(zeros))
        acc ^= np.where(values < 0, flip, np.uint32(0))
    return acc


def _hash_str_rows(data: Sequence[bytes], prefix: bytes) -> np.ndarray:
    """Length-grouped vectorized crc32 over prefixed byte strings."""
    n = len(data)
    out = np.empty(n, dtype=np.uint32)
    lengths = np.fromiter((len(b) for b in data), dtype=np.int64, count=n)
    for width in np.unique(lengths):
        idx = np.flatnonzero(lengths == width)
        packed = b"".join(prefix + data[i] for i in idx)
        mat = np.frombuffer(packed, dtype=np.uint8).reshape(
            len(idx), int(width) + len(prefix)
        )
        out[idx] = crc32_rows(mat)
    return out


# -- columns -----------------------------------------------------------------

# Below this length the min/max/cast passes cost what the radix sort
# saves (measured: even at 512 rows, 2x at 1 024, 6-9x at 4 166).
_RADIX_MIN = 512


def _radix_key(values: np.ndarray) -> np.ndarray:
    """``values``, or — for an int column spanning less than 2**16 — the
    same order recoded as ``values - min`` in uint8/uint16, which numpy's
    stable argsort radix-sorts in linear time (int64 gets a merge sort).
    A stable sort's permutation is unique: the order is the same array."""
    if values.dtype.kind == "i" and len(values) >= _RADIX_MIN:
        lo = values.min()
        span = int(values.max()) - int(lo)  # Python ints: cannot overflow
        if span < 1 << 16:
            return (values - lo).astype(np.uint8 if span < 1 << 8 else np.uint16)
    return values


class Column:
    """One typed column of ``n`` values; subclasses define the storage."""

    def __len__(self) -> int:
        raise NotImplementedError

    def row(self, i: int) -> Any:
        """The ``i``-th value, as the exact Python object that was emitted."""
        raise NotImplementedError

    def rows(self) -> list[Any]:
        """All values as Python objects (array rows come back as views)."""
        return [self.row(i) for i in range(len(self))]

    def take(self, idx: np.ndarray) -> "Column":
        """A new column holding ``self[idx]`` (fancy indexing: copies)."""
        raise NotImplementedError

    def slice(self, start: int, stop: int) -> "Column":
        """A contiguous sub-column (array storage comes back as views)."""
        raise NotImplementedError

    def nbytes_wire(self) -> int:
        """Serialized size under the rules of :mod:`repro.util.sizing`."""
        raise NotImplementedError

    def row_nbytes(self) -> int | np.ndarray:
        """Each row's share of :meth:`nbytes_wire`: one int when every
        row has the same size (the fixed-width kinds, no per-row array),
        else one int64 per row.  Over any range of rows it sums to that
        range's ``slice(...).nbytes_wire()``."""
        raise NotImplementedError

    def stable_hashes(self) -> np.ndarray:
        """``stable_hash`` of every value, vectorized where the layout
        allows and via the scalar function otherwise."""
        n = len(self)
        return np.fromiter(
            (stable_hash(self.row(i)) for i in range(n)),
            dtype=np.uint32,
            count=n,
        )

    def sort_order(self) -> np.ndarray | None:
        """A stable permutation sorting the column the way ``sorted``
        orders the keys, or ``None`` when numpy's order would differ
        (:func:`group_buckets` then orders the keys with ``sorted`` itself)."""
        return None


class ScalarColumn(Column):
    """int, float, or bool values with exact Python types.

    ``kind`` is one of ``"int"``/``"float"``/``"bool"``; ``row`` converts
    back with ``int()``/``float()``/``bool()`` so materialized rows are
    indistinguishable from the originals.
    """

    __slots__ = ("kind", "values")

    def __init__(self, kind: str, values: np.ndarray) -> None:
        if kind not in ("int", "float", "bool"):
            raise ValueError(f"bad scalar column kind {kind!r}")
        self.kind = kind
        self.values = values

    def __len__(self) -> int:
        return len(self.values)

    def row(self, i: int) -> Any:
        v = self.values[i]
        if self.kind == "int":
            return int(v)
        if self.kind == "float":
            return float(v)
        return bool(v)

    def rows(self) -> list[Any]:
        return self.values.tolist()

    def take(self, idx: np.ndarray) -> "ScalarColumn":
        return ScalarColumn(self.kind, self.values[idx])

    def slice(self, start: int, stop: int) -> "ScalarColumn":
        return ScalarColumn(self.kind, self.values[start:stop])

    def nbytes_wire(self) -> int:
        return self.row_nbytes() * len(self.values)

    def row_nbytes(self) -> int:
        return 1 if self.kind == "bool" else 8

    def stable_hashes(self) -> np.ndarray:
        if self.kind == "int":
            return _hash_int64(self.values)
        if self.kind == "bool":  # the scalar hash packs b"b1" / b"b0"
            one, zero = zlib.crc32(b"b1"), zlib.crc32(b"b0")
            return np.where(self.values, np.uint32(one), np.uint32(zero))
        # Floats hash over repr(), which has no fixed-width encoding.
        data = [b"f" + repr(v).encode() for v in self.values.tolist()]
        return _hash_str_rows(data, b"")

    def sort_order(self) -> np.ndarray | None:
        if self.kind == "float" and bool(np.isnan(self.values).any()):
            # Python's comparison sort leaves NaNs wherever they fall;
            # numpy sorts them to the end.  Not equivalent.
            return None
        return np.argsort(_radix_key(self.values), kind="stable")


class StringColumn(Column):
    """ASCII strings in a numpy ``<U`` array.

    Restricted to ASCII without trailing NULs so that byte lengths equal
    character counts (wire sizing) and numpy's lexicographic order
    matches Python's (grouping); everything else goes to
    :class:`ObjectColumn`.
    """

    __slots__ = ("values",)

    def __init__(self, values: np.ndarray) -> None:
        self.values = values

    def __len__(self) -> int:
        return len(self.values)

    def row(self, i: int) -> str:
        return str(self.values[i])

    def rows(self) -> list[Any]:
        return self.values.tolist()

    def take(self, idx: np.ndarray) -> "StringColumn":
        return StringColumn(self.values[idx])

    def slice(self, start: int, stop: int) -> "StringColumn":
        return StringColumn(self.values[start:stop])

    def nbytes_wire(self) -> int:
        if len(self.values) == 0:
            return 0
        lengths = np.char.str_len(self.values)
        return int(lengths.sum()) + STR_HEADER * len(self.values)

    def row_nbytes(self) -> np.ndarray:
        return np.char.str_len(self.values).astype(np.int64) + STR_HEADER

    def stable_hashes(self) -> np.ndarray:
        data = [s.encode("utf-8") for s in self.values.tolist()]
        return _hash_str_rows(data, b"s")

    def sort_order(self) -> np.ndarray | None:
        return np.argsort(self.values, kind="stable")


class ArrayColumn(Column):
    """ndarray values of one dtype and shape, stacked into ``data``.

    ``data`` has shape ``(n, *row_shape)``; ``row`` returns a view, so
    materialized rows share storage with the column (read-only use only
    — pic-lint's PIC304 guards the escape hatches).
    """

    __slots__ = ("data",)

    def __init__(self, data: np.ndarray) -> None:
        if data.ndim < 2:
            raise ValueError("ArrayColumn data must be at least 2-d")
        self.data = data

    def __len__(self) -> int:
        return len(self.data)

    def row(self, i: int) -> np.ndarray:
        return self.data[i]

    def rows(self) -> list[Any]:
        return list(self.data)

    def take(self, idx: np.ndarray) -> "ArrayColumn":
        # ``np.take`` gathers whole rows; ``data[idx]`` is the same bytes,
        # 3-4x slower on narrow rows.
        return ArrayColumn(np.take(self.data, idx, axis=0))

    def slice(self, start: int, stop: int) -> "ArrayColumn":
        return ArrayColumn(self.data[start:stop])

    def nbytes_wire(self) -> int:
        return int(self.data.nbytes) + ARRAY_HEADER * len(self.data)

    def row_nbytes(self) -> int:
        return self.data.itemsize * math.prod(self.data.shape[1:]) + ARRAY_HEADER

    def stable_hashes(self) -> np.ndarray:
        raise TypeError("unhashable partition key type: ndarray")


class TupleColumn(Column):
    """Tuples of one arity, one sub-column per slot."""

    __slots__ = ("slots", "length")

    def __init__(self, slots: tuple[Column, ...], length: int | None = None) -> None:
        if not slots and length is None:
            raise ValueError("zero-arity TupleColumn needs an explicit length")
        self.slots = slots
        self.length = length if length is not None else len(slots[0])
        for slot in slots:
            if len(slot) != self.length:
                raise ValueError("TupleColumn slots disagree on length")

    def __len__(self) -> int:
        return self.length

    def row(self, i: int) -> tuple[Any, ...]:
        return tuple(slot.row(i) for slot in self.slots)

    def rows(self) -> list[Any]:
        if not self.slots:
            return [()] * self.length
        return list(zip(*(slot.rows() for slot in self.slots)))

    def take(self, idx: np.ndarray) -> "TupleColumn":
        return TupleColumn(
            tuple(slot.take(idx) for slot in self.slots), length=len(idx)
        )

    def slice(self, start: int, stop: int) -> "TupleColumn":
        start, stop, _ = slice(start, stop).indices(self.length)
        return TupleColumn(
            tuple(slot.slice(start, stop) for slot in self.slots),
            length=max(stop - start, 0),
        )

    def nbytes_wire(self) -> int:
        return SEQ_HEADER * self.length + sum(
            slot.nbytes_wire() for slot in self.slots
        )

    def row_nbytes(self) -> int | np.ndarray:
        return sum((slot.row_nbytes() for slot in self.slots), SEQ_HEADER)

    def stable_hashes(self) -> np.ndarray:
        # Scalar packing: b"t" + b"|".join(item_hash.to_bytes(8, "little")).
        # An item hash is 32 bits, so only its low four bytes ever vary.
        template = b"t" + b"|".join([bytes(8)] * len(self.slots))
        varying: list[tuple[int, np.ndarray]] = []
        for s, slot in enumerate(self.slots):
            le = slot.stable_hashes().astype("<u4", copy=False).view(np.uint8).reshape(-1, 4)
            varying += [(1 + 9 * s + j, le[:, j]) for j in range(4)]
        return _crc32_template(template, varying, self.length)

    def sort_order(self) -> np.ndarray | None:
        if not self.slots:
            return np.arange(self.length)
        sort_keys: list[np.ndarray] = []
        for slot in reversed(self.slots):
            if isinstance(slot, ScalarColumn):
                if slot.kind == "float" and bool(np.isnan(slot.values).any()):
                    return None
                sort_keys.append(_radix_key(slot.values))
            elif isinstance(slot, StringColumn):
                sort_keys.append(slot.values)
            else:
                return None
        return np.lexsort(sort_keys)


class ObjectColumn(Column):
    """Any Python objects, stored as-is: the kind every value fits."""

    __slots__ = ("values",)

    def __init__(self, values: list[Any]) -> None:
        self.values = values

    def __len__(self) -> int:
        return len(self.values)

    def row(self, i: int) -> Any:
        return self.values[i]

    def rows(self) -> list[Any]:
        return list(self.values)

    def take(self, idx: np.ndarray) -> "ObjectColumn":
        return ObjectColumn([self.values[int(i)] for i in idx])

    def slice(self, start: int, stop: int) -> "ObjectColumn":
        return ObjectColumn(self.values[start:stop])

    def nbytes_wire(self) -> int:
        return sum(sizeof_value(v) for v in self.values)

    def row_nbytes(self) -> np.ndarray:
        return np.fromiter(
            map(sizeof_value, self.values), dtype=np.int64, count=len(self.values)
        )


# -- column construction -----------------------------------------------------


def build_column(values: Sequence[Any]) -> Column:
    """Build the most specific column that represents ``values`` losslessly.

    Every check is one C-level pass (a ``set`` over ``map``, a join, the
    array constructor itself): this runs over whole inputs at ingest.
    """
    if not values:
        return ObjectColumn([])
    kinds = set(map(type, values))
    if len(kinds) == 1:
        (t,) = kinds
        if t is bool:
            return ScalarColumn("bool", np.array(values, dtype=bool))
        if t is float:
            return ScalarColumn("float", np.array(values, dtype=np.float64))
        if t is int:
            try:
                return ScalarColumn("int", np.array(values, dtype=np.int64))
            except OverflowError:
                pass  # beyond int64: kept as Python ints
        elif t is str:
            # numpy "<U" arrays silently trim trailing NULs; non-ASCII
            # strings break the bytes==chars sizing identity and the
            # numpy-vs-Python sort order.
            joined = "".join(values)
            if joined.isascii() and not (
                "\x00" in joined and any(v.endswith("\x00") for v in values)
            ):
                return StringColumn(np.array(values))
        elif t is np.ndarray:
            column = _array_column(values)
            if column is not None:
                return column
        elif t is tuple and len(set(map(len, values))) == 1:
            return TupleColumn(
                tuple(build_column(slot) for slot in zip(*values)),
                length=len(values),
            )
    return ObjectColumn(list(values))


# Rows per ``b"".join`` when numeric array rows are copied into a column:
# a join holds one ``bytes`` object per row until it returns, so joining a
# whole ingest at once would hold them all.
_JOIN_ROWS = 4096

_tobytes = methodcaller("tobytes")


def _array_column(values: Sequence[np.ndarray]) -> ArrayColumn | None:
    """``values`` stacked into an :class:`ArrayColumn` when every row has
    the dtype and the (non-empty) shape of the first, else ``None``.

    1-D rows compare ``ndim`` and ``len`` (ints) instead of a shape
    tuple per row.  Numeric rows are copied into one preallocated array
    by a chunked ``b"".join`` of each row's ``tobytes()`` — C order
    whatever the row's strides.  Not the rows themselves: a join takes
    their buffers, and numpy keeps the description of every buffer an
    array exported until that array dies — ≈ 56 B on each of the
    caller's rows for as long as the caller holds them (DESIGN.md §10).
    Object, structured, text and byte-swapped rows go through
    ``np.concatenate``."""
    first = values[0]
    if first.ndim == 1 and set(map(attrgetter("ndim"), values)) == {1}:
        if len(set(map(len, values))) != 1:
            return None
    elif not first.shape or len(set(map(attrgetter("shape"), values))) != 1:
        return None
    if len(set(map(attrgetter("dtype"), values))) != 1:
        return None
    n, shape = len(values), first.shape
    if first.dtype.kind not in "biufc" or not first.dtype.isnative:
        # np.concatenate also gives byte-swapped rows the native order.
        return ArrayColumn(np.concatenate(values).reshape(n, *shape))
    data = np.empty((n, *shape), dtype=first.dtype)
    flat = data.reshape(-1).view(np.uint8)
    for lo in range(0, n, _JOIN_ROWS):
        joined = b"".join(map(_tobytes, values[lo : lo + _JOIN_ROWS]))
        at = lo * first.nbytes
        flat[at : at + len(joined)] = np.frombuffer(joined, dtype=np.uint8)
    return ArrayColumn(data)


def int_column(values: np.ndarray) -> ScalarColumn:
    """Wrap an int64 array emitted by a vectorized mapper."""
    return ScalarColumn("int", np.ascontiguousarray(values, dtype=np.int64))


def float_column(values: np.ndarray) -> ScalarColumn:
    """Wrap a float64 array emitted by a vectorized mapper."""
    return ScalarColumn("float", np.ascontiguousarray(values, dtype=np.float64))


def stack_rows(column: Column) -> np.ndarray:
    """``np.stack(column.rows())`` (no rows: an empty array): the
    column's own array — no copy, so for reading only — when it is
    stored as one."""
    if isinstance(column, ArrayColumn):
        return column.data
    if isinstance(column, ScalarColumn):
        return column.values
    rows = column.rows()
    return np.stack(rows) if rows else np.empty(0)


# -- batches -----------------------------------------------------------------


class ColumnBatch:
    """A batch of ``(key, value)`` records in structure-of-arrays form."""

    __slots__ = ("keys", "values")

    def __init__(self, keys: Column, values: Column) -> None:
        if len(keys) != len(values):
            raise ValueError(
                f"key column has {len(keys)} rows, value column {len(values)}"
            )
        self.keys = keys
        self.values = values

    @classmethod
    def from_rows(cls, rows: Sequence[tuple[Any, Any]]) -> "ColumnBatch":
        """Columnize a row list; every value round-trips exactly.  A row
        that is not a ``(key, value)`` pair is a ``ValueError`` naming it."""
        try:
            keys = [k for k, _v in rows]
            values = [v for _k, v in rows]
        except (TypeError, ValueError):
            for i, row in enumerate(rows):
                try:
                    _k, _v = row
                except (TypeError, ValueError):
                    raise ValueError(
                        f"record {i} is not a (key, value) pair: {row!r}"
                    ) from None
            raise
        return cls(build_column(keys), build_column(values))

    def to_rows(self) -> list[tuple[Any, Any]]:
        """Materialize the row representation."""
        return list(zip(self.keys.rows(), self.values.rows()))

    def __len__(self) -> int:
        return len(self.keys)

    def __iter__(self) -> Iterator[tuple[Any, Any]]:
        return iter(self.to_rows())

    def take(self, idx: np.ndarray) -> "ColumnBatch":
        return ColumnBatch(self.keys.take(idx), self.values.take(idx))

    def slice(self, start: int, stop: int) -> "ColumnBatch":
        return ColumnBatch(
            self.keys.slice(start, stop), self.values.slice(start, stop)
        )

    def even_slices(self, parts: int) -> list["ColumnBatch"]:
        """``parts`` contiguous near-equal views covering the batch in order."""
        n = len(self)
        bounds = [round(i * n / parts) for i in range(parts + 1)]
        return [self.slice(bounds[i], bounds[i + 1]) for i in range(parts)]

    def nbytes_wire(self) -> int:
        """Total wire size; equals ``sizeof_records(self.to_rows())``."""
        return self.keys.nbytes_wire() + self.values.nbytes_wire()

    def row_nbytes(self) -> int | np.ndarray:
        """Each record's wire size, as :meth:`Column.row_nbytes`."""
        return self.keys.row_nbytes() + self.values.row_nbytes()

    def bucket_nbytes(self, bucket_ids: np.ndarray, counts: np.ndarray) -> list[int]:
        """``nbytes_wire`` of each bucket, bucket ``p`` holding the
        ``counts[p]`` records whose id in ``bucket_ids`` is ``p``: count
        × record size when that is fixed, else one weighted bincount of
        :meth:`row_nbytes` (whole byte counts summed in float64, exact
        below 2**53)."""
        sizes = self.row_nbytes()
        if isinstance(sizes, int):
            return (counts * sizes).tolist()
        sums = np.bincount(bucket_ids, weights=sizes, minlength=len(counts))
        return sums.astype(np.int64).tolist()

    def partition_ids(self, num_partitions: int) -> np.ndarray:
        """``stable_hash(key) % num_partitions`` for every row, batched."""
        if num_partitions <= 0:
            raise ValueError(
                f"num_partitions must be positive, got {num_partitions}"
            )
        hashes = self.keys.stable_hashes().astype(np.int64)
        return hashes % num_partitions


#: What an ingest boundary accepts: a batch, or the rows to make one of.
Records = ColumnBatch | Sequence[tuple[Any, Any]]


def columnize(records: Records) -> ColumnBatch:
    """``records`` as a :class:`ColumnBatch`: row lists are converted,
    batches pass through.  Called once at each ingest boundary."""
    if isinstance(records, ColumnBatch):
        return records
    return ColumnBatch.from_rows(records)


def concat_batches(batches: Sequence[ColumnBatch]) -> ColumnBatch:
    """Concatenate batches in order.

    Empty batches carry no kind and are skipped; columns whose kinds
    (or scalar types, array shapes, tuple arities) disagree degrade to
    :class:`ObjectColumn`, so ``to_rows()`` of the result is always the
    concatenation of the inputs' rows.
    """
    batches = [b for b in batches if len(b)]
    if not batches:
        return ColumnBatch.from_rows([])
    if len(batches) == 1:
        return batches[0]
    return ColumnBatch(
        _concat_columns([b.keys for b in batches]),
        _concat_columns([b.values for b in batches]),
    )


def _concat_columns(cols: list[Column]) -> Column:
    kinds = {type(c) for c in cols}
    if kinds == {ScalarColumn}:
        scalars = [c for c in cols if isinstance(c, ScalarColumn)]
        if len({c.kind for c in scalars}) == 1:
            return ScalarColumn(
                scalars[0].kind, np.concatenate([c.values for c in scalars])
            )
    elif kinds == {StringColumn}:
        return StringColumn(
            np.concatenate(
                [c.values for c in cols if isinstance(c, StringColumn)]
            )
        )
    elif kinds == {ArrayColumn}:
        arrays = [c.data for c in cols if isinstance(c, ArrayColumn)]
        if len({(a.dtype, a.shape[1:]) for a in arrays}) == 1:
            return ArrayColumn(np.concatenate(arrays))
    elif kinds == {TupleColumn}:
        tuples = [c for c in cols if isinstance(c, TupleColumn)]
        if len({len(c.slots) for c in tuples}) == 1:
            return TupleColumn(
                tuple(
                    _concat_columns([c.slots[s] for c in tuples])
                    for s in range(len(tuples[0].slots))
                ),
                length=sum(c.length for c in tuples),
            )
    return ObjectColumn([v for c in cols for v in c.rows()])


def _kind(column: Column) -> tuple[Any, ...]:
    """What :func:`_concat_columns` needs equal across columns to keep
    them typed: scalar type, array dtype and row shape, tuple arity and
    slot kinds (a string column's width is promoted, not compared)."""
    if isinstance(column, ScalarColumn):
        return ("scalar", column.kind)
    if isinstance(column, StringColumn):
        return ("str",)
    if isinstance(column, ArrayColumn):
        return ("array", column.data.dtype, column.data.shape[1:])
    if isinstance(column, TupleColumn):
        return ("tuple", *map(_kind, column.slots))
    return ("object",)


def bucket_kinds(
    batches: Sequence[ColumnBatch],
    bucket_ids: Sequence[np.ndarray],
    num_buckets: int,
) -> list[ColumnBatch] | None:
    """The column kinds of each bucket of a shuffle, when they can differ
    from those of the batches' concatenation.

    Bucket ``p`` gathers the records of every ``batches[m]`` whose id in
    ``bucket_ids[m]`` is ``p``; its own pieces concatenate to the kinds
    of the zero-row batch returned for it.  ``None`` when the non-empty
    batches agree on their kinds: every non-empty bucket then has the
    kinds their concatenation has.
    """
    kinds = {(_kind(b.keys), _kind(b.values)) for b in batches if len(b)}
    if len(kinds) <= 1:
        return None
    empty = [b.slice(0, 0) for b in batches]
    fed = [np.bincount(ids, minlength=num_buckets) > 0 for ids in bucket_ids]
    likes = []
    for p in range(num_buckets):
        pieces = [e for e, feeds in zip(empty, fed) if feeds[p]]
        likes.append(ColumnBatch(
            _concat_columns([e.keys for e in pieces]),
            _concat_columns([e.values for e in pieces]),
        ))
    return likes


def _as_kind(column: Column, like: Column) -> Column:
    """``column``'s rows in the kind of ``like``, a kind that holds them
    (built from the rows only when the kinds differ)."""
    if _kind(column) == _kind(like):
        return column
    return _column_of(column.rows(), like)


def _column_of(rows: list[Any], like: Column) -> Column:
    if isinstance(like, ScalarColumn):
        return ScalarColumn(like.kind, np.array(rows, dtype=like.values.dtype))
    if isinstance(like, StringColumn):
        return StringColumn(np.array(rows, dtype=like.values.dtype))
    if isinstance(like, ArrayColumn):
        return ArrayColumn(np.stack(rows))
    if isinstance(like, TupleColumn):
        return TupleColumn(
            tuple(_column_of(list(v), s) for v, s in zip(zip(*rows), like.slots)),
            length=len(rows),
        )
    return ObjectColumn(rows)


# -- grouping ----------------------------------------------------------------


class GroupedBatch:
    """Grouped-by-key records, iterating like ``list[(key, list[values])]``.

    Built from a key-sorted batch plus group boundaries.  Scalar
    consumers iterate it exactly like ``group_by_key``'s output;
    vectorized consumers read ``sorted_values`` / ``starts`` / ``ends``
    and never materialize per-row Python objects.
    """

    __slots__ = ("sorted_keys", "sorted_values", "starts", "ends")

    def __init__(
        self, sorted_keys: Column, sorted_values: Column, starts: np.ndarray
    ) -> None:
        self.sorted_keys = sorted_keys
        self.sorted_values = sorted_values
        self.starts = starts
        self.ends = np.append(starts[1:], len(sorted_keys))

    def __len__(self) -> int:
        return len(self.starts)

    def unique_keys(self) -> Column:
        """One key per group, in group order."""
        return self.sorted_keys.take(self.starts)

    def groups(self, first: int, stop: int) -> "GroupedBatch":
        """Groups ``first`` up to ``stop`` as a grouping of their own,
        over views of the sorted columns.  No groups hold no records,
        and an empty batch carries no kind: the empty cut is what
        grouping an empty batch gives, object columns."""
        if first == stop:
            return GroupedBatch(
                ObjectColumn([]), ObjectColumn([]), np.empty(0, dtype=np.int64)
            )
        lo, hi = int(self.starts[first]), int(self.ends[stop - 1])
        return GroupedBatch(
            self.sorted_keys.slice(lo, hi),
            self.sorted_values.slice(lo, hi),
            self.starts[first:stop] - lo,
        )

    def as_kinds(self, like: ColumnBatch) -> "GroupedBatch":
        """The same groups with columns of the kinds of ``like``'s."""
        return GroupedBatch(
            _as_kind(self.sorted_keys, like.keys),
            _as_kind(self.sorted_values, like.values),
            self.starts,
        )

    def __iter__(self) -> Iterator[tuple[Any, list[Any]]]:
        # Rows are materialized per column, once, not per group.
        values = self.sorted_values.rows()
        bounds = zip(self.starts.tolist(), self.ends.tolist())
        for key, (start, end) in zip(self.unique_keys().rows(), bounds):
            yield key, values[start:end]


def group_sums(grouped: GroupedBatch, values: np.ndarray) -> np.ndarray:
    """Per-group sums of ``values``, an array holding one row per row of
    ``grouped.sorted_values``: row ``g`` of the result is
    ``0.0 + x₁ + x₂ + …`` over group ``g``'s rows in their within-group
    order — the left-to-right fold of a Python ``sum`` over the group's
    value list — element by element, for rows of any shape.

    float64: one ``np.bincount`` over the flattened rows, bin = group ×
    row width + element; it adds each weight into its bin in input order,
    from +0.0.  int64: ``np.add.reduceat`` over the group starts (integer
    addition is exact in any order).  No other dtype is summed."""
    num_groups = len(grouped)
    if values.dtype == np.int64:
        if not num_groups:
            return np.zeros((0, *values.shape[1:]), dtype=np.int64)
        return np.add.reduceat(values, grouped.starts, axis=0)
    if values.dtype != np.float64:
        raise TypeError(f"group_sums sums float64 or int64, not {values.dtype}")
    row_shape = values.shape[1:]
    width = math.prod(row_shape)
    first_bins = np.repeat(np.arange(num_groups) * width, grouped.ends - grouped.starts)
    bins = (first_bins[:, None] + np.arange(width)).ravel()
    sums = np.bincount(bins, weights=values.ravel(), minlength=num_groups * width)
    # No bins at all (no rows, or zero-width rows) count in intp.
    return sums.astype(np.float64, copy=False).reshape(num_groups, *row_shape)


def group_batch(batch: ColumnBatch) -> GroupedBatch:
    """Group a batch by key: the groups, group order and within-group
    value order of ``group_by_key(batch.to_rows())`` — the one-bucket
    case of :func:`group_buckets`."""
    return group_buckets(batch)[0]


def group_buckets(
    batch: ColumnBatch, bucket_ids: np.ndarray | None = None, num_buckets: int = 1
) -> tuple[GroupedBatch, np.ndarray]:
    """Group a batch by (bucket id, key), and count each bucket's groups.

    ``bucket_ids`` assigns every record one of ``num_buckets`` buckets;
    ``None`` hash-partitions, ``stable_hash(key) % num_buckets`` (with
    one bucket, nothing is hashed).  The groups come bucket by bucket;
    inside a bucket they are the groups, group order and within-group
    value order of ``group_by_key`` over the bucket's rows in batch
    order — what scattering the batch into buckets and grouping each on
    its own yields, in one pass.  Equal keys in different buckets stay
    different groups.

    Typed key columns take one stable argsort by key and one by bucket
    over it; when the grouping hashes and equal keys hash alike, it
    hashes and orders the runs of equal keys, not the records.  The
    rest (object and mixed-type keys, nested tuples, float NaNs — each
    NaN record its own group) are ordered by ``group_by_key`` itself,
    run over each bucket's row indices.
    """
    groups_per_bucket: np.ndarray
    n = len(batch)
    order = batch.keys.sort_order()
    if bucket_ids is None and num_buckets > 1 and (
        order is None
        # Floats hash over repr(): 0.0 == -0.0, but the two hash apart.
        or any(
            isinstance(slot, ScalarColumn) and slot.kind == "float"
            for slot in _flat_slots(batch.keys)
        )
    ):
        bucket_ids = batch.partition_ids(num_buckets)
    if order is not None and bucket_ids is None and num_buckets > 1:
        by_key = batch.keys.take(order)
        runs = _group_starts(by_key, None)
        run_ids = by_key.take(runs).stable_hashes().astype(np.int64) % num_buckets
        run_order = np.argsort(run_ids, kind="stable")
        lengths = np.diff(np.append(runs, n))[run_order]
        starts = np.cumsum(lengths) - lengths
        # Each run moves as a block: its records' offset is the same.
        order = order[np.repeat(runs[run_order] - starts, lengths) + np.arange(n)]
        sorted_keys = batch.keys.take(order)
        groups_per_bucket = np.bincount(run_ids, minlength=num_buckets)
    elif order is not None:
        sorted_ids: np.ndarray | None = None
        if bucket_ids is not None:
            order = order[np.argsort(bucket_ids[order], kind="stable")]
            sorted_ids = bucket_ids[order]
        sorted_keys = batch.keys.take(order)
        starts = _group_starts(sorted_keys, sorted_ids)
        if sorted_ids is None:
            groups_per_bucket = np.array([len(starts)], dtype=np.int64)
        else:
            groups_per_bucket = np.bincount(
                sorted_ids[starts], minlength=num_buckets
            )
    else:
        keys = batch.keys.rows()
        if bucket_ids is None:
            buckets: list[Sequence[int]] = [range(len(keys))]
        else:
            scatter = np.argsort(bucket_ids, kind="stable").tolist()
            counts = np.bincount(bucket_ids, minlength=num_buckets)
            bounds = np.concatenate(([0], np.cumsum(counts))).tolist()
            buckets = [
                scatter[bounds[p] : bounds[p + 1]] for p in range(num_buckets)
            ]
        grouped_rows: list[list[int]] = []
        group_counts: list[int] = []
        for members in buckets:
            groups = group_by_key((keys[i], i) for i in members)
            grouped_rows.extend(idx for _key, idx in groups)
            group_counts.append(len(groups))
        sizes = np.array([len(idx) for idx in grouped_rows], dtype=np.int64)
        starts = np.cumsum(sizes) - sizes
        order = np.array(
            [i for idx in grouped_rows for i in idx], dtype=np.int64
        )
        sorted_keys = batch.keys.take(order)
        groups_per_bucket = np.array(group_counts, dtype=np.int64)
    return (
        GroupedBatch(sorted_keys, batch.values.take(order), starts),
        groups_per_bucket,
    )


def _flat_slots(keys: Column) -> list[ScalarColumn | StringColumn]:
    """The columns holding the keys of a key column that has a
    ``sort_order``: itself if scalar or string, its slots if a flat tuple."""
    slots = keys.slots if isinstance(keys, TupleColumn) else (keys,)
    flat = [s for s in slots if isinstance(s, (ScalarColumn, StringColumn))]
    assert len(flat) == len(slots)
    return flat


def _group_starts(
    sorted_keys: Column, sorted_bucket_ids: np.ndarray | None
) -> np.ndarray:
    """Group boundaries of a key column in its own ``sort_order``, cut
    again wherever the bucket id changes."""
    n = len(sorted_keys)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    changed = np.zeros(n - 1, dtype=bool)
    for slot in _flat_slots(sorted_keys):
        changed |= slot.values[1:] != slot.values[:-1]
    if sorted_bucket_ids is not None:
        changed |= sorted_bucket_ids[1:] != sorted_bucket_ids[:-1]
    return np.flatnonzero(np.concatenate(([True], changed))).astype(np.int64)


def singleton_groups(batch: ColumnBatch) -> GroupedBatch:
    """View a combined batch (one row per key) as single-value groups.

    This is the grouped shape a reducer sees after a combiner ran: the
    same keys in the same order, each with a one-element value list.
    """
    return GroupedBatch(
        batch.keys, batch.values, np.arange(len(batch), dtype=np.int64)
    )


def emit_first_values(ctx: Any, grouped: GroupedBatch) -> None:
    """Identity reduce — emit each group's first value (one ``take``
    per column); shared by the smoothing, linear-solver, and
    PageRank-propagate reducers."""
    ctx.emit_batch(
        ColumnBatch(
            grouped.unique_keys(), grouped.sorted_values.take(grouped.starts)
        )
    )
