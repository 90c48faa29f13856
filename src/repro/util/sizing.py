"""Wire-size estimation for key/value records.

The paper's Table II and Figure 2 report *bytes* of MapReduce intermediate
data and model updates.  To reproduce those numbers we size the actual
records our mappers and reducers emit, using the serialized footprint a
Hadoop ``Writable`` would have, not Python's in-memory ``sys.getsizeof``
(which is dominated by object headers and would inflate the counts).

Sizing rules (close to Hadoop's wire formats):

* ``int`` → 8 bytes (``LongWritable``)
* ``float`` → 8 bytes (``DoubleWritable``)
* ``bool``/``None`` → 1 byte
* ``str``/``bytes`` → UTF-8 length + 2-byte length prefix (``Text``)
* ``numpy`` scalar → its itemsize
* ``numpy.ndarray`` → ``nbytes`` + a small shape header
* tuples/lists → sum of elements + 4-byte count
* dicts → sum of key+value sizes + 4-byte count
"""

from __future__ import annotations

from typing import Any, Iterable

import numpy as np

# Public: the columnar backend computes per-column wire sizes from the
# same rules, so the header constants are part of the sizing contract.
ARRAY_HEADER = 8
SEQ_HEADER = 4
STR_HEADER = 2


def sizeof_value(value: Any) -> int:
    """Return the estimated serialized size of one key or value, in bytes."""
    if value is None or isinstance(value, bool):
        return 1
    if isinstance(value, (int, float)):
        return 8
    if isinstance(value, np.generic):
        return int(value.dtype.itemsize)
    if isinstance(value, np.ndarray):
        return int(value.nbytes) + ARRAY_HEADER
    if isinstance(value, bytes):
        return len(value) + STR_HEADER
    if isinstance(value, str):
        return len(value.encode("utf-8")) + STR_HEADER
    if isinstance(value, (tuple, list, set, frozenset)):
        return SEQ_HEADER + sum(sizeof_value(v) for v in value)
    if isinstance(value, dict):
        return SEQ_HEADER + sum(
            sizeof_value(k) + sizeof_value(v) for k, v in value.items()
        )
    raise TypeError(
        f"cannot size value of type {type(value).__name__}; "
        "emit ints, floats, strings, numpy arrays, or nested tuples/lists/dicts"
    )


def sizeof_record(key: Any, value: Any) -> int:
    """Serialized size of one key/value record."""
    return sizeof_value(key) + sizeof_value(value)


# Below this length the generic path is cheap enough that probing for
# batch homogeneity costs more than it saves.
_FAST_PATH_MIN = 16

# Exact-type size rules for the fast path.  ``type(x) is int`` rather
# than isinstance deliberately excludes bool (a subclass of int that
# sizes to 1 byte, not 8) and numpy scalars.
_FIXED_SCALAR_TYPES = (int, float)


def _sizeof_records_fast(records: list[tuple[Any, Any]]) -> int | None:
    """Batched sizing for homogeneous record lists, or ``None``.

    Every app's hot shuffle/partition batches are homogeneous —
    int/str keys paired with scalar or ndarray values — so one
    type-dispatch for the whole batch plus a tight accumulation loop
    replaces a recursive ``sizeof_value`` call per element.  Any record
    deviating from the probe types bails out to the reference path;
    the result is always equal to the per-record sum.
    """
    k0, v0 = records[0]
    kt, vt = type(k0), type(v0)
    n = len(records)

    if kt in _FIXED_SCALAR_TYPES:
        if vt in _FIXED_SCALAR_TYPES:
            for k, v in records:
                if type(k) is not kt or type(v) is not vt:
                    return None
            return 16 * n
        if vt is np.ndarray:
            total = 0
            for k, v in records:
                if type(k) is not kt or type(v) is not vt:
                    return None
                total += v.nbytes
            return int(total) + (8 + ARRAY_HEADER) * n
        if vt is str:
            total = 0
            for k, v in records:
                if type(k) is not kt or type(v) is not vt:
                    return None
                total += len(v.encode("utf-8"))
            return total + (8 + STR_HEADER) * n
        return None

    if kt is str:
        if vt in _FIXED_SCALAR_TYPES:
            total = 0
            for k, v in records:
                if type(k) is not kt or type(v) is not vt:
                    return None
                total += len(k.encode("utf-8"))
            return total + (STR_HEADER + 8) * n
        if vt is np.ndarray:
            total = 0
            for k, v in records:
                if type(k) is not kt or type(v) is not vt:
                    return None
                total += len(k.encode("utf-8")) + v.nbytes
            return int(total) + (STR_HEADER + ARRAY_HEADER) * n
        return None

    return None


def sizeof_records(records: Iterable[tuple[Any, Any]]) -> int:
    """Total serialized size of an iterable of ``(key, value)`` records.

    Large homogeneous batches (int/str keys with scalar, string, or
    ndarray values — the dominant shape in all five applications) take
    a batched fast path that is equal, byte for byte, to the per-record
    reference sum.
    """
    # Columnar batches size themselves per column (duck-typed rather
    # than isinstance to keep this leaf module import-cycle free).
    wire = getattr(records, "nbytes_wire", None)
    if wire is not None:
        return int(wire())
    if isinstance(records, list) and len(records) >= _FAST_PATH_MIN:
        fast = _sizeof_records_fast(records)
        if fast is not None:
            return fast
    return sum(sizeof_record(k, v) for k, v in records)
