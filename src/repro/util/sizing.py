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
* tuples/lists/sets → sum of elements + 4-byte count
* dicts → sum of key+value sizes + 4-byte count

Each rule is written once, in ``_RULES``, keyed by ``type(value)``; a
subclass (``IntEnum``, ``np.float64``, a ``namedtuple``, ...) takes the
rule of the first class along its ``__mro__`` that has one.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Any, Callable, Iterable

import numpy as np

# Public: the columnar backend computes per-column wire sizes from the
# same rules, so the header constants are part of the sizing contract.
ARRAY_HEADER = 8
SEQ_HEADER = 4
STR_HEADER = 2

_sizeof_scalar = attrgetter("itemsize")


def _sizeof_sequence(value: Iterable[Any]) -> int:
    return SEQ_HEADER + sum(map(sizeof_value, value))


# A fixed-size type maps to its size, any other to the function of the
# value that sizes it.
_RULES: dict[type, int | Callable[[Any], int]] = {
    type(None): 1,
    bool: 1,
    int: 8,
    float: 8,
    np.generic: _sizeof_scalar,
    # numpy strings are scalars first (itemsize, no prefix), though their
    # MRO lists str/bytes ahead of np.generic.
    np.str_: _sizeof_scalar,
    np.bytes_: _sizeof_scalar,
    np.ndarray: lambda value: value.nbytes + ARRAY_HEADER,
    bytes: lambda value: len(value) + STR_HEADER,
    str: lambda value: len(value.encode("utf-8")) + STR_HEADER,
    tuple: _sizeof_sequence,
    list: _sizeof_sequence,
    set: _sizeof_sequence,
    frozenset: _sizeof_sequence,
    dict: lambda value: SEQ_HEADER + sizeof_records(value.items()),
}


def sizeof_value(value: Any) -> int:
    """Return the estimated serialized size of one key or value, in bytes."""
    kind = type(value)
    rule = _RULES.get(kind)
    if rule is None:
        # A subclass: the first class along its MRO that has a rule.
        rule = next((_RULES[base] for base in kind.__mro__ if base in _RULES), None)
        if rule is None:
            raise TypeError(
                f"cannot size value of type {kind.__name__}; emit ints, floats, "
                "strings, numpy arrays, or nested tuples/lists/dicts"
            )
    return rule if type(rule) is int else rule(value)


def sizeof_record(key: Any, value: Any) -> int:
    """Serialized size of one key/value record."""
    return sizeof_value(key) + sizeof_value(value)


def sizeof_records(records: Iterable[tuple[Any, Any]]) -> int:
    """Total serialized size of an iterable of ``(key, value)`` records."""
    # Columnar batches size themselves per column (duck-typed rather
    # than isinstance to keep this leaf module import-cycle free).
    wire = getattr(records, "nbytes_wire", None)
    if wire is not None:
        return int(wire())
    return sum(sizeof_value(k) + sizeof_value(v) for k, v in records)
